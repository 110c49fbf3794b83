"""Span recorder that times calls into the solver's layers from outside.

Tracing never edits the solver: :func:`instrument` replaces each public
layer function *at the module attribute it is called through* (for example
``repro.core.scheduler.factor_column_block``, which the sequential engine
looks up on every call) with a wrapper that records one span, and puts the
original back when the traced run ends.

A span is ``(name, start, end, parent, operation id)``; the parent is the
innermost span open when the call started.  Spans live in flat arrays in
memory and are written out once, when the run ends.

Spans are *opaque* or *transparent*.  A layer's self time is its span's
duration minus the durations of its nearest opaque descendants, so an
opaque child (``compress`` inside ``panel``) is charged to its own layer,
while a transparent one (a backend ``gemm`` or ``lr2ge`` inside ``update``)
stays charged to the layer that called it and is only counted and timed
in addition.  The opaque layers of a factorization therefore partition it:
``factorize = assembly + panel + update + compress + lr_product + lr2lr +
unattributed``.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: ``(module, attribute, span name, opaque)``: the layer functions wrapped
#: where the solver calls them
LAYER_TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("repro.core.solver", "symbolic_factorization", "symbolic", True),
    ("repro.symbolic.factorization", "nested_dissection", "ordering", True),
    ("repro.core.solver", "assemble", "assembly", True),
    ("repro.core.scheduler", "factor_column_block", "panel", True),
    ("repro.core.scheduler", "apply_updates_from", "update", True),
    ("repro.core.factor", "compress_block", "compress", True),
    ("repro.core.factorization", "compress_block", "compress", True),
    ("repro.core.factorization", "lr_product", "lr_product", True),
    ("repro.core.factorization", "lr2lr_update", "lr2lr", True),
    ("repro.core.factorization", "lr2lr_update_multi", "lr2lr", True),
    ("repro.core.factorization", "lr2ge_update", "lr2ge", False),
    ("repro.core.solver", "solve_factored", "trisolve", True),
    ("repro.core.solver", "gmres", "refinement", True),
    ("repro.core.solver", "conjugate_gradient", "refinement", True),
)

#: operations of the kernel-backend protocol (``repro.core.backend``)
BACKEND_OPS = ("gemm", "syrk", "trsm", "getrf", "potrf", "ldlt",
               "ldlt_pivot", "panel_gemm", "panel_trsm", "lr_apply")


class SpanRecorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.opaque: List[bool] = []
        self._index: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        #: ``(operation id, key) -> count`` tallies noted by wrappers
        self.tallies: Dict[Tuple[int, str], int] = defaultdict(int)
        #: ``(operation id, phase) -> normalized seconds`` of the phase
        self.phase_norm: Dict[Tuple[int, str], float] = {}
        self.op_id = 0
        self._stack: List[int] = []

    def _name(self, name: str, opaque: bool) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.opaque.append(opaque)
        return idx

    def _open(self, idx: int) -> int:
        sid = len(self.start)
        self.name_id.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """An opaque span opened by the benchmark itself (a phase)."""
        sid = self._open(self._name(name, True))
        self.start[sid] = time.perf_counter()
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable[..., Any], opaque: bool,
             note: Optional[Callable[[tuple, Any], Dict[str, int]]] = None
             ) -> Callable[..., Any]:
        """``fn`` recording one span per call; ``note(args, result)``
        returns extra tallies for the current operation."""
        idx = self._name(name, opaque)
        rec = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = rec._open(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end[sid] = time.perf_counter()
                rec.start[sid] = t0
                rec._stack.pop()
            if note is not None:
                for key, n in note(args, out).items():
                    rec.tallies[(rec.op_id, key)] += n
            return out

        return traced

    # -- derived quantities -------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.uint16),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32)}

    def layer_totals(self) -> Dict[int, Dict[str, Dict[str, float]]]:
        """``op -> name -> {"s", "self_s", "calls"}`` in normalized seconds.

        Each span is scaled by the ratio of its benchmark phase's (its root
        span's) normalized seconds to the root span's duration.  Layer
        times are then in the same host-normalized unit as the end-to-end
        metrics, the self times of a phase sum to its normalized time, and
        the host-speed samples taken during the phase are spread over its
        layers in proportion to their duration.
        """
        arr = self.arrays()
        dur = arr["end"] - arr["start"]
        nid, ops = arr["name_id"], arr["op"]
        name_opaque = self.opaque
        opaque = [name_opaque[i] for i in nid.tolist()]
        # nearest opaque ancestor and root phase of every span (parents
        # always precede their children in the arrays)
        anc: List[int] = []
        root: List[int] = []
        for sid, p in enumerate(self.parent.tolist()):
            if p < 0:
                anc.append(-1)
                root.append(sid)
            else:
                anc.append(p if opaque[p] else anc[p])
                root.append(root[p])
        anc_a = np.asarray(anc, dtype=np.int64)
        child = np.zeros(dur.size)
        mask = np.asarray(opaque, dtype=bool) & (anc_a >= 0)
        np.add.at(child, anc_a[mask], dur[mask])
        root_scale = {r: self.phase_norm.get(
            (int(ops[r]), self.names[nid[r]]), dur[r]) / dur[r]
            for r in set(root)}
        scale = np.array([root_scale[r] for r in root])
        nname = len(self.names)
        key = ops.astype(np.int64) * nname + nid
        nkey = int(key.max()) + 1 if key.size else 0
        tot = np.bincount(key, weights=dur * scale, minlength=nkey)
        self_ = np.bincount(key, weights=(dur - child) * scale,
                            minlength=nkey)
        calls = np.bincount(key, minlength=nkey)
        out: Dict[int, Dict[str, Dict[str, float]]] = defaultdict(dict)
        for k in np.flatnonzero(calls).tolist():
            out[k // nname][self.names[k % nname]] = {
                "s": float(tot[k]), "self_s": float(self_[k]),
                "calls": int(calls[k])}
        return out

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            opaque=np.array(self.opaque), **self.arrays())


def _compress_note(args: tuple, out: Any) -> Dict[str, int]:
    return {"compress_kept": int(out is not None)}


def _trisolve_note(args: tuple, out: Any) -> Dict[str, int]:
    rhs = args[1]
    return {"rhs_cols": 1 if rhs.ndim == 1 else int(rhs.shape[1])}


@contextlib.contextmanager
def instrument(rec: SpanRecorder, backend: Any) -> Iterator[None]:
    """Wrap every layer function and backend op for the block's duration."""
    from repro.sparse.csc import CSCMatrix

    restore: List[Callable[[], None]] = []
    notes = {"compress": _compress_note, "trisolve": _trisolve_note}
    try:
        for modname, attr, name, opaque in LAYER_TARGETS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            setattr(mod, attr, rec.wrap(name, orig, opaque, notes.get(name)))
            restore.append(lambda m=mod, a=attr, o=orig: setattr(m, a, o))
        orig_matvec = CSCMatrix.matvec
        CSCMatrix.matvec = rec.wrap("matvec", orig_matvec, True)
        restore.append(lambda: setattr(CSCMatrix, "matvec", orig_matvec))
        for op in BACKEND_OPS:
            setattr(backend, op,
                    rec.wrap("backend." + op, getattr(backend, op), False))
            restore.append(lambda o=op: delattr(backend, o))
        yield
    finally:
        for undo in reversed(restore):
            undo()
