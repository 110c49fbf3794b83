"""The benchmark's workloads and the operations they time.

Operation ``i`` of a run with seed ``s`` factors ``perturb(base, s + i,
MAGNITUDE)`` and solves for right-hand sides drawn from seed ``s + i``, so
the solver only ever receives generated inputs and the same seed always
gives the same inputs.  Every answer is checked here, independently of the
solver: backward errors come from this module's own ``scipy.sparse``
residual, never from ``Solver.backward_error`` or ``CSCMatrix.matvec``.
See README.md for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hostclock import PhaseClock
from tracer import SpanRecorder, instrument

from repro import Solver, SolverConfig
from repro.core.backend import get_backend
from repro.sparse.generators import (
    anisotropic_laplacian_3d,
    laplacian_3d,
    perturb,
)

#: relative entrywise perturbation of each operation's matrix
MAGNITUDE = 1e-6
#: backward error every refined (geo) or direct (dense) solution must reach
TARGET_BERR = 1e-12
#: GMRES/CG iteration cap of the refinement
REFINE_MAXITER = 20
#: relative distance to SuperLU's solution the first operation must meet
SPLU_RTOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    matrix: Callable[[], Any]
    #: small matrix of the same family for the untimed warm-up
    warmup: Callable[[], Any]
    config: SolverConfig
    #: "fresh": Solver construction to refined solution per operation;
    #: "refactor": one analysis per episode, then same-pattern refactor +
    #: panel-solve steps
    kind: str
    #: right-hand sides per solve (``None``: one vector)
    nrhs: Optional[int] = None
    #: refactor steps per episode (``refactor`` only)
    steps: int = 1
    #: operations a run completes even when ``--seconds`` has passed
    min_ops: int = 1


def _geo_config(strategy: str) -> SolverConfig:
    return SolverConfig.laptop_scale(
        strategy=strategy, tolerance=1e-4, rank_ratio=0.5, kernel="rrqr",
        factotype="lu", threads=1, backend="numpy")


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("geo20-jit", lambda: anisotropic_laplacian_3d(20),
             lambda: anisotropic_laplacian_3d(8),
             _geo_config("just-in-time"), kind="fresh", min_ops=3),
    Workload("geo20-mm", lambda: anisotropic_laplacian_3d(20),
             lambda: anisotropic_laplacian_3d(8),
             _geo_config("minimal-memory"), kind="fresh", min_ops=4),
    Workload("lap16-dense-refactor", lambda: laplacian_3d(16),
             lambda: laplacian_3d(8),
             SolverConfig(strategy="dense", factotype="cholesky", threads=1,
                          backend="numpy"),
             kind="refactor", nrhs=16, steps=4, min_ops=4),
)}

#: phases summed into ``time_to_solution_s`` and ``solve_s`` per kind
TTS_PHASES = {"fresh": ("setup", "factorize", "solve", "refine"),
              "refactor": ("refresh", "factorize", "solve")}
SOLVE_PHASES = ("solve", "refine")


@dataclass
class OpResult:
    """Timings, exact counters and check outcome of one operation."""

    index: int
    traced: bool
    raw: Dict[str, float] = field(default_factory=dict)
    norm: Dict[str, float] = field(default_factory=dict)
    calib: List[float] = field(default_factory=list)
    counts: Dict[str, Any] = field(default_factory=dict)
    #: largest column backward error of the unrefined solve
    berr0: float = float("nan")
    iterations: int = 0
    error: Optional[str] = None
    x: Optional[np.ndarray] = None


def scipy_matrix(a: Any) -> sp.csc_matrix:
    """``a`` as a scipy CSC matrix built from its raw arrays."""
    return sp.csc_matrix((a.values, a.rowind, a.colptr), shape=(a.n, a.n))


def backward_errors(a: Any, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-column ``||A x - b||_2 / ||b||_2`` from a scipy.sparse residual."""
    r = scipy_matrix(a) @ x - b
    return np.atleast_1d(np.linalg.norm(r, axis=0) / np.linalg.norm(b, axis=0))


def exact_counts(solver: Solver, iterations: int) -> Dict[str, Any]:
    """Counters the solver reports that must repeat exactly per seed."""
    st = solver.stats
    return {
        "peak_nbytes": st.peak_nbytes,
        "factor_nbytes": st.factor_nbytes,
        "dense_factor_nbytes": st.dense_factor_nbytes,
        "nblocks_compressed": st.nblocks_compressed,
        "nblocks_dense": st.nblocks_dense,
        "flops": dict(sorted(st.kernels.flops.items())),
        "kernel_calls": dict(sorted(st.kernels.calls.items())),
        "backend_calls": dict(sorted(st.backend_kernel_calls.items())),
        "iterations": iterations,
        "cblks": solver.symbolic.ncblk,
        "blocks": solver.symbolic.total_off_blocks(),
    }


class Runner:
    """Runs one workload's operations from a seed."""

    def __init__(self, work: Workload, seed: int,
                 base: Optional[Any] = None) -> None:
        self.work = work
        self.seed = seed
        self.base = work.matrix() if base is None else base
        self.rec: Optional[SpanRecorder] = None
        self.backend = get_backend(work.config.backend)

    # -- inputs ---------------------------------------------------------------
    def inputs(self, i: int) -> tuple:
        """Operation ``i``'s matrix and right-hand side(s).

        A single right-hand side is ``b = A 1`` (exact solution all ones):
        GMRES's iteration count depends on the right-hand side, and with a
        random ``b`` per seed it flips between 2 and 3 from seed to seed.
        Panels are 16 random columns drawn from the seed."""
        a = perturb(self.base, self.seed + i, MAGNITUDE)
        if self.work.nrhs is None:
            return a, scipy_matrix(a) @ np.ones(a.n)
        rng = np.random.default_rng(self.seed + i)
        return a, rng.standard_normal((a.n, self.work.nrhs))

    # -- timing -------------------------------------------------------------
    def _tracing(self, res: OpResult) -> Any:
        if not res.traced:
            return contextlib.nullcontext()
        self.rec.op_id = res.index
        return instrument(self.rec, self.backend)

    def _phase(self, clock: PhaseClock, res: OpResult, name: str,
               fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        def call() -> Any:
            with (self.rec.span(name) if res.traced
                  else contextlib.nullcontext()):
                return fn(*args, **kwargs)

        out, raw, norm = clock.run(call)
        res.raw[name] = raw
        res.norm[name] = norm
        if res.traced:
            self.rec.phase_norm[(res.index, name)] = norm
        return out

    def _setup(self, a: Any) -> Solver:
        solver = Solver(a, self.work.config)
        solver.analyze()
        return solver

    # -- operations ---------------------------------------------------------
    def fresh_op(self, i: int, traced: bool) -> OpResult:
        """Solver construction to a refined solution, one right-hand side."""
        res = OpResult(i, traced)
        a, b = self.inputs(i)
        clock = PhaseClock()
        with self._tracing(res):
            solver = self._phase(clock, res, "setup", self._setup, a)
            self._phase(clock, res, "factorize", solver.factorize)
            x0 = self._phase(clock, res, "solve", solver.solve, b)
            ref = self._phase(clock, res, "refine", solver.refine, b, x0=x0,
                              tol=TARGET_BERR, maxiter=REFINE_MAXITER)
        res.calib = clock.samples
        res.iterations = ref.iterations
        res.x = ref.x
        res.berr0 = float(backward_errors(a, x0, b).max())
        self._check(res, a, b)
        res.counts = exact_counts(solver, ref.iterations)
        return res

    def refactor_episode(self, first: int, traced: Callable[[int], bool]
                         ) -> List[OpResult]:
        """One analysis, then ``steps`` refactor + panel-solve operations.

        The episode's set-up phase is stored on its first operation."""
        out: List[OpResult] = []
        solver: Optional[Solver] = None
        for i in range(first, first + self.work.steps):
            res = OpResult(i, traced(i))
            a, b = self.inputs(i)
            clock = PhaseClock()
            with self._tracing(res):
                if solver is None:
                    solver = self._phase(clock, res, "setup", self._setup, a)
                self._phase(clock, res, "refresh", solver.update_values, a)
                self._phase(clock, res, "factorize", solver.factorize)
                x = self._phase(clock, res, "solve", solver.solve, b)
            res.calib = clock.samples
            res.x = x
            res.berr0 = self._check(res, a, b)
            res.counts = exact_counts(solver, 0)
            out.append(res)
        return out

    def ops(self, first: int, traced: Callable[[int], bool]
            ) -> List[OpResult]:
        """The next unit of work: one operation, or one refactor episode."""
        if self.work.kind == "fresh":
            return [self.fresh_op(first, traced(first))]
        return self.refactor_episode(first, traced)

    # -- checks ---------------------------------------------------------------
    def _check(self, res: OpResult, a: Any, b: np.ndarray) -> float:
        """Every column of ``res.x`` must reach the backward-error target;
        returns the largest backward error."""
        berr = float(backward_errors(a, res.x, b).max())
        if not np.all(np.isfinite(res.x)):
            res.error = "non-finite solution"
        elif not berr <= TARGET_BERR:
            res.error = (f"backward error {berr:.3e} misses the "
                         f"{TARGET_BERR:g} target")
        return berr

    def splu_reference(self, res: OpResult) -> float:
        """Check ``res`` against SuperLU on the same inputs; returns the
        normalized seconds of SuperLU's factor + solve."""
        a, b = self.inputs(res.index)
        mat = scipy_matrix(a)
        clock = PhaseClock()
        ref, _raw, norm = clock.run(lambda: spla.splu(mat).solve(b))
        diff = float(np.linalg.norm(res.x - ref) / np.linalg.norm(ref))
        if res.error is None and not diff <= SPLU_RTOL:
            res.error = (f"solution differs from SuperLU by {diff:.3e} "
                         f"(> {SPLU_RTOL:g})")
        return norm
