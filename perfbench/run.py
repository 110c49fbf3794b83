"""Solver benchmark: host-normalized time-to-solution, checked answers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload geo20-jit --seed 1 --seconds 20 \
        --trace 0

Runs one workload's operations for ``--seconds`` seconds in this process
(``threads=1``, BLAS/OpenMP pools pinned to one thread), checks every
answer independently and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones, from a run that alternates traced and untraced
operations (episodes on lap16).  README.md defines every metric and
workload.
"""

import os

# pinned before numpy is first imported, so the pools start single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: traced-run span files and the exact-counter ledger (inside the
#: checkout, git-ignored)
OUT_DIR = ROOT / ".bench_out"


def _import_solver() -> None:
    """Put the checkout's own ``src`` first on the path; refuse to run
    against anything else."""
    pkg = SRC / "repro"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: solver sources not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {pkg}")


def blas_threads() -> int:
    """Thread count OpenBLAS reports it will use (-1 if not queryable)."""
    import numpy as np

    core = getattr(np, "_core", None) or np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return -1
    for sym in ("scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return -1


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# -- metric definitions ------------------------------------------------------
# Each end-to-end metric maps one successful operation to a value (None:
# not defined on that operation); the run reports the median.

def _phases(d: Dict[str, float], names: tuple) -> float:
    return sum(d.get(p, 0.0) for p in names)


def end_to_end_defs(kind: str) -> Dict[str, tuple]:
    from workloads import SOLVE_PHASES, TTS_PHASES

    tts = TTS_PHASES[kind]
    return {
        "time_to_solution_s": ("s", lambda r, t: _phases(t, tts)),
        "setup_s": ("s", lambda r, t: t.get("setup")),
        "factorize_s": ("s", lambda r, t: t["factorize"]),
        "solve_s": ("s", lambda r, t: _phases(t, SOLVE_PHASES)),
        "peak_mb": ("MB", lambda r, t: r.counts["peak_nbytes"] / 1e6),
        "factor_mb": ("MB", lambda r, t: r.counts["factor_nbytes"] / 1e6),
        "solve_passes": ("count", lambda r, t: 1 + r.iterations),
        "first_solve_berr": ("ratio", lambda r, t: r.berr0),
    }


def reduce_ops(defs: Dict[str, tuple], ops: List[Any],
               timings: Callable[[Any], Dict[str, float]]
               ) -> Dict[str, float]:
    out = {}
    for name, (_unit, fn) in defs.items():
        vals = [v for v in (fn(r, timings(r)) for r in ops) if v is not None]
        out[name] = _median(vals)
    return out


def layer_metrics(runner: Any, ops: List[Any]) -> Dict[str, tuple]:
    """Per-layer metrics: medians over the traced operations."""
    from hostclock import C_NOM
    from tracer import BACKEND_OPS

    from repro.runtime.stats import KERNEL_CATEGORIES

    rec = runner.rec
    layers = rec.layer_totals()
    rows: Dict[str, tuple] = {}
    per_op: Dict[str, List[float]] = {}

    def put(name: str, unit: str, value: Optional[float]) -> None:
        rows[name] = (unit, 0.0)
        if value is not None:
            per_op.setdefault(name, []).append(float(value))

    for r in (r for r in ops if r.traced):
        lay = layers.get(r.index, {})

        def get(layer: str, key: str) -> float:
            return lay.get(layer, {}).get(key, 0)

        c = r.counts
        has_setup = "setup" in r.norm
        put("ordering.self_s", "s",
            get("ordering", "self_s") if has_setup else None)
        put("symbolic.self_s", "s",
            get("symbolic", "self_s") if has_setup else None)
        put("setup.unattributed_s", "s",
            get("setup", "self_s") if has_setup else None)
        put("symbolic.cblks", "count", c["cblks"])
        put("symbolic.blocks", "count", c["blocks"])
        attempts = get("compress", "calls")
        kept = rec.tallies.get((r.index, "compress_kept"), 0)
        put("lowrank.compress_s", "s", get("compress", "self_s"))
        put("lowrank.compress_calls", "count", attempts)
        put("lowrank.compress_accept_ratio", "ratio",
            kept / attempts if attempts else 0.0)
        put("lowrank.memory_ratio", "ratio",
            c["factor_nbytes"] / c["dense_factor_nbytes"])
        for layer in ("lr2lr", "lr_product", "lr2ge"):
            put(f"lowrank.{layer}_s", "s", get(layer, "self_s"))
            put(f"lowrank.{layer}_calls", "count", get(layer, "calls"))
        put("factor.assembly_s", "s", get("assembly", "self_s"))
        put("factorization.panel_s", "s", get("panel", "self_s"))
        put("factorization.update_s", "s", get("update", "self_s"))
        put("factorization.unattributed_s", "s", get("factorize", "self_s"))
        for cat in KERNEL_CATEGORIES:
            put(f"factorization.gflop.{cat}", "GFLOP",
                c["flops"].get(cat, 0.0) / 1e9)
        for op in BACKEND_OPS:
            put(f"backend.calls.{op}", "count", c["backend_calls"].get(op, 0))
        put("trisolve.self_s", "s", get("trisolve", "self_s"))
        put("trisolve.calls", "count", get("trisolve", "calls"))
        put("trisolve.rhs_cols", "count",
            rec.tallies.get((r.index, "rhs_cols"), 0))
        put("refinement.self_s", "s", get("refinement", "self_s"))
        put("refinement.iterations", "count", r.iterations)
        put("sparse.matvec_calls", "count", get("matvec", "calls"))
        put("sparse.matvec_s", "s", get("matvec", "self_s"))
    out = {name: (unit, _median(per_op.get(name, [])))
           for name, (unit, _) in rows.items()}
    calib = [c for r in ops for c in r.calib]
    out["host.calib_s"] = ("s", _median(calib))
    out["host.slowdown"] = ("x", _median(calib) / C_NOM)
    out["host.blas_threads"] = ("count", blas_threads())
    return out


# -- the run -----------------------------------------------------------------

def _count_diff(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    return [f"{k}: {a.get(k)!r} != {b.get(k)!r}"
            for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def source_digest() -> str:
    """sha256 of the solver and benchmark sources."""
    h = hashlib.sha256()
    here = Path(__file__).resolve().parent
    for path in sorted([*SRC.rglob("*.py"), *here.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_counts(workload: str, seed: int, ops: List[Any],
                 value_free: bool) -> None:
    """Exact counters must repeat for the same inputs; exit loudly if not.

    Operation ``i`` of seed ``s`` has input seed ``s + i``; its counters
    are kept in a ledger (per source digest) inside the checkout, so every
    later operation on the same input seed, in this run or any later run
    of the same code, must report them exactly.  Dense workloads' counters
    do not depend on the values at all, so every operation must agree.
    """
    path = OUT_DIR / "counts-ledger.json"
    digest = source_digest()
    try:
        ledger = json.loads(path.read_text())
    except (OSError, ValueError):
        ledger = {}
    book = ledger.get(digest, {}).setdefault(workload, {})
    problems = []
    done = [r for r in ops if r.counts]
    for r in done:
        counts = json.loads(json.dumps(r.counts))
        key = str(seed + r.index)
        ref = book.setdefault(key, counts)
        if value_free:
            ref = json.loads(json.dumps(done[0].counts))
        diff = _count_diff(ref, counts)
        if diff:
            problems.append(f"operation {r.index} (input seed {key}):\n    "
                            + "\n    ".join(diff))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({digest: ledger.get(digest, {}) | {
        workload: book}}))
    os.replace(tmp, path)
    if problems:
        raise SystemExit(f"perfbench: exact counters of {workload} did not "
                         "repeat:\n  " + "\n  ".join(problems))


def run(workload: str, seed: int, seconds: float, trace: bool
        ) -> Dict[str, Any]:
    from tracer import SpanRecorder
    from workloads import WORKLOADS, OpResult, Runner

    work = WORKLOADS[workload]
    # warm-up, untimed: one operation on a small matrix through the same
    # configuration pays imports and lazy LAPACK set-up; its failures
    # show again in the timed operations, which count them
    try:
        Runner(work, seed, base=work.warmup()).ops(0, lambda i: False)
    except Exception as exc:  # reported; the timed operations count it
        print(f"perfbench: warm-up raised {type(exc).__name__}: {exc}",
              file=sys.stderr)
    runner = Runner(work, seed)
    if trace:
        runner.rec = SpanRecorder()
    # a traced run alternates traced and untraced units of work (episodes
    # for refactor workloads) and completes at least one of each
    traced = ((lambda i: (i // work.steps) % 2 == 0) if trace
              else (lambda i: False))
    min_ops = max(work.min_ops, 2 * work.steps) if trace else work.min_ops

    ops: List[OpResult] = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(ops) < min_ops:
        gc.collect()
        try:
            batch = runner.ops(len(ops), traced)
        except Exception as exc:  # counted as a failed operation
            print(f"perfbench: operation {len(ops)} raised "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            batch = [OpResult(len(ops), traced(len(ops)),
                              error=f"{type(exc).__name__}: {exc}")]
        for r in batch:
            if r.index > 0:
                r.x = None
        ops.extend(batch)
    gc.collect()

    first = ops[0]
    splu_s = runner.splu_reference(first) if first.error is None else 0.0
    # a dense factorization's counters do not depend on the values
    check_counts(workload, seed, ops, work.config.strategy == "dense")
    good = [r for r in ops if r.error is None]
    failed = len(ops) - len(good)
    for r in ops:
        if r.error is not None:
            print(f"perfbench: operation {r.index} failed: {r.error}",
                  file=sys.stderr)
    if not good:
        raise SystemExit("perfbench: no operation succeeded")

    defs = end_to_end_defs(work.kind)
    plain = [r for r in good if not r.traced]
    norm = reduce_ops(defs, plain, lambda r: r.norm)
    raw = reduce_ops(defs, plain, lambda r: r.raw)
    _audit(workload, seed, ops, norm, raw)
    if not trace:
        metrics = {name: (unit, norm[name])
                   for name, (unit, _fn) in defs.items()}
    else:
        metrics = layer_metrics(runner, good)
        traced_norm = reduce_ops(defs, [r for r in good if r.traced],
                                 lambda r: r.norm)
        for name in ("time_to_solution_s", "setup_s", "factorize_s",
                     "solve_s"):
            metrics[f"raw.{name}"] = ("s", raw[name])
        metrics["ref.splu_s"] = ("s", splu_s)
        metrics["ref.tts_over_splu"] = (
            "ratio", norm["time_to_solution_s"] / splu_s if splu_s else 0.0)
        untraced_tts = norm["time_to_solution_s"]
        metrics["trace.overhead"] = (
            "ratio", traced_norm["time_to_solution_s"] / untraced_tts
            if untraced_tts else 0.0)
        metrics["failure_rate"] = ("ratio", failed / len(ops))
        runner.rec.save(OUT_DIR / f"spans-{workload}-seed{seed}.npz")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (u, v) in metrics.items()}}


def _audit(workload: str, seed: int, ops: List[Any],
           norm: Dict[str, float], raw: Dict[str, float]) -> None:
    """Calibration audit on stderr: raw next to normalized seconds."""
    from hostclock import C_NOM

    err = sys.stderr
    print(f"perfbench {workload} seed {seed}: {len(ops)} operations",
          file=err)
    for r in ops:
        slow = _median(r.calib) / C_NOM if r.calib else float("nan")
        line = " ".join(f"{p}={r.norm[p]:.4f}/{r.raw[p]:.4f}"
                        for p in r.norm)
        print(f"  op {r.index}{' traced' if r.traced else ''} "
              f"slowdown={slow:.3f} {line} (normalized/raw s)", file=err)
    for name in ("time_to_solution_s", "setup_s", "factorize_s", "solve_s"):
        print(f"  {name}: {norm[name]:.4f} normalized, {raw[name]:.4f} raw",
              file=err)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_solver()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
