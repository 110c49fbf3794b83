"""Backend conformance suite.

Every registered :class:`repro.core.backend.KernelBackend` must pass the
same kernel-level golden checks — gemm / trsm / panel solves on dense and
low-rank blocks, across all four dtypes — plus the contracts the solver
relies on:

* **column stability** of the panel kernels: column ``j`` of a blocked
  result is bit-identical to the single-column result, whatever the
  panel width;
* **seed bit-compatibility** of the numpy backend: a float64
  factorization produces sha256-identical factors to the pre-backend
  solver (the four pinned digests below were captured from the seed),
  and a 16-column panel solve reproduces pinned solution digests;
* **bitwise goldens of the fast paths**: the batched panel products
  equal a per-column ``a @ x[:, j]`` reference, and the direct-LAPACK
  RRQR equals a ``scipy.linalg.qr(..., pivoting=True)`` reference, both
  kept in this file.

A ``numba`` leg is parametrized explicitly so environments with numba
installed exercise the JIT backend and environments without it report a
skip (with reason) rather than silently shrinking coverage.
"""

from __future__ import annotations

import hashlib
import importlib.util

import numpy as np
import pytest
import scipy.linalg as sla

from repro.core.backend import _stable_gemm, available_backends, get_backend
from repro.core.solver import Solver
from repro.lowrank.rrqr import RRQRResult, rrqr_lapack
from repro.sparse.generators import laplacian_3d
from tests.conftest import tiny_blr_config
from tests.test_recovery import factor_digest

#: the rrqr module itself (``repro.lowrank`` re-exports a function of the
#: same name, which shadows the submodule attribute)
RRQR_MODULE = importlib.import_module("repro.lowrank.rrqr")

DTYPES = (np.float32, np.float64, np.complex64, np.complex128)

#: relative tolerance per dtype for value-level (not bitwise) checks
RTOL = {
    np.float32: 5e-5,
    np.float64: 1e-12,
    np.complex64: 5e-5,
    np.complex128: 1e-12,
}

#: sha256 of the float64 factors on laplacian_3d(6) under the seed code
#: (tiny_blr_config, tolerance 1e-8) — the numpy backend must reproduce
#: these bits exactly
SEED_DIGESTS = {
    ("just-in-time", "lu"):
        "f7d30439fcd13c2afdd19ba947a9521a7dff65bdef40c2b083f2aa270270b89a",
    ("minimal-memory", "lu"):
        "0ca4df7a8ea8cb789e8bf37cd1677547704bae8cc85777c32d7f5a50fdd9c258",
    ("dense", "lu"):
        "560f1a0d8bbf91cbcc47e97efecd295a66ad86b267b44f5a447992b2c3959e1f",
    ("just-in-time", "cholesky"):
        "f52daf4d8415a235ea28b374479b40572fb317283894d6a01deb447dbefb86ce",
}

#: sha256 of the 16-column panel solve on laplacian_3d(6) (tiny_blr_config,
#: tolerance 1e-8, right-hand sides from default_rng(16)), captured before
#: the panel kernels were batched: a change that shifts blocked and
#: per-column solves the same way keeps them equal but breaks these
SOLUTION_DIGESTS = {
    ("dense", "cholesky"):
        "2c02a5df0a2cfabaefb848774c514d85a0cbbfe1b9edef815162222bed162766",
    ("just-in-time", "lu"):
        "1720e3eab682e0447218f4999f333824aee1d1094b1f9ba3e759983164d00b21",
}

#: every backend that should be exercised somewhere: registered ones run,
#: the optional numba leg skips with a reason when not importable
BACKENDS = sorted(set(available_backends()) | {"numba"})


def _backend_param(name):
    if name == "numba" and importlib.util.find_spec("numba") is None:
        return pytest.param(
            name, marks=pytest.mark.skip(
                reason="numba is not installed; JIT backend unregistered"))
    return pytest.param(name)


backend_names = pytest.mark.parametrize(
    "backend_name", [_backend_param(n) for n in BACKENDS])

dtypes = pytest.mark.parametrize("dtype", DTYPES,
                                 ids=lambda d: np.dtype(d).name)


def _rand(rng, shape, dtype):
    a = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal(shape)
    return a.astype(dtype)


def _tri(rng, n, dtype, lower, unit):
    """Well-conditioned triangular matrix (unit or dominant diagonal)."""
    m = _rand(rng, (n, n), dtype)
    m = np.tril(m) if lower else np.triu(m)
    if unit:
        np.fill_diagonal(m, 1.0)
    else:
        np.fill_diagonal(m, np.diag(m) + np.array(4.0, dtype=dtype))
    return m


@pytest.fixture
def rng():
    return np.random.default_rng(20170529)  # IPDPS'17


# ----------------------------------------------------------------------
# kernel-level goldens, every backend x every dtype
# ----------------------------------------------------------------------

@backend_names
@dtypes
class TestKernelGoldens:
    def test_gemm(self, backend_name, dtype, rng):
        be = get_backend(backend_name)
        a = _rand(rng, (7, 5), dtype)
        b = _rand(rng, (5, 4), dtype)
        rtol = RTOL[dtype]
        np.testing.assert_allclose(be.gemm(a, b), a @ b, rtol=rtol)
        np.testing.assert_allclose(be.gemm(a, b.T, trans_b="T"),
                                   a @ b, rtol=rtol)
        np.testing.assert_allclose(be.gemm(a.T, b, trans_a="T"),
                                   a @ b, rtol=rtol)
        np.testing.assert_allclose(be.gemm(a.conj().T, b, trans_a="C"),
                                   a @ b, rtol=rtol)

    def test_syrk(self, backend_name, dtype, rng):
        be = get_backend(backend_name)
        a = _rand(rng, (6, 3), dtype)
        rtol = RTOL[dtype]
        np.testing.assert_allclose(be.syrk(a), a @ a.T, rtol=rtol)
        np.testing.assert_allclose(be.syrk(a, herk=True), a @ a.conj().T,
                                   rtol=rtol)

    @pytest.mark.parametrize("side", ("left", "right"))
    @pytest.mark.parametrize("lower", (True, False))
    @pytest.mark.parametrize("trans", ("N", "T", "C"))
    @pytest.mark.parametrize("unit", (True, False))
    def test_trsm(self, backend_name, dtype, rng, side, lower, trans, unit):
        be = get_backend(backend_name)
        n, k = 6, 3
        a = _tri(rng, n, dtype, lower, unit)
        op = {"N": a, "T": a.T, "C": a.conj().T}[trans]
        rtol = 200 * RTOL[dtype]
        if side == "left":
            b = _rand(rng, (n, k), dtype)
            x = be.trsm(a, b, side=side, lower=lower, trans=trans,
                        unit_diagonal=unit)
            np.testing.assert_allclose(op @ x, b, rtol=rtol, atol=rtol)
        else:
            b = _rand(rng, (k, n), dtype)
            x = be.trsm(a, b, side=side, lower=lower, trans=trans,
                        unit_diagonal=unit)
            np.testing.assert_allclose(x @ op, b, rtol=rtol, atol=rtol)

    @pytest.mark.parametrize("lower", (True, False))
    @pytest.mark.parametrize("trans", ("N", "T", "C"))
    @pytest.mark.parametrize("unit", (True, False))
    def test_panel_trsm(self, backend_name, dtype, rng, lower, trans, unit):
        be = get_backend(backend_name)
        n, k = 6, 4
        a = _tri(rng, n, dtype, lower, unit)
        b = _rand(rng, (n, k), dtype)
        op = {"N": a, "T": a.T, "C": a.conj().T}[trans]
        x = be.panel_trsm(a, b, lower=lower, trans=trans,
                          unit_diagonal=unit)
        rtol = 200 * RTOL[dtype]
        np.testing.assert_allclose(op @ x, b, rtol=rtol, atol=rtol)

    def test_panel_trsm_reads_only_requested_triangle(self, backend_name,
                                                      dtype, rng):
        """LAPACK-packed diagonal blocks carry L and U in one array; the
        panel solve must ignore the opposite triangle."""
        be = get_backend(backend_name)
        a = _tri(rng, 5, dtype, lower=True, unit=False)
        packed = a + np.triu(_rand(rng, (5, 5), dtype), 1)  # garbage above
        b = _rand(rng, (5, 2), dtype)
        x_clean = be.panel_trsm(a, b, lower=True)
        x_packed = be.panel_trsm(packed, b, lower=True)
        np.testing.assert_array_equal(x_clean, x_packed)

    def test_panel_gemm(self, backend_name, dtype, rng):
        be = get_backend(backend_name)
        a = _rand(rng, (6, 4), dtype)
        x = _rand(rng, (4, 3), dtype)
        np.testing.assert_allclose(be.panel_gemm(a, x), a @ x,
                                   rtol=RTOL[dtype], atol=RTOL[dtype])

    @pytest.mark.parametrize("mode", ("n", "t", "h"))
    def test_lr_apply(self, backend_name, dtype, rng, mode):
        be = get_backend(backend_name)
        u = _rand(rng, (6, 2), dtype)
        v = _rand(rng, (5, 2), dtype)
        x = _rand(rng, (5 if mode == "n" else 6, 3), dtype)
        block = u @ v.T
        ref = {"n": block, "t": block.T, "h": block.conj().T}[mode] @ x
        np.testing.assert_allclose(be.lr_apply(u, v, x, mode=mode), ref,
                                   rtol=10 * RTOL[dtype],
                                   atol=10 * RTOL[dtype])

    def test_ldlt_pivot(self, backend_name, dtype, rng):
        be = get_backend(backend_name)
        n = 8
        m = _rand(rng, (n, n), dtype)
        hermitian = np.dtype(dtype).kind == "c"
        a = m + (m.conj().T if hermitian else m.T)
        a[0, 0] = 0.0  # forces at least one interchange or 2x2 pivot
        packed, perm, d21, stats = be.ldlt_pivot(np.ascontiguousarray(a))
        assert sorted(perm.tolist()) == list(range(n))
        assert set(stats) >= {"swaps", "n2x2", "perturbed", "growth"}
        assert stats["swaps"] + stats["n2x2"] > 0
        assert stats["perturbed"] == 0
        lmat = np.tril(packed, -1) + np.eye(n, dtype=packed.dtype)
        d = np.diag(np.diag(packed)).astype(packed.dtype)
        for j in np.flatnonzero(d21):
            d[j + 1, j] = d21[j]
            d[j, j + 1] = np.conj(d21[j]) if hermitian else d21[j]
        rec = lmat @ d @ (lmat.conj().T if hermitian else lmat.T)
        ap = a[np.ix_(perm, perm)]
        tol = 200 * RTOL[dtype] * np.abs(a).max()
        np.testing.assert_allclose(rec, ap, rtol=0, atol=tol)

    @pytest.mark.parametrize("mode", ("n", "t", "h"))
    def test_lr_apply_rank_zero(self, backend_name, dtype, rng, mode):
        be = get_backend(backend_name)
        u = np.zeros((6, 0), dtype=dtype)
        v = np.zeros((5, 0), dtype=dtype)
        x = _rand(rng, (5 if mode == "n" else 6, 3), dtype)
        out = be.lr_apply(u, v, x, mode=mode)
        assert out.shape == ((6, 3) if mode == "n" else (5, 3))
        assert out.dtype == np.result_type(u, v, x)
        assert not out.any()


# ----------------------------------------------------------------------
# the column-stability contract (bitwise, every backend x every dtype)
# ----------------------------------------------------------------------

@backend_names
@dtypes
class TestColumnStability:
    """Panel kernels: column j of a blocked result == the single-column
    result, bit for bit, at every panel width."""

    def test_panel_trsm_width_invariant(self, backend_name, dtype, rng):
        be = get_backend(backend_name)
        n, k = 12, 7
        a = _tri(rng, n, dtype, lower=True, unit=False)
        b = _rand(rng, (n, k), dtype)
        full = be.panel_trsm(a, b, lower=True)
        for j in range(k):
            single = be.panel_trsm(a, b[:, j:j + 1], lower=True)
            np.testing.assert_array_equal(full[:, j:j + 1], single)

    def test_panel_gemm_width_invariant(self, backend_name, dtype, rng):
        be = get_backend(backend_name)
        a = _rand(rng, (9, 6), dtype)
        x = _rand(rng, (6, 5), dtype)
        full = be.panel_gemm(a, x)
        for j in range(5):
            single = be.panel_gemm(a, x[:, j:j + 1])
            np.testing.assert_array_equal(full[:, j:j + 1], single)

    def test_lr_apply_width_invariant(self, backend_name, dtype, rng):
        be = get_backend(backend_name)
        u = _rand(rng, (8, 3), dtype)
        v = _rand(rng, (6, 3), dtype)
        x = _rand(rng, (6, 4), dtype)
        full = be.lr_apply(u, v, x)
        for j in range(4):
            single = be.lr_apply(u, v, x[:, j:j + 1])
            np.testing.assert_array_equal(full[:, j:j + 1], single)


# ----------------------------------------------------------------------
# end-to-end: blocked solves per backend, and the seed digest pins
# ----------------------------------------------------------------------

@backend_names
class TestEndToEnd:
    @pytest.mark.parametrize("strategy",
                             ("dense", "just-in-time", "minimal-memory"))
    def test_blocked_solve_matches_columns(self, backend_name, strategy):
        rng = np.random.default_rng(7)
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(strategy=strategy, tolerance=1e-8,
                                      backend=backend_name))
        s.factorize()
        b = rng.standard_normal((a.n, 5))
        x = s.solve(b)
        for j in range(5):
            np.testing.assert_array_equal(
                x[:, j], s.solve(np.ascontiguousarray(b[:, j])))

    def test_backend_recorded_in_stats(self, backend_name):
        a = laplacian_3d(4)
        s = Solver(a, tiny_blr_config(backend=backend_name))
        s.factorize()
        assert s.stats.backend == backend_name
        calls = s.stats.backend_kernel_calls
        assert calls.get("getrf", 0) > 0
        s.solve(np.ones(a.n))
        assert calls.get("panel_trsm", 0) > 0


class TestSeedBitCompatibility:
    """The numpy backend reproduces the pre-backend float64 factors
    bit-for-bit (sha256 over every factor array)."""

    @pytest.mark.parametrize("strategy,factotype", sorted(SEED_DIGESTS))
    def test_factor_digest_pinned(self, strategy, factotype):
        a = laplacian_3d(6)
        s = Solver(a, tiny_blr_config(strategy=strategy, factotype=factotype,
                                      tolerance=1e-8, backend="numpy"))
        s.factorize()
        assert factor_digest(s.factor) == SEED_DIGESTS[(strategy, factotype)]

    @pytest.mark.parametrize("strategy,factotype", sorted(SOLUTION_DIGESTS))
    def test_panel_solve_digest_pinned(self, strategy, factotype):
        a = laplacian_3d(6)
        s = Solver(a, tiny_blr_config(strategy=strategy, factotype=factotype,
                                      tolerance=1e-8, backend="numpy"))
        s.factorize()
        b = np.random.default_rng(16).standard_normal((a.n, 16))
        x = np.ascontiguousarray(s.solve(b))
        assert x.dtype == np.float64
        digest = hashlib.sha256(x.tobytes()).hexdigest()
        assert digest == SOLUTION_DIGESTS[(strategy, factotype)]


# ----------------------------------------------------------------------
# bitwise goldens of the numpy fast paths against in-test references
# ----------------------------------------------------------------------

#: operand dtype pairs: the four dtypes plus mixed-precision panels
GEMM_PAIRS = tuple((d, d) for d in DTYPES) + (
    (np.float32, np.float64), (np.float64, np.float32))


def _per_column_gemm(a, x):
    """Reference column-stable product: one ``a @ x[:, j]`` per column."""
    a = np.ascontiguousarray(a)
    out = np.empty((a.shape[0], x.shape[1]), dtype=np.result_type(a, x))
    for j in range(x.shape[1]):
        out[:, j] = a @ np.ascontiguousarray(x[:, j])
    return out


def _per_column_lr_apply(u, v, x, mode):
    """Reference ``lr_apply``: the two products of ``u vᵗ`` applied
    column by column."""
    if mode == "n":
        return _per_column_gemm(u, _per_column_gemm(v.T, x))
    if mode == "t":
        return _per_column_gemm(v, _per_column_gemm(u.T, x))
    return _per_column_gemm(v.conj(), _per_column_gemm(u.conj().T, x))


def _panel(rng, rows, k, dtype, layout):
    """An ``(rows, k)`` panel laid out C-ordered, F-ordered or strided."""
    if layout == "strided":
        return _rand(rng, (rows, 2 * k), dtype)[:, ::2]
    x = _rand(rng, (rows, k), dtype)
    return np.asfortranarray(x) if layout == "F" else x


def _assert_bitwise(got, ref):
    assert got.dtype == ref.dtype
    assert got.shape == ref.shape
    assert np.ascontiguousarray(got).tobytes() == ref.tobytes()


@pytest.mark.parametrize("pair", GEMM_PAIRS,
                         ids=lambda p: f"{np.dtype(p[0]).name}"
                                       f"x{np.dtype(p[1]).name}")
@pytest.mark.parametrize("k", (0, 1, 16))
@pytest.mark.parametrize("layout", ("C", "F", "strided"))
class TestBatchedPanelGoldens:
    """The numpy backend's batched panel products equal the per-column
    reference bit for bit, whatever the panel's width, dtype or layout."""

    def test_stable_gemm(self, pair, k, layout, rng):
        a = _rand(rng, (19, 13), pair[0])
        x = _panel(rng, 13, k, pair[1], layout)
        _assert_bitwise(_stable_gemm(a, x), _per_column_gemm(a, x))
        # a Fortran-ordered matrix operand reduces the same way
        _assert_bitwise(_stable_gemm(np.asfortranarray(a), x),
                        _per_column_gemm(a, x))

    def test_panel_gemm(self, pair, k, layout, rng):
        be = get_backend("numpy")
        a = _rand(rng, (40, 24), pair[0])
        x = _panel(rng, 24, k, pair[1], layout)
        _assert_bitwise(be.panel_gemm(a, x), _per_column_gemm(a, x))

    @pytest.mark.parametrize("mode", ("n", "t", "h"))
    def test_lr_apply(self, pair, k, layout, mode, rng):
        be = get_backend("numpy")
        u = _rand(rng, (30, 5), pair[0])
        v = _rand(rng, (22, 5), pair[0])
        x = _panel(rng, 22 if mode == "n" else 30, k, pair[1], layout)
        _assert_bitwise(be.lr_apply(u, v, x, mode=mode),
                        _per_column_lr_apply(u, v, x, mode))


def _scipy_rrqr(a, tol, max_rank=None, norm_ref=None):
    """Reference truncated RRQR through ``scipy.linalg.qr``'s pivoted
    economic QR, truncated by the rule ``rrqr_lapack`` documents."""
    q, r, jpvt = sla.qr(a, mode="economic", pivoting=True,
                        check_finite=False)
    row_sq = np.einsum("ij,ij->i", r.conj(), r).real
    tail = np.sqrt(np.maximum(np.cumsum(row_sq[::-1])[::-1], 0.0))
    norm_a = float(tail[0]) if tail.size else 0.0
    scale = max(norm_a, norm_ref or 0.0)
    if scale == 0.0:
        rank = 0
    else:
        ok = np.flatnonzero(tail <= tol * scale)
        rank = int(ok[0]) if ok.size else int(r.shape[0])
    if max_rank is not None and rank > max_rank:
        return RRQRResult(q=q[:, :0], r=r[:0], jpvt=jpvt.astype(np.int64),
                          converged=False)
    return RRQRResult(q=np.ascontiguousarray(q[:, :rank]),
                      r=np.ascontiguousarray(r[:rank]),
                      jpvt=jpvt.astype(np.int64), converged=True)


def _lowrank_block(rng, m, n, rank, dtype):
    """``(m, n)`` block of numerical rank ~``rank``: decaying spectrum."""
    u = _rand(rng, (m, rank), dtype) * 0.3 ** np.arange(rank)
    return (u @ _rand(rng, (n, rank), dtype).T).astype(dtype)


@pytest.fixture
def count_orgqr(monkeypatch):
    """Count the Q formations ``rrqr_lapack`` makes (LAPACK ``orgqr``)."""
    handles = RRQR_MODULE._qp3_handles
    calls = []

    def counted(dtype):
        geqp3, orgqr, nb = handles(dtype)

        def orgqr_counted(*args, **kwargs):
            calls.append(args[0].shape)
            return orgqr(*args, **kwargs)
        return geqp3, orgqr_counted, nb

    monkeypatch.setattr(RRQR_MODULE, "_qp3_handles", counted)
    return calls


@dtypes
class TestRrqrLapackGoldens:
    """``rrqr_lapack`` calls geqp3/orgqr directly; its results equal the
    ``scipy.linalg.qr`` reference bit for bit."""

    @staticmethod
    def _check(a, tol, max_rank=None, norm_ref=None):
        got = rrqr_lapack(a, tol, max_rank, norm_ref=norm_ref)
        ref = _scipy_rrqr(a, tol, max_rank, norm_ref=norm_ref)
        assert got.converged == ref.converged
        for g, r in zip(got[:3], ref[:3]):
            _assert_bitwise(g, np.ascontiguousarray(r))
        return got

    @pytest.mark.parametrize("shape", ((12, 40), (40, 12), (25, 25), (1, 9),
                                       (9, 1)), ids=str)
    @pytest.mark.parametrize("tol", (1e-2, 1e-6))
    def test_matches_scipy_qr(self, dtype, shape, tol, rng):
        a = _lowrank_block(rng, *shape, rank=min(shape), dtype=dtype)
        res = self._check(a, tol)
        assert res.converged

    def test_norm_ref_truncation(self, dtype, rng):
        a = _lowrank_block(rng, 30, 18, 10, dtype)
        scale = 10.0 * float(np.linalg.norm(a))
        res = self._check(a, 1e-3, norm_ref=scale)
        assert 0 < res.q.shape[1] < 10

    def test_zero_block_forms_no_q(self, dtype, count_orgqr):
        res = self._check(np.zeros((7, 5), dtype=dtype), 1e-8)
        assert res.converged and res.q.shape == (7, 0)
        assert count_orgqr == []

    def test_rank_cap_rejection_forms_no_q(self, dtype, rng, count_orgqr):
        a = _rand(rng, (16, 16), dtype)
        res = self._check(a, 1e-14, max_rank=4)
        assert not res.converged
        assert count_orgqr == []

    def test_accepted_keeps_all_reflectors(self, dtype, rng, count_orgqr):
        a = _lowrank_block(rng, 30, 20, 12, dtype)
        res = self._check(a, 1e-3)
        assert 0 < res.q.shape[1] < 20
        # Q is expanded from all min(m, n) reflectors, then sliced
        assert count_orgqr == [(30, 20)]

    def test_empty_block(self, dtype):
        for shape in ((0, 4), (4, 0)):
            res = rrqr_lapack(np.zeros(shape, dtype=dtype), 1e-8)
            assert res.converged
            assert res.q.shape == (shape[0], 0)
            assert res.r.shape == (0, shape[1])
            assert res.jpvt.tolist() == list(range(shape[1]))

    @pytest.mark.parametrize("shape", ((1, 1), (5, 3), (3, 5), (40, 200),
                                       (300, 140)), ids=str)
    def test_closed_form_lwork_matches_query(self, dtype, shape):
        """The workspace sizes passed without querying are what LAPACK's
        own workspace query returns (the blocking path, hence the bits,
        depends on lwork)."""
        geqp3, orgqr, nb = RRQR_MODULE._qp3_handles(np.dtype(dtype))
        m, n = shape
        k = min(m, n)
        a = np.zeros(shape, dtype=dtype, order="F")
        queried = int(geqp3(a, lwork=-1)[-2][0].real)
        real = np.dtype(dtype).kind == "f"
        assert queried == (n + 1) * nb + (2 * n if real else 0)
        tau = np.zeros(k, dtype=dtype)
        assert int(orgqr(a[:, :k], tau, lwork=-1)[-2][0].real) == k * nb
