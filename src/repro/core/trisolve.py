"""Triangular solves on the block factorization (paper step 4).

Works on the mixed dense/low-rank storage produced by any strategy.  Low-rank
blocks apply as ``u (vᵗ x)`` — the solve step is what the paper's Table 2
"Solve time" row measures, and it is *faster* than the dense solve because
the work is proportional to the stored ranks.

Conventions (matching :mod:`repro.core.factorization`):

* LU: ``P A Pᵗ = L U`` with unit-lower L; the diagonal blocks pack L and U
  LAPACK-style; off-diagonal U is stored transposed (Uᵗ blocks shaped like
  L blocks).
* Cholesky: ``P A Pᵗ = L Lᵗ`` with the lower factor in the diagonal blocks.

Right-hand sides may be a vector ``(n,)`` or a panel ``(n, k)`` — including
``k = 0``.  The whole solve runs on the *column-stable* panel kernels of the
factor's :class:`~repro.core.backend.KernelBackend` (``panel_trsm`` /
``panel_gemm`` / ``lr_apply``): column ``j`` of the result depends only on
column ``j`` of ``b``, bit-for-bit, so a blocked ``(n, k)`` solve equals
``k`` single-RHS solves exactly (for identical dtypes).  BLAS gemm/trsm do
not have that property — their internal blocking changes the summation
order with the panel width — which is why the solve phase deliberately
avoids them.  Batching is not the problem: the numpy backend runs each
panel product as one batched ``np.matmul`` that NumPy dispatches as one
gemv per column on the same operands, so the ``k`` columns cost one call
and keep the per-column bits.  What does change bits is merging *blocks*:
stacking a supernode's off-diagonal blocks into one taller product
changes the gemv kernel's row blocking, so every block is applied on its
own.  The diagonal blocks are passed packed: the panel kernels read only
the requested triangle, so no ``np.triu`` copies are taken.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import KernelBackend
from repro.core.factor import Block, NumericFactor
from repro.core.factorization import ldlt_d_solve_rows
from repro.lowrank.block import LowRankBlock


def _apply_block(be: KernelBackend, block: Block,
                 x_cols: np.ndarray) -> np.ndarray:
    """``block @ x_cols`` for dense or low-rank block (column-stable)."""
    if isinstance(block, LowRankBlock):
        return be.lr_apply(block.u, block.v, x_cols, mode="n")
    return be.panel_gemm(block, x_cols)


def _apply_block_t(be: KernelBackend, block: Block,
                   x_rows: np.ndarray) -> np.ndarray:
    """``block.T @ x_rows`` (pure transpose — the LU paths)."""
    if isinstance(block, LowRankBlock):
        return be.lr_apply(block.u, block.v, x_rows, mode="t")
    return be.panel_gemm(np.ascontiguousarray(block.T), x_rows)


def _apply_block_h(be: KernelBackend, block: Block,
                   x_rows: np.ndarray) -> np.ndarray:
    """``blockᴴ @ x_rows`` (adjoint — the symmetric backward passes; for
    real blocks ``conj`` is a no-copy pass-through, so this coincides
    bit-for-bit with :func:`_apply_block_t`)."""
    if isinstance(block, LowRankBlock):
        return be.lr_apply(block.u, block.v, x_rows, mode="h")
    return be.panel_gemm(np.ascontiguousarray(block.conj().T), x_rows)


def solve_factored(fac: NumericFactor, b: np.ndarray,
                   trans: bool = False) -> np.ndarray:
    """Solve ``(P A Pᵗ) x = b`` — or its transpose with ``trans=True`` —
    using the computed factors.

    ``b`` may be ``(n,)`` or an ``(n, k)`` panel; the result has the same
    shape.  Inputs are normalized to a fresh C-contiguous working copy, so
    Fortran-ordered or strided right-hand sides give bit-identical results
    to contiguous ones.

    The transposed solve of an LU factorization runs ``Uᵗ z = b`` then
    ``Lᵗ x = z``: the stored ``Uᵗ`` blocks apply *forward* and the ``L``
    blocks apply transposed, mirroring the plain solve.  For complex LU
    factors ``trans=True`` solves against ``Aᵗ`` (the pure transpose, not
    the adjoint), matching the real-case semantics.  Hermitian
    factorizations (cholesky/ldlt of complex matrices) are their own
    adjoint, and their backward passes apply ``Lᴴ``.
    """
    if fac.faults is not None:
        fac.faults.on_trisolve(fac)
    x = np.array(b, dtype=np.result_type(fac.dtype, np.asarray(b).dtype),
                 copy=True, order="C")
    if x.dtype.kind not in "fc":
        x = x.astype(np.float64)
    single = x.ndim == 1
    if single:
        x = x[:, None]
    prof = fac.profiler
    _sid = (prof.start("trisolve", factotype=fac.config.factotype,
                       nrhs=x.shape[1], trans=trans)
            if prof is not None else None)
    try:
        if fac.config.factotype == "lu":
            if trans:
                _forward_ut(fac, x)
                _backward_lt(fac, x)
            else:
                _forward_lu(fac, x)
                _backward_lu(fac, x)
        elif fac.config.factotype == "cholesky":
            _forward_cholesky(fac, x)
            _backward_cholesky(fac, x)
        else:  # ldlt: L z = b ; y = D⁻¹ z ; Lᵗ x = y
            _forward_ldlt(fac, x)
            _diag_scale_ldlt(fac, x)
            _backward_ldlt(fac, x)
    finally:
        if prof is not None:
            prof.end(_sid)
    return x[:, 0] if single else x


def _forward_lu(fac: NumericFactor, x: np.ndarray) -> None:
    """``L y = b`` (unit-lower), overwriting ``x``."""
    be = fac.backend
    for nc in fac.cblks:
        sym = nc.sym
        lo, hi = sym.first_col, sym.end_col
        x[lo:hi] = be.panel_trsm(nc.diag, x[lo:hi], lower=True,
                                 unit_diagonal=True)
        for i, b in enumerate(sym.off_blocks()):
            x[b.first_row:b.end_row] -= _apply_block(be, nc.lblock(i),
                                                     x[lo:hi])


def _backward_lu(fac: NumericFactor, x: np.ndarray) -> None:
    """``U x = y``; off-diagonal U applied via the stored Uᵗ blocks."""
    be = fac.backend
    for nc in reversed(fac.cblks):
        sym = nc.sym
        lo, hi = sym.first_col, sym.end_col
        acc = x[lo:hi]
        for i, b in enumerate(sym.off_blocks()):
            # U[k, (i)] = (Uᵗ(i),k)ᵗ
            acc -= _apply_block_t(be, nc.ublock(i), x[b.first_row:b.end_row])
        x[lo:hi] = be.panel_trsm(nc.diag, acc, lower=False)


def _forward_cholesky(fac: NumericFactor, x: np.ndarray) -> None:
    be = fac.backend
    for nc in fac.cblks:
        sym = nc.sym
        lo, hi = sym.first_col, sym.end_col
        x[lo:hi] = be.panel_trsm(nc.diag, x[lo:hi], lower=True)
        for i, b in enumerate(sym.off_blocks()):
            x[b.first_row:b.end_row] -= _apply_block(be, nc.lblock(i),
                                                     x[lo:hi])


def _backward_cholesky(fac: NumericFactor, x: np.ndarray) -> None:
    """``Lᴴ x = y`` using the same L blocks adjoint-applied (``Lᵗ`` for
    real factors)."""
    be = fac.backend
    trans = "C" if fac.dtype.kind == "c" else "T"
    for nc in reversed(fac.cblks):
        sym = nc.sym
        lo, hi = sym.first_col, sym.end_col
        acc = x[lo:hi]
        for i, b in enumerate(sym.off_blocks()):
            acc -= _apply_block_h(be, nc.lblock(i), x[b.first_row:b.end_row])
        x[lo:hi] = be.panel_trsm(nc.diag, acc, lower=True, trans=trans)


def _forward_ldlt(fac: NumericFactor, x: np.ndarray) -> None:
    """``L z = b`` with unit-lower L (D shares the diag storage).

    Threshold-pivoted supernodes store the within-block permutation P on
    ``nc.pivperm``: their global diagonal L block is ``Pᵀ L00``, so the
    forward step solves ``L00 z = P b`` — permute the local right-hand
    side rows, then run the usual unit-lower solve."""
    be = fac.backend
    for nc in fac.cblks:
        sym = nc.sym
        lo, hi = sym.first_col, sym.end_col
        rhs = x[lo:hi] if nc.pivperm is None else x[lo:hi][nc.pivperm]
        x[lo:hi] = be.panel_trsm(nc.diag, rhs, lower=True,
                                 unit_diagonal=True)
        for i, b in enumerate(sym.off_blocks()):
            x[b.first_row:b.end_row] -= _apply_block(be, nc.lblock(i),
                                                     x[lo:hi])


def _diag_scale_ldlt(fac: NumericFactor, x: np.ndarray) -> None:
    """``y = D⁻¹ z`` using the (block-)diagonal of every diagonal block.

    With threshold pivoting D may carry 2×2 pivot blocks whose
    subdiagonal lives on ``nc.pivd21``; those are solved via the explicit
    2×2 inverse (:func:`~repro.core.factorization.ldlt_d_solve_rows`)."""
    for nc in fac.cblks:
        lo, hi = nc.sym.first_col, nc.sym.end_col
        d = np.diag(nc.diag)
        hermitian = d.dtype.kind == "c"
        if hermitian:
            d = d.real  # Hermitian LDLᴴ: D is real by construction
        if nc.pivd21 is None:
            x[lo:hi] /= d[:, None]
        else:
            x[lo:hi] = ldlt_d_solve_rows(x[lo:hi], d, nc.pivd21, hermitian)


def _backward_ldlt(fac: NumericFactor, x: np.ndarray) -> None:
    """``Lᴴ x = y`` with the same unit-lower L blocks adjoint-applied.

    Pivoted supernodes solve ``(Pᵀ L00)ᴴ x = y`` as ``L00ᴴ w = y`` with
    ``w = P x`` — run the adjoint solve, then scatter the rows back
    through the permutation (``x[p] = w``)."""
    be = fac.backend
    trans = "C" if fac.dtype.kind == "c" else "T"
    for nc in reversed(fac.cblks):
        sym = nc.sym
        lo, hi = sym.first_col, sym.end_col
        acc = x[lo:hi]
        for i, b in enumerate(sym.off_blocks()):
            acc -= _apply_block_h(be, nc.lblock(i), x[b.first_row:b.end_row])
        sol = be.panel_trsm(nc.diag, acc, lower=True, trans=trans,
                            unit_diagonal=True)
        if nc.pivperm is None:
            x[lo:hi] = sol
        else:
            x[lo:hi][nc.pivperm] = sol


def _forward_ut(fac: NumericFactor, x: np.ndarray) -> None:
    """``Uᵗ z = b`` — Uᵗ is lower triangular and its off-diagonal blocks
    are exactly the stored ``Uᵗ(i),k`` blocks, applied untransposed."""
    be = fac.backend
    for nc in fac.cblks:
        sym = nc.sym
        lo, hi = sym.first_col, sym.end_col
        x[lo:hi] = be.panel_trsm(nc.diag, x[lo:hi], lower=False, trans="T")
        for i, b in enumerate(sym.off_blocks()):
            x[b.first_row:b.end_row] -= _apply_block(be, nc.ublock(i),
                                                     x[lo:hi])


def _backward_lt(fac: NumericFactor, x: np.ndarray) -> None:
    """``Lᵗ x = z`` with the unit-lower L blocks applied transposed."""
    be = fac.backend
    for nc in reversed(fac.cblks):
        sym = nc.sym
        lo, hi = sym.first_col, sym.end_col
        acc = x[lo:hi]
        for i, b in enumerate(sym.off_blocks()):
            acc -= _apply_block_t(be, nc.lblock(i), x[b.first_row:b.end_row])
        x[lo:hi] = be.panel_trsm(nc.diag, acc, lower=True, trans="T",
                                 unit_diagonal=True)
