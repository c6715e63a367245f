"""Equality-constrained least squares over reduced biquaternion matrices.

Baseline for comparisons against the total least squares solver: only the
right-hand side is treated as uncertain, so the problem is

    minimize ||A X - B||_F  subject to  C X = D,

transported to leading block columns exactly as in the solver (real
stacks for real X, complex stacks for complex X), with the solver's data
validation, constraint rank check and LAPACK failure mapping, and solved
by the classical null-space reduction: a full QR of the transposed
constraint stack yields a particular solution from the triangular system
and an orthonormal basis of the admissible variations, and an ordinary
least squares solve fixes the null-space coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rb_core as rb
from .dense_kernels import qr_full
from .tlse import (_COMPLEX, _REAL, _Representation, _check_constraint_rank,
                   _lapack_failures, _validate_blocks)

__all__ = ["LseSolution", "lse_solve_real", "lse_solve_complex"]


@dataclass(frozen=True)
class LseSolution:
    """Constrained least squares solution with its two residual norms."""

    X: np.ndarray
    residual: float
    constraint_residual: float


@_lapack_failures
def _lse(A: rb.RBMatrix, B: rb.RBMatrix, C: rb.RBMatrix, D: rb.RBMatrix,
         rep: _Representation) -> LseSolution:
    _validate_blocks(A, B, C, D)
    Ar, Br, Cr, Dr = (rep.column(M) for M in (A, B, C, D))
    r = Cr.shape[0]
    if r == 0:
        X, *_ = np.linalg.lstsq(Ar, Br, rcond=None)
    else:
        _check_constraint_rank(Cr)
        qf = qr_full(Cr.conj().T)
        Q1 = qf.Q[:, :r]
        Q2 = qf.Q[:, r:]
        # Cr = [R^H 0] Q^H, so Cr X = Dr becomes R^H (Q1^H X) = Dr
        y = np.linalg.solve(qf.R.conj().T, Dr)
        X0 = Q1 @ y
        Z, *_ = np.linalg.lstsq(Ar @ Q2, Br - Ar @ X0, rcond=None)
        X = X0 + Q2 @ Z
    return LseSolution(
        X=X,
        residual=float(np.linalg.norm(Ar @ X - Br)),
        constraint_residual=float(np.linalg.norm(Cr @ X - Dr)))


def lse_solve_real(A: rb.RBMatrix, B: rb.RBMatrix, C: rb.RBMatrix,
                   D: rb.RBMatrix) -> LseSolution:
    """Real-solution constrained least squares; p = 0 degrades to plain
    least squares.  Raises DimensionMismatch, NonFiniteInput,
    AssumptionViolated or FactorizationFailed like the total least
    squares solver."""
    return _lse(A, B, C, D, _REAL)


def lse_solve_complex(A: rb.RBMatrix, B: rb.RBMatrix, C: rb.RBMatrix,
                      D: rb.RBMatrix) -> LseSolution:
    """Complex-solution variant over the complex-pair stacks."""
    return _lse(A, B, C, D, _COMPLEX)
