"""Equality-constrained least squares over reduced biquaternion matrices.

Baseline for comparisons against the total least squares solver: only the
right-hand side is treated as uncertain, so the problem is

    minimize ||A X - B||_F  subject to  C X = D,

transported to leading block columns exactly as in the solver (real
stacks for real X, complex stacks for complex X, each stack [Ac, Bc] and
[Cc, Dc] written once and the blocks read as views), with the solver's data
validation, constraint rank check and LAPACK failure mapping, and solved
by the classical null-space reduction: a full QR of the transposed
constraint stack (numpy's, called directly) yields a particular solution
from the triangular system and an orthonormal basis of the admissible
variations, and an ordinary least squares solve fixes the null-space
coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rb_core as rb
from .tlse import (_COMPLEX, _REAL, TlseProblem, _Representation,
                   _check_constraint_rank, _lapack_failures)

__all__ = ["LseSolution", "lse_solve_real", "lse_solve_complex"]


@dataclass(frozen=True, eq=False)
class LseSolution:
    """Constrained least squares solution with its two residual norms;
    compared and hashed by identity, as its X is an array."""

    X: np.ndarray
    residual: float
    constraint_residual: float


@_lapack_failures
def _lse(A: rb.RBMatrix, B: rb.RBMatrix, C: rb.RBMatrix, D: rb.RBMatrix,
         rep: _Representation) -> LseSolution:
    TlseProblem(A, B, C, D)  # the solver's validation
    n = A.cols
    P, S = rep.column(A, B), rep.column(C, D)
    Ar, Br, Cr, Dr = P[:, :n], P[:, n:], S[:, :n], S[:, n:]
    r = Cr.shape[0]
    _check_constraint_rank(Cr)
    Q, R = np.linalg.qr(Cr.conj().T, mode="complete")
    Q1 = Q[:, :r]
    Q2 = Q[:, r:]
    # Cr = [R^H 0] Q^H, so Cr X = Dr becomes R^H (Q1^H X) = Dr; with
    # r = 0, Q2 is the identity and X0 is zero
    y = np.linalg.solve(R[:r].conj().T, Dr)
    X0 = Q1 @ y
    Z, *_ = np.linalg.lstsq(Ar @ Q2, Br - Ar @ X0, rcond=None)
    X = X0 + Q2 @ Z
    return LseSolution(
        X=X,
        residual=rb._norm(Ar @ X - Br),
        constraint_residual=rb._norm(Cr @ X - Dr))


def lse_solve_real(A: rb.RBMatrix, B: rb.RBMatrix, C: rb.RBMatrix,
                   D: rb.RBMatrix) -> LseSolution:
    """Real-solution constrained least squares; with p = 0 the same
    reduction is plain least squares.  Validates as TlseProblem, raises
    like the total least squares solver, and its residual norms are
    scale-safe."""
    return _lse(A, B, C, D, _REAL)


def lse_solve_complex(A: rb.RBMatrix, B: rb.RBMatrix, C: rb.RBMatrix,
                      D: rb.RBMatrix) -> LseSolution:
    """Complex-solution variant over the complex-pair stacks."""
    return _lse(A, B, C, D, _COMPLEX)
