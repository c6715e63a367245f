"""Complex-solution solver for the equality-constrained total least
squares problem over reduced biquaternion matrices.

Same problem as the real-solution solver, but X is allowed to be complex.
Writing every matrix in complex-pair form (P = R1 + R2*j) the problem
transports to the leading block columns of the 2x-complex representation:
Ac = [R1; R2] (2m-by-n complex) and so on.  The pipeline mirrors the real
solver with half-size complex factorizations and conjugate transposes:

1. stack P = [Ac, Bc], S = [Cc, Dc];
2. full QR of S^H, null-space columns Q2 (n+d-2p of them);
3. thin SVD of P @ Q2, trailing d triples give X = -V12 @ inv(V22);
4. perturbation stacks -U2 S2 V12^H and -U2 S2 V22^H, reassembled from
   complex pairs.

This path never routes through the 4x-real representation; the complex
statement is native and the factorizations are half the size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rb_core as rb
from .dense_kernels import qr_full, svd_skinny, svd_thin
from .errors import (AssumptionViolated, BlockNotInvertible,
                     DegenerateSpectrum, GapConditionFailed)
from .tlse_real import DEFAULT_TOL, ToleranceConfig, _validate_blocks

__all__ = [
    "TlseComplexProblem",
    "TlseComplexSolution",
    "solve_complex",
    "residuals_complex",
]


@dataclass(frozen=True)
class TlseComplexProblem:
    """Data (A, B, C, D) for a complex-solution solve; shapes as in the
    real variant, p = 0 accepted, n = 0, d = 0 and non-finite entries
    rejected."""

    A: rb.RBMatrix
    B: rb.RBMatrix
    C: rb.RBMatrix
    D: rb.RBMatrix

    def __post_init__(self):
        _validate_blocks(self.A, self.B, self.C, self.D)

    @property
    def sizes(self) -> tuple[int, int, int, int]:
        """(m, n, p, d)."""
        return (self.A.rows, self.A.cols, self.C.rows, self.B.cols)


@dataclass(frozen=True)
class TlseComplexSolution:
    """Complex solution X with minimizing perturbations G_bar (of A) and
    H_bar (of B); diagnostics as in the real variant."""

    X: np.ndarray
    G_bar: rb.RBMatrix
    H_bar: rb.RBMatrix
    sigma: np.ndarray
    gap: float
    v22_condition: float
    residual_perturbation_norm: float
    Q2: np.ndarray = field(repr=False)
    U: np.ndarray = field(repr=False)
    V_check: np.ndarray = field(repr=False)


def solve_complex(problem: TlseComplexProblem,
                  tol: ToleranceConfig = DEFAULT_TOL) -> TlseComplexSolution:
    """Solve for the unique complex X.

    Error taxonomy matches the real solver, with the 2p-row complex
    constraint block replacing the 4p-row real one.
    """
    m, n, p, d = problem.sizes
    r = 2 * p
    if 2 * m < n + d - r:
        raise AssumptionViolated(
            f"not enough rows: 2m = {2 * m} < n+d-2p = {n + d - r}")
    if r > n:
        raise AssumptionViolated(
            f"constraint block too tall: 2p = {r} > n = {n}")

    Ac = rb.complex_block_column(problem.A)
    Bc = rb.complex_block_column(problem.B)
    P = np.hstack([Ac, Bc])
    if p > 0:
        Cc = rb.complex_block_column(problem.C)
        Dc = rb.complex_block_column(problem.D)
        rank = svd_skinny(Cc).S.size
        if rank < r:
            raise AssumptionViolated(
                f"constraint block column (2p x n) has numerical rank "
                f"{rank}, needs full row rank {r}")
        S = np.hstack([Cc, Dc])
        Q2 = qr_full(S.conj().T).Q[:, r:]
    else:
        Q2 = np.eye(n + d, dtype=np.complex128)

    f = svd_thin(P @ Q2)
    sigma = f.S
    k = n - r
    if sigma[-1] <= tol.positive_sigma:
        raise DegenerateSpectrum(
            f"smallest retained singular value {sigma[-1]:.3e} is not "
            f"strictly positive (threshold {tol.positive_sigma:.3e})")
    gap = np.inf if k == 0 else float(sigma[k - 1] - sigma[k])
    if k > 0 and gap <= tol.gap_abs + tol.gap_rel * sigma[0]:
        raise GapConditionFailed(
            f"singular value gap {gap:.3e} at position {k} is below "
            f"tolerance; the solution is not unique")

    V_check = Q2 @ f.V
    V12 = V_check[:n, k:]
    V22 = V_check[n:, k:]
    sv = np.linalg.svd(V22, compute_uv=False)
    v22_cond = np.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])
    if not np.isfinite(v22_cond) or v22_cond > tol.v22_cond_max:
        raise BlockNotInvertible(
            f"trailing block V22 condition {v22_cond:.3e} exceeds "
            f"{tol.v22_cond_max:.3e}")

    X = -np.linalg.solve(V22.T, V12.T).T

    U2 = f.U[:, k:]
    scaled = sigma[k:, None]
    G_stack = -U2 @ (scaled * V12.conj().T)
    H_stack = -U2 @ (scaled * V22.conj().T)
    G_bar = rb.from_complex_block_column(G_stack)
    H_bar = rb.from_complex_block_column(H_stack)
    pert_norm = float(np.sqrt(
        np.sum(np.abs(G_stack) ** 2) + np.sum(np.abs(H_stack) ** 2)))

    return TlseComplexSolution(
        X=X, G_bar=G_bar, H_bar=H_bar, sigma=sigma, gap=gap,
        v22_condition=v22_cond, residual_perturbation_norm=pert_norm,
        Q2=Q2, U=f.U, V_check=V_check)


def residuals_complex(problem: TlseComplexProblem,
                      solution: TlseComplexSolution) -> tuple[float, float]:
    """Accuracy metrics: ||(A+G)X - (B+H)||_F and ||C X - D||_F."""
    XC = rb.RBMatrix.from_complex(solution.X)
    eps1 = rb.frobenius_norm(
        rb.mat_mul(problem.A + solution.G_bar, XC)
        - (problem.B + solution.H_bar))
    eps2 = rb.frobenius_norm(rb.mat_mul(problem.C, XC) - problem.D)
    return eps1, eps2
