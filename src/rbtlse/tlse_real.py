"""Real-solution solver for the equality-constrained total least squares
problem over reduced biquaternion matrices.

Problem: given A (m-by-n), B (m-by-d), C (p-by-n), D (p-by-d), all reduced
biquaternion, find a *real* X minimizing ||[E, F]||_F over perturbations
satisfying (A+E) X = B+F and C X = D.

Because X is real, the problem transports losslessly to the leading block
columns of the real representation: with Ac = [A0;A1;A2;A3] (4m-by-n) and
likewise Bc, Cc, Dc, the same X solves the ordinary equality-constrained
TLS problem on (Ac, Bc, Cc, Dc), and perturbation norms agree.  The solve
is then the classical null-space reduction:

1. stack P = [Ac, Bc] and S = [Cc, Dc];
2. full QR of S^T; the trailing n+d-4p columns Q2 of Q span ker(S);
3. thin SVD of P @ Q2; the d trailing right singular vectors, pushed back
   through Q2 and partitioned, give X = -V12 @ inv(V22);
4. the minimizing perturbation stacks are rank-d corrections built from
   the trailing singular triples, sliced back into the four components.

Uniqueness needs a strict gap between singular values n-4p and n-4p+1 of
P @ Q2 and an invertible V22; both are checked and reported through the
error taxonomy rather than patched over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rb_core as rb
from .dense_kernels import qr_full, svd_skinny, svd_thin
from .errors import (AssumptionViolated, BlockNotInvertible,
                     DegenerateSpectrum, DimensionMismatch,
                     GapConditionFailed, NonFiniteInput)

__all__ = [
    "ToleranceConfig",
    "TlseRealProblem",
    "TlseRealSolution",
    "solve_real",
    "residuals_real",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds shared by both solvers.

    gap_rel / gap_abs
        The spectrum gap guaranteeing uniqueness must exceed
        gap_abs + gap_rel * sigma_1.  The theory's strict inequality is
        exact-arithmetic; this makes it checkable in floating point.
    v22_cond_max
        Largest acceptable 2-norm condition number of the trailing block
        V22 before the solve refuses to invert it.
    positive_sigma
        The smallest retained singular value must exceed this.  Zero by
        default so that machine-precision zeros on consistent data do not
        spuriously fail the solve.
    """

    gap_rel: float = 1e-10
    gap_abs: float = 0.0
    v22_cond_max: float = 1e12
    positive_sigma: float = 0.0


DEFAULT_TOL = ToleranceConfig()


def _validate_blocks(A: rb.RBMatrix, B: rb.RBMatrix, C: rb.RBMatrix,
                     D: rb.RBMatrix) -> None:
    """Shape and finiteness checks shared by both problem types."""
    m, n = A.shape
    if B.rows != m:
        raise DimensionMismatch(f"A has {m} rows but B has {B.rows}")
    p = C.rows
    if C.cols != n:
        raise DimensionMismatch(f"A has {n} cols but C has {C.cols}")
    if D.shape != (p, B.cols):
        raise DimensionMismatch(
            f"D shape {D.shape} incompatible with C/B ({p}, {B.cols})")
    if n == 0 or B.cols == 0:
        raise DimensionMismatch(
            f"empty problem: n = {n}, d = {B.cols}; both must be >= 1")
    for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
        if not all(np.isfinite(c).all() for c in (M.p0, M.p1, M.p2, M.p3)):
            raise NonFiniteInput(f"{name} holds nan or inf")


@dataclass(frozen=True)
class TlseRealProblem:
    """Data (A, B, C, D) for a real-solution solve.

    A is m-by-n, B m-by-d, C p-by-n, D p-by-d with n, d >= 1 and every
    entry finite.  p = 0 (empty constraint) is accepted and degrades to an
    unconstrained total least squares solve.
    """

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
class TlseRealSolution:
    """Solution of a real-solution solve.

    X is the real n-by-d solution; E_bar and F_bar the minimizing
    perturbations of A and B.  sigma holds all n-4p+d singular values of
    the reduced matrix, gap the uniqueness margin sigma[n-4p-1] -
    sigma[n-4p], and v22_condition the 2-norm condition number of the
    inverted trailing block.  Q2, U and V_check retain the factorization
    for the conditioning module, which reuses them instead of refactoring.
    """

    X: np.ndarray
    E_bar: rb.RBMatrix
    F_bar: rb.RBMatrix
    sigma: np.ndarray
    gap: float
    v22_condition: float
    residual_perturbation_norm: float
    Q2: np.ndarray = field(repr=False)
    U: np.ndarray = field(repr=False)
    V_check: np.ndarray = field(repr=False)


def _check_constraint_rank(Cc: np.ndarray, rows_needed: int, what: str):
    """Numerical full-row-rank check; failure is an error, never a silent
    regularization."""
    if rows_needed == 0:
        return
    rank = svd_skinny(Cc).S.size
    if rank < rows_needed:
        raise AssumptionViolated(
            f"{what} has numerical rank {rank}, needs full row rank "
            f"{rows_needed}")


def _trailing_blocks(V_check: np.ndarray, n: int, k: int):
    """Split the pushed-back singular vectors at row n / column k."""
    V12 = V_check[:n, k:]
    V22 = V_check[n:, k:]
    return V12, V22


def _v22_condition(V22: np.ndarray) -> float:
    sv = np.linalg.svd(V22, compute_uv=False)
    if sv.size == 0 or sv[-1] == 0.0:
        return np.inf
    return float(sv[0] / sv[-1])


def solve_real(problem: TlseRealProblem,
               tol: ToleranceConfig = DEFAULT_TOL) -> TlseRealSolution:
    """Solve for the unique real X; see the module docstring for the steps.

    Raises AssumptionViolated, GapConditionFailed, BlockNotInvertible or
    DegenerateSpectrum when the data leaves the theory's premises.
    """
    m, n, p, d = problem.sizes
    r = 4 * p
    # the reduced matrix P @ Q2 (4m rows, n+d-4p cols) must be tall for
    # the trailing singular subspace to have dimension d
    if 4 * m < n + d - r:
        raise AssumptionViolated(
            f"not enough rows: 4m = {4 * m} < n+d-4p = {n + d - r}")
    if r > n:
        raise AssumptionViolated(
            f"constraint block too tall: 4p = {r} > n = {n}")

    Ac = rb.real_block_column(problem.A)
    Bc = rb.real_block_column(problem.B)
    P = np.hstack([Ac, Bc])
    if p > 0:
        Cc = rb.real_block_column(problem.C)
        Dc = rb.real_block_column(problem.D)
        _check_constraint_rank(Cc, r, "constraint block column (4p x n)")
        S = np.hstack([Cc, Dc])
        Q2 = qr_full(S.T).Q[:, r:]
    else:
        Q2 = np.eye(n + d)

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
    V12, V22 = _trailing_blocks(V_check, n, k)
    v22_cond = _v22_condition(V22)
    if not np.isfinite(v22_cond) or v22_cond > tol.v22_cond_max:
        raise BlockNotInvertible(
            f"trailing block V22 condition {v22_cond:.3e} exceeds "
            f"{tol.v22_cond_max:.3e}")

    X = -np.linalg.solve(V22.T, V12.T).T

    U2 = f.U[:, k:]
    scaled = sigma[k:, None]
    E_stack = -U2 @ (scaled * V12.T)
    F_stack = -U2 @ (scaled * V22.T)
    E_bar = rb.from_real_block_column(E_stack)
    F_bar = rb.from_real_block_column(F_stack)
    pert_norm = float(np.sqrt(np.sum(E_stack ** 2) + np.sum(F_stack ** 2)))

    return TlseRealSolution(
        X=X, E_bar=E_bar, F_bar=F_bar, sigma=sigma, gap=gap,
        v22_condition=v22_cond, residual_perturbation_norm=pert_norm,
        Q2=Q2, U=f.U, V_check=V_check)


def residuals_real(problem: TlseRealProblem,
                   solution: TlseRealSolution) -> tuple[float, float]:
    """Accuracy metrics: ||(A+E)X - (B+F)||_F and ||C X - D||_F."""
    XR = rb.RBMatrix.from_real(solution.X)
    eps1 = rb.frobenius_norm(
        rb.mat_mul(problem.A + solution.E_bar, XR)
        - (problem.B + solution.F_bar))
    eps2 = rb.frobenius_norm(rb.mat_mul(problem.C, XR) - problem.D)
    return eps1, eps2
