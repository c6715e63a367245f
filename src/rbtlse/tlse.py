"""Real- and complex-solution solvers for the equality-constrained total
least squares problem over reduced biquaternion matrices, and the
constrained least squares baseline they are compared against.

Problem: given A (m-by-n), B (m-by-d), C (p-by-n), D (p-by-d), all reduced
biquaternion, find X minimizing ||[E, F]||_F over perturbations
satisfying (A+E) X = B+F and C X = D, with X either real or complex.

Either kind of X transports losslessly to the leading block columns of a
representation, where the same X solves the ordinary equality-constrained
TLS problem on (Ac, Bc, Cc, Dc) and perturbation norms agree:

* real X: the real representation, Ac = [A0;A1;A2;A3] (4m-by-n);
* complex X: the complex representation of the pair A = R1 + R2*j,
  Ac = [R1;R2] (2m-by-n complex).  This path never routes through the
  real representation, so its factorizations are half the size.

The two differ only in that map and its row count q (4 or 2) per matrix
row.  Each public entry point passes rb_core's map, real_block_column or
complex_block_column, looked up when it is called; the map returns
float64 or complex128 stacks for any data, so the stacks' dtype names
the algebra from then on.  The solve is one classical null-space
reduction, written with conjugate transposes (plain transposes on real
stacks), with r = q*p the row count of S:

1. write P = [Ac, Bc] and S = [Cc, Dc], each in one call of the map
   into one new array, and check that Cc, the view S[:, :n], has full
   numerical row rank: all r of its singular values (values only) lie
   above max(r, n) * eps * sigma_1, the one rank rule (_rank) of the
   package, which the condition number applies to S as well, reading
   S's singular values off the triangle of step 2.  This step (_stacks)
   is shared with the baseline below; it refuses r > n, as Cc then has
   at most n nonzero singular values;
2. full QR of S^H; the trailing n+d-r columns Q2 of Q span ker(S)
   (with p = 0, S^H has no columns and Q2 is the identity), and the
   leading r columns Q1 and the triangle R are kept for the condition
   number, which needs nothing else of S;
3. singular values and right singular vectors of P @ Q2, taken from the
   SVD of its small R factor, so the tall left factor U is never formed;
   the d trailing right singular vectors, pushed back through Q2 into
   V_check and partitioned, give X = -V12 @ inv(V22);
4. the norm of the minimizing perturbation is sqrt(sum S2^2), by the
   scale-safe norm of rb_core, so that it neither overflows nor
   underflows.  The perturbation itself is formed only when it is first
   read from the solution: with W2 = P @ V_check[:, n-r:], which equals
   U2 S2, its stacks are -W2 V12^H and -W2 V22^H, read back through the
   inverse map of P's dtype (from_complex_block_column for complex
   stacks, from_real_block_column otherwise).  Callers that read only X
   never pay for it.

Uniqueness needs a strict gap between singular values n-r and n-r+1 of
P @ Q2, strictly positive singular values and an invertible V22; each is
checked against a fixed threshold (_GAP_REL, _COND_MAX below; the V22
check also covers the block W1 that the condition number inverts) and
reported through the error taxonomy rather than patched over.  The QRs
and SVDs are numpy's (LAPACK), called directly.

The baseline, equality-constrained least squares, treats only the
right-hand side as uncertain:

    minimize ||A X - B||_F  subject to  C X = D,

on the same stacks after the same step 1, with the same validation and
LAPACK failure mapping, solved by the classical null-space reduction: a
full QR of Cc^H yields a particular solution from the triangular system
and an orthonormal basis of the admissible variations, and an ordinary
least squares solve fixes the null-space coefficient, which must be
unique: Ac Q2 needs full column rank n - r by the same rank rule, read
off the singular values of the triangle of its reduced QR (Householder
least squares, Golub and Van Loan, Matrix Computations, 5.3), and the
coefficient is then the back substitution with that triangle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import rb_core as rb
from .errors import (AssumptionViolated, BlockNotInvertible,
                     ConditioningUndefined, DegenerateSpectrum,
                     DimensionMismatch, FactorizationFailed,
                     GapConditionFailed, NonFiniteInput)

__all__ = [
    "TlseProblem",
    "TlseSolution",
    "solve_real",
    "solve_complex",
    "residuals_real",
    "residuals_complex",
    "LseSolution",
    "lse_solve_real",
    "lse_solve_complex",
]


# The theory's strict gap sigma[k-1] > sigma[k] holds in exact arithmetic;
# in floating point a gap at or below this fraction of sigma_1 is none.
_GAP_REL = 1e-10
# sigma_min(V22) * _COND_MAX must exceed 1.  W1 and V22, the diagonal
# blocks of the unitary [W1, V12; W2, V22], have 2-norms <= 1 and the same
# sigma_min (CS decomposition), so this one rule bounds the condition
# numbers of both inverted blocks (V22 here, W1 in kappa) by _COND_MAX.
_COND_MAX = 1e12


def _rank(sv: np.ndarray, shape: tuple[int, ...]) -> int:
    """Numerical rank of a matrix of ``shape`` from its nonincreasing
    singular values ``sv``: the number above max(r, c) * eps * sigma_1,
    the standard convention."""
    if sv.size == 0:
        return 0
    return int(np.sum(sv > max(shape) * np.finfo(np.float64).eps * sv[0]))


def _lapack_failures(body: Callable) -> Callable:
    """Re-raise a LinAlgError from ``body`` (a QR, SVD or solve call that
    failed) as FactorizationFailed."""

    @functools.wraps(body)
    def guarded(*args, **kwargs):
        try:
            return body(*args, **kwargs)
        except np.linalg.LinAlgError as exc:
            raise FactorizationFailed(
                f"linear algebra failure while solving: {exc}") from exc

    return guarded


@dataclass(frozen=True)
class TlseProblem:
    """Data (A, B, C, D) for either algebra: the solver called picks it.

    A is m-by-n, B m-by-d, C p-by-n, D p-by-d with n, d >= 1 and every
    entry finite (else DimensionMismatch or NonFiniteInput).  p = 0 is
    accepted; the solve then runs unchanged with an identity null-space
    basis, which makes it an unconstrained total least squares solve.
    """

    A: rb.RBMatrix
    B: rb.RBMatrix
    C: rb.RBMatrix
    D: rb.RBMatrix

    def __post_init__(self):
        m, n, p, d = self.sizes
        if self.B.rows != m:
            raise DimensionMismatch(f"A has {m} rows but B has {self.B.rows}")
        if self.C.cols != n:
            raise DimensionMismatch(f"A has {n} cols but C has {self.C.cols}")
        if self.D.shape != (p, d):
            raise DimensionMismatch(
                f"D shape {self.D.shape} incompatible with C/B ({p}, {d})")
        if n == 0 or d == 0:
            raise DimensionMismatch(
                f"empty problem: n = {n}, d = {d}; both must be >= 1")
        for name, M in zip("ABCD", (self.A, self.B, self.C, self.D)):
            if not rb._is_finite(M):
                raise NonFiniteInput(f"{name} holds nan or inf")

    @property
    def sizes(self) -> tuple[int, int, int, int]:
        """(m, n, p, d)."""
        return (self.A.rows, self.A.cols, self.C.rows, self.B.cols)

    @functools.cached_property
    def data_norm(self) -> float:
        """||[J, K]||_F, J = [C; A], K = [D; B], scale-safe; the stacked
        layout, one (p+m)-by-(n+d) array per component, fixes the rounding
        of the sum.  The four blocks are written into one (4, p+m, n+d)
        array, the one np.block([[C, D], [A, B]]) of the component arrays
        would build.  Computed on first read and kept, as the data is
        read-only."""
        m, n, p, d = self.sizes
        stacked = np.empty((4, p + m, n + d))
        stacked[:, :p, :n] = self.C.components
        stacked[:, :p, n:] = self.D.components
        stacked[:, p:, :n] = self.A.components
        stacked[:, p:, n:] = self.B.components
        return rb._norm(*stacked)


@dataclass(frozen=True, eq=False)
class TlseSolution:
    """Solution of a real- or complex-solution solve.

    X is the n-by-d solution (real or complex); E_bar and F_bar the
    minimizing perturbations of A and B, and residual_perturbation_norm
    their Frobenius norm, sqrt(sum(sigma[n-r:]**2)).  sigma holds all
    n-r+d singular values of the reduced matrix, gap the uniqueness margin
    sigma[n-r-1] - sigma[n-r], and v22_condition the 2-norm condition
    number of the inverted trailing block.  The stack P = [Ac, Bc] and
    the right singular vectors V_check retain the data and the
    factorization for the conditioning module, which reuses them instead
    of rebuilding or refactoring; the left singular vectors are not kept
    (P @ V_check gives them scaled by sigma).  Of the constraint stack
    S = [Cc, Dc] (r rows) only the leading factors of the complete QR of
    S^H that gave the null space are kept, Q1 ((n+d)-by-r) and the
    triangle R (r-by-r), S^H = Q1 R: the conditioning module forms S^+ =
    Q1 R^-H and reads the singular values of S off R.  P, V_check, Q1
    and R are read-only.  problem is the TlseProblem solved,
    kept by reference, not copied, so the conditioning module reads its
    sizes from the solution.

    E_bar and F_bar are formed on first read, from P and V_check, read
    back through the inverse block-column map that P's dtype selects,
    and then kept; a caller that reads only X, sigma or the conditioning
    never forms them.  A solution holds arrays, floats and its problem
    only, and is compared and hashed by identity, as its fields are
    arrays.
    """

    X: np.ndarray
    sigma: np.ndarray
    gap: float
    v22_condition: float
    residual_perturbation_norm: float
    P: np.ndarray = field(repr=False)
    V_check: np.ndarray = field(repr=False)
    Q1: np.ndarray = field(repr=False)
    R: np.ndarray = field(repr=False)
    problem: TlseProblem = field(repr=False)

    @functools.cached_property
    def _correction(self) -> tuple[rb.RBMatrix, rb.RBMatrix]:
        n, d = self.X.shape
        V2 = self.V_check[:, -d:]
        W2 = self.P @ V2
        from_column = (rb.from_complex_block_column
                       if np.iscomplexobj(self.P)
                       else rb.from_real_block_column)
        return (from_column(-W2 @ V2[:n].conj().T),
                from_column(-W2 @ V2[n:].conj().T))

    @property
    def E_bar(self) -> rb.RBMatrix:
        """Minimizing perturbation of A, formed on first read."""
        return self._correction[0]

    @property
    def F_bar(self) -> rb.RBMatrix:
        """Minimizing perturbation of B, formed on first read."""
        return self._correction[1]


def _stacks(problem: TlseProblem,
            column: Callable) -> tuple[np.ndarray, np.ndarray]:
    """The stacks P = [Ac, Bc] and S = [Cc, Dc] of ``problem``, one call
    of the block-column map ``column`` each, once Cc, the view S[:, :n],
    has passed the rank rule: numerical full row rank, from its singular
    values alone.  A failure is an error, never a silent regularization."""
    P = column(problem.A, problem.B)
    S = column(problem.C, problem.D)
    Cc = S[:, :problem.A.cols]
    r, n = Cc.shape
    rank = _rank(np.linalg.svd(Cc, compute_uv=False), Cc.shape)
    if rank < r:
        raise AssumptionViolated(
            f"constraint block column ({r} x {n}) has numerical rank "
            f"{rank}, needs full row rank {r}")
    return P, S


@_lapack_failures
def _solve(problem: TlseProblem, column: Callable) -> TlseSolution:
    n, d = problem.A.cols, problem.B.cols
    P, S = _stacks(problem, column)
    r = S.shape[0]
    # the reduced matrix P @ Q2 (n+d-r cols) must be tall for the
    # trailing singular subspace to have dimension d
    if P.shape[0] < n + d - r:
        raise AssumptionViolated(
            f"not enough rows: P has {P.shape[0]}, fewer than "
            f"n+d-r = {n + d - r}")
    Q, R = np.linalg.qr(S.conj().T, mode="complete")
    Q1, R, Q2 = Q[:, :r], R[:r], Q[:, r:]
    # P @ Q2 shares singular values and right singular vectors with the
    # small triangle of its own QR, so the tall left factor is never formed
    _, sigma, Vh = np.linalg.svd(np.linalg.qr(P @ Q2, mode="r"),
                                 full_matrices=False)
    V_check = Q2 @ Vh.conj().T

    k = n - r
    if sigma[-1] <= 0.0:
        raise DegenerateSpectrum(
            f"smallest retained singular value {sigma[-1]:.3e} is not "
            f"strictly positive")
    gap = np.inf if k == 0 else float(sigma[k - 1] - sigma[k])
    if k > 0 and gap <= _GAP_REL * sigma[0]:
        raise GapConditionFailed(
            f"singular value gap {gap:.3e} at position {k} is not above "
            f"{_GAP_REL:.0e} * sigma_1; the solution is not unique")

    V12, V22 = V_check[:n, k:], V_check[n:, k:]
    sv = np.linalg.svd(V22, compute_uv=False)
    v22_cond = np.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])
    if not sv[-1] * _COND_MAX > 1.0:
        raise BlockNotInvertible(
            f"trailing block V22 smallest singular value {sv[-1]:.3e} is "
            f"not above 1/{_COND_MAX:.0e}")

    X = -np.linalg.solve(V22.T, V12.T).T

    # the deferred correction and the conditioning read these after the
    # solve returns
    for kept in (P, V_check, Q1, R):
        kept.setflags(write=False)
    return TlseSolution(
        X=X, sigma=sigma, gap=gap, v22_condition=v22_cond,
        residual_perturbation_norm=rb._norm(sigma[k:]),
        P=P, V_check=V_check, Q1=Q1, R=R, problem=problem)


def solve_real(problem: TlseProblem) -> TlseSolution:
    """Solve for the unique real X over the 4m-row real stacks; see the
    module docstring for the steps.

    Raises AssumptionViolated, GapConditionFailed, BlockNotInvertible or
    DegenerateSpectrum when the data leaves the theory's premises, and
    FactorizationFailed when a LAPACK call fails.
    """
    return _solve(problem, rb.real_block_column)


def solve_complex(problem: TlseProblem) -> TlseSolution:
    """Solve for the unique complex X over the 2m-row complex stacks;
    errors as in :func:`solve_real`."""
    return _solve(problem, rb.complex_block_column)


def _own_problem(problem: TlseProblem, solution: TlseSolution) -> None:
    """Refuse a ``problem`` that is not the one ``solution`` solves: other
    sizes, or other data unless it is that very object."""
    if problem.sizes != solution.problem.sizes:
        raise DimensionMismatch(
            f"problem sizes (m, n, p, d) = {problem.sizes} do not match "
            f"the solution's {solution.problem.sizes}")
    if problem is not solution.problem and problem != solution.problem:
        raise ConditioningUndefined(
            "problem data differ from the data the solution solves")


def residuals_real(problem: TlseProblem,
                   solution: TlseSolution) -> tuple[float, float]:
    """Accuracy metrics ||(A+E)X - (B+F)||_F and ||C X - D||_F of the
    problem ``solution`` solves (another is refused, as by condition_*),
    for a real or a complex X (a real X embeds as from_real embeds it)."""
    _own_problem(problem, solution)
    XR = rb.RBMatrix.from_complex(solution.X)
    eps1 = rb.frobenius_norm(
        rb.mat_mul(problem.A + solution.E_bar, XR)
        - (problem.B + solution.F_bar))
    eps2 = rb.frobenius_norm(rb.mat_mul(problem.C, XR) - problem.D)
    return eps1, eps2


residuals_complex = residuals_real


@dataclass(frozen=True, eq=False)
class LseSolution:
    """Constrained least squares solution X; compared and hashed by
    identity, as X is an array."""

    X: np.ndarray


@_lapack_failures
def _lse(problem: TlseProblem, column: Callable) -> LseSolution:
    n = problem.A.cols
    P, S = _stacks(problem, column)
    Ac, Bc, Cc, Dc = P[:, :n], P[:, n:], S[:, :n], S[:, n:]
    r = S.shape[0]
    Q, R = np.linalg.qr(Cc.conj().T, mode="complete")
    Q1, Q2 = Q[:, :r], Q[:, r:]
    # Cc = [R^H 0] Q^H, so Cc X = Dc becomes R^H (Q1^H X) = Dc; with
    # r = 0, Q2 is the identity and X0 is zero
    X0 = Q1 @ np.linalg.solve(R[:r].conj().T, Dc)
    M = Ac @ Q2
    # M = Qm Rm shares its singular values with the small triangle Rm, so
    # the rank rule reads those; an accepted Rm is a nonsingular upper
    # triangle, and the solve with it is back substitution
    Qm, Rm = np.linalg.qr(M)
    rank = _rank(np.linalg.svd(Rm, compute_uv=False), M.shape)
    if rank < n - r:
        raise AssumptionViolated(
            f"Ac Q2 ({M.shape[0]} x {n - r}) has numerical rank {rank} < "
            f"{n - r}; the least squares solution is not unique")
    Z = np.linalg.solve(Rm, Qm.conj().T @ (Bc - Ac @ X0))
    return LseSolution(X=X0 + Q2 @ Z)


def lse_solve_real(A: rb.RBMatrix, B: rb.RBMatrix, C: rb.RBMatrix,
                   D: rb.RBMatrix) -> LseSolution:
    """Real-solution constrained least squares; with p = 0 the same
    reduction is plain least squares.  The blocks are validated as a
    TlseProblem, and errors are those of the total least squares
    solver."""
    return _lse(TlseProblem(A, B, C, D), rb.real_block_column)


def lse_solve_complex(A: rb.RBMatrix, B: rb.RBMatrix, C: rb.RBMatrix,
                      D: rb.RBMatrix) -> LseSolution:
    """Complex-solution variant over the complex-pair stacks."""
    return _lse(TlseProblem(A, B, C, D), rb.complex_block_column)
