"""Condition numbers of the solutions of both solvers.

The solution map is conditioned with respect to unstructured perturbations
of the stacked data [J, K], J = [C; A], K = [D; B], measured relative to
||[J, K]||_F.  Norms of reduced biquaternion matrices equal norms of their
leading block columns, so the analysis runs entirely on the representation
stacks the solvers already factorized.

The condition number is kappa = ||H G Z||_2 * ||[J, K]||_F / ||X||_F built
from three structured factors (shapes, with q the stacked row count of the
representation, 4p+4m real / 2p+2m complex):

    H  (nd x nd)        inverse-transpose Kronecker block times the
                        commutation matrix,
    G  (nd x 2nd)       diagonal resolvent D^-1 times two diagonal
                        Kronecker blocks,
    Z  (2nd x (n*q+nd)) block diagonal of a projected representation map
                        and a triangular coupling block T2.

The product has only nd rows, so its 2-norm is exact as the square root of
the largest eigenvalue of the nd x nd Gram matrix

    (HGZ)(HGZ)^H = H D^-1 [diag(mask) (x) conj(S2^2 + Y^H Y)
                           + (S T2)(S T2)^H (x) I_d] D^-1 H^H,

with (x) the Kronecker product, conj the entrywise conjugate (the
transpose of the Hermitian S2^2 + Y^H Y), S2 and S the diagonal singular
value factors, and Y = (P S^+)^H P V2 (r x d).  Every left singular vector
enters scaled by its singular value, and P V_check = U diag(sigma), so
the formulas read P V_check instead: P V2 (V2 the d trailing right
singular vectors) stands for U2 S2 in Y, and P V1 (the leading n-r) for
U1 S1 in the lower-left block -(P V1)^H (P S^+) Us of S T2, with
S = Us Ss Vs^H.  The solve never forms U, and the trailing singular
values, ~1e-15 on consistent data, are never divided by.

No singular vector of S is taken.  The quantities indexed by the r
constrained columns (the leading r columns Vs of W1 below, (P S^+) Us =
P Vs Ss^-1, the diagonal Ss of the leading rows of S T2 and the entries
Ss^2 of D) enter the Gram matrix only in pairs contracted over r,
through Vs Ss^-2 Vs^H = S^+ (S^+)^H.  So the formulas put S^+ in place of
Vs Ss^-1 and 1 in place of Ss, and give the same Gram matrix.  S^+ =
Q1 R^-H comes from one solve with the factors of the complete QR S^H =
Q1 R that the solve already took for the null space.  Y and the
lower-left block of S T2, now -(P V1)^H P S^+, are the trailing d and
(negated) leading n-r rows of one product, (P V_check)^H P S^+.  S must
have numerical rank r by the solver's rank rule, checked from its
singular values alone; the solve checked only Cc, and although
sigma_i(S) >= sigma_i(Cc), the threshold for S scales with sigma_1(S).
The singular values are those of the r x r triangle R, as S = R^H Q1^H
with Q1 orthonormal (unitary invariance; Golub and Van Loan, Matrix
Computations, 2.5 and 5.2), so S itself is neither kept nor factored
again.

H is (V22^-T (x) W1^-H) times the commutation matrix, so the Gram
matrix is assembled block by block, one n x n block per pair of
right-hand sides (see _gram): the (S T2)(S T2)^H (x) I_d part
gives one product F_i F_i^H per right-hand side i, F_i = W1^-H D_i^-1
S T2 with D_i the part of D at i, and the masked part, diagonal in the
columns, gives in each block the unconstrained columns of W1^-H times
their conjugate transpose, weighted column by column.  No Kronecker product,
no nd x nd middle matrix and not the tall projection Q = [-(P S^+)^H; I]
is ever formed.  W1^-H = W1 + X W2, the Schur complement of V22 in the
unitary [W1, V12; W2, V22] (with the leading r columns rescaled as
above), and V22^-T (a plain transpose, also for complex data) are formed
once; W1 is not factored: the solve's check of V22 covers it.
||[J, K]||_F is the problem's cached data norm.  The Gram matrix is that
of the data scaled by a power of two, which kappa does not see: _gram
scales R, sigma and its two products with P, never a copy of the
solution or of P.  Real data uses the same code path as complex: every
conjugate transpose degrades to a plain transpose on reals, and every
conjugate to a no-op, which is exactly the real variant of the formulas.

kappa is returned finite and positive, or ConditioningUndefined is raised.
Callers form the first-order bound U = kappa * eps_n themselves, with
eps_n = ||[dJ, dK]||_F / ||[J, K]||_F from :func:`epsilon_n`; it holds
asymptotically as eps_n -> 0 and is verified in the tests with slack 1.05
at finite eps_n <= 1e-5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningUndefined, DimensionMismatch
from .tlse import TlseProblem, TlseSolution, _own_problem, _rank

__all__ = [
    "PerturbationInstance",
    "ConditionReport",
    "condition_real",
    "condition_complex",
    "epsilon_n",
    "scaled_to",
]


@dataclass(frozen=True)
class PerturbationInstance:
    """A base problem and a perturbation of all four of its blocks.

    ``delta`` holds the perturbations dA, dB, dC, dD as the blocks of a
    TlseProblem, which checks them like any data (a non-finite one raises
    NonFiniteInput when it is built); its sizes must be the base
    problem's, else DimensionMismatch.
    """

    problem: TlseProblem
    delta: TlseProblem

    def __post_init__(self):
        if self.delta.sizes != self.problem.sizes:
            raise DimensionMismatch(
                f"delta sizes (m, n, p, d) = {self.delta.sizes} != base "
                f"{self.problem.sizes}")

    def perturbed(self) -> TlseProblem:
        """The perturbed data as a TlseProblem, for either solver."""
        pr, dl = self.problem, self.delta
        return TlseProblem(A=pr.A + dl.A, B=pr.B + dl.B,
                           C=pr.C + dl.C, D=pr.D + dl.D)


def epsilon_n(instance: PerturbationInstance) -> float:
    """Relative perturbation size ||[dJ, dK]||_F / ||[J, K]||_F, with
    J = [C; A], K = [D; B] and dJ, dK alike: the ratio of the cached,
    scale-safe data norms of the delta and the base problem.

    The ratio is identical whether evaluated on the matrices themselves or
    on their leading block columns; this computes it directly.  An
    all-zero base problem raises ConditioningUndefined.
    """
    den = instance.problem.data_norm
    if den == 0.0:
        raise ConditioningUndefined(
            "perturbation size undefined: ||[J, K]||_F = 0")
    return instance.delta.data_norm / den


def scaled_to(instance: PerturbationInstance,
              eps_target: float) -> PerturbationInstance:
    """Rescale all four deltas so that epsilon_n hits ``eps_target``; a
    target that is not a finite number >= 0, or an all-zero direction,
    raises ConditioningUndefined."""
    if not (np.isfinite(eps_target) and eps_target >= 0.0):
        raise ConditioningUndefined(
            f"eps_target must be finite and >= 0, got {eps_target!r}")
    current = epsilon_n(instance)
    if current == 0.0:
        raise ConditioningUndefined("cannot rescale an all-zero perturbation")
    f = eps_target / current
    dl = instance.delta
    return PerturbationInstance(instance.problem, TlseProblem(
        dl.A * f, dl.B * f, dl.C * f, dl.D * f))


@dataclass(frozen=True)
class ConditionReport:
    """The relative normwise condition number of one solution."""

    kappa: float


def _gram(solution: TlseSolution, f: float) -> np.ndarray:
    """(H G Z)(H G Z)^H, an nd-by-nd Hermitian matrix, block by block,
    from the stacks and factors ``solution`` keeps, reparameterised by S^+,
    for the data scaled by the power of two ``f``.

    Of what ``solution`` keeps, P, R and sigma scale with the data: the
    small R and sigma are scaled here, and f is applied to the two
    products formed with P, so the data-sized P is read in place.

    The local names are those of the formulas: sig1 and sig2 are the
    leading n-r and trailing d singular values of the solve, cross the
    lower-left block -(P V1)^H P S^+ of S T2, YH = (P V2)^H P S^+ = Y^H,
    and denom the diagonal of D at the unconstrained columns.

    G Z Z^H G^H = D^-1 M D^-1 with M = (S T2)(S T2)^H (x) I_d +
    diag(mask) (x) conj(S2^2 + Y^H Y), mask selecting the n-r
    unconstrained columns, and H = (V (x) W) times a commutation
    matrix, V = V22^-T and W = W1^-H.  In H's output order, rows
    (a, j) with a < d and j < n, the Gram matrix has d x d blocks of
    size n x n:

        block (a, b) = sum_i V[a, i] conj(V[b, i]) F_i F_i^H
                       + Wf diag(E_ab) Wf^H,

    with F_i = W D_i^-1 S T2, D_i the diagonal of D at right-hand
    side i (1 on the constrained columns), S T2 = [I, 0; cross,
    diag(sig1)], Wf the unconstrained columns of W, and E_ab[j] the
    entry (a, b) of V E_j V^H, E_j = conj(S2^2 + Y^H Y) scaled on
    both sides by the d entries of D^-1 at unconstrained column j.

    Raises ConditioningUndefined when S, whose singular values are read
    off R, has numerical rank below r.
    """
    P, V_check, X = solution.P, solution.V_check, solution.X
    R, sigma = f * solution.R, f * solution.sigma
    r = R.shape[0]
    n, d = X.shape
    k = n - r
    sig1, sig2 = sigma[:k], sigma[k:]

    # S (r x (n+d)) shares its singular values with the triangle R of
    # S^H = Q1 R
    rank = _rank(np.linalg.svd(R, compute_uv=False), (r, n + d))
    if rank < r:
        raise ConditioningUndefined(
            f"constraint stack rank {rank} < {r}; its pseudoinverse "
            f"is unusable")
    # S^+ = Q1 R^-H from the solve's complete QR of S^H = Q1 R
    S_pinv = np.linalg.solve(R, solution.Q1.conj().T).conj().T
    # (P V_check)^H P S^+ stacks -cross over YH, so both need only
    # one product with P; P V_check = U diag(sigma)
    PV = f * (P @ V_check)
    stacked = f * (PV.conj().T @ P) @ S_pinv
    cross, YH = -stacked[:k], stacked[k:]

    # W1^-H = W1 + X W2, the Schur complement of V22 in the unitary
    # [W, V_check], W = [Vs, V1], with Vs replaced by S^+ (see the
    # module docstring); W becomes W1^-H, and V is V22^-T
    W = np.hstack([S_pinv, V_check[:, :k]])
    W = W[:n] + X @ W[n:]
    V = np.linalg.inv(V_check[n:, k:].T)

    # D at the unconstrained columns j (rows) and right-hand sides i
    # (columns); at the constrained columns it is 1 (module docstring).
    # The solve's gap rule keeps it positive: sig1[k-1] - sig2[0] >
    # _GAP_REL * sigma_1 holds after the scaling by f as well
    denom = sig1[:, None] ** 2 - sig2 ** 2

    Wf = W[:, r:]
    WfD = Wf / denom.T[:, None, :]
    F = np.empty((d, n, n), dtype=np.result_type(W, cross))
    F[:, :, :r] = W[:, :r] + WfD @ cross
    F[:, :, r:] = WfD * sig1
    C = F @ F.conj().transpose(0, 2, 1)
    inner = np.diag(sig2 ** 2) + YH @ YH.conj().T
    # two divisions, not one by their product, which overflows or
    # underflows for data scaled by 1e+-80 and beyond
    E = inner.conj() / denom[:, :, None] / denom[:, None, :]
    E = V @ E @ V.conj().T
    blocks = ((E.transpose(1, 2, 0)[:, :, None, :] * Wf)
              .reshape(d * d * n, n - r) @ Wf.conj().T)
    blocks = blocks.reshape(d * d, n * n)
    # VV[(a, b), i] = V[a, i] conj(V[b, i])
    VV = (V[:, None, :] * V.conj()).reshape(d * d, d)
    blocks += VV @ C.reshape(d, n * n)
    return (blocks.reshape(d, d, n, n).transpose(0, 2, 1, 3)
            .reshape(n * d, n * d))


def condition_real(problem: TlseProblem,
                   solution: TlseSolution) -> ConditionReport:
    """Relative normwise condition number of a real or complex solution.

    Works from the stacks and factors retained on ``solution``.  Of
    ``problem``, the data ``solution`` solves, it reads the cached
    ||[J, K]||_F that kappa is relative to.  Its sizes must be those of
    ``solution.problem`` (else DimensionMismatch), and so must its data,
    unless it is that very object (else ConditioningUndefined).  kappa
    comes from the largest eigenvalue of the Gram matrix, which eigvalsh
    reads from one triangle, formed by _gram with its products scaled by
    the power of two that brings sigma_1 into [1/2, 1), so the data's own
    scale never overflows it; no scaled copy of the solution is made.
    kappa is returned finite and positive, else ConditioningUndefined is
    raised, as it is for X = 0, for a LAPACK failure, for a floating-point
    overflow, division by zero or invalid operation while forming the
    Gram matrix (blocks scaled far apart, or kappa itself near the
    floating-point range, where the solve still succeeds), and for a
    MemoryError while forming or reading the Gram matrix (where the
    operating system lets the allocation fail; Linux may kill the process
    instead).
    """
    _own_problem(problem, solution)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            # kappa is unchanged by a joint scaling of the data, and the
            # power of two f = 2^-e, sigma_1 = g * 2^e with 1/2 <= g < 1,
            # scales exactly unless an entry becomes subnormal
            f = np.ldexp(1.0, -np.frexp(solution.sigma[0])[1])
            gram = _gram(solution, f)
        x_norm = float(np.linalg.norm(solution.X))
        if x_norm == 0.0:
            raise ConditioningUndefined(
                "relative condition number undefined for X = 0")
        lam = np.linalg.eigvalsh(gram)[-1]
        kappa = (float(np.sqrt(max(lam, 0.0))) * (f * problem.data_norm)
                 / x_norm)
        if not (np.isfinite(kappa) and kappa > 0.0):
            raise ConditioningUndefined(
                f"condition number {kappa!r} is not finite and positive")
    except np.linalg.LinAlgError as exc:
        raise ConditioningUndefined(
            f"linear algebra failure while conditioning: {exc}") from exc
    except FloatingPointError as exc:
        raise ConditioningUndefined(
            "the Gram matrix is out of floating-point range at data scale "
            f"||[J, K]||_F = {problem.data_norm:.3g}: {exc}") from exc
    except MemoryError as exc:
        raise ConditioningUndefined(
            f"out of memory while conditioning: {exc!r}") from exc
    return ConditionReport(kappa=kappa)


condition_complex = condition_real
