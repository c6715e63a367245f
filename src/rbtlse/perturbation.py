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
U1 S1 in the lower-left block -(P V1)^H (P S^+) Us of S T2.  The solve
never forms U, and the trailing singular values, ~1e-15 on consistent
data, are never divided by.  With S = Us Ss Vs^H (numpy's thin SVD of
the r-row constraint stack), (P S^+) Us = P Vs / Ss comes from the same
product as P V_check, and P S^+ itself is not needed: Y enters only as
Y^H Y, which Us^H Y leaves unchanged.  S must have numerical rank r by
the solver's rank rule; the solve checked only Cc, and although
sigma_i(S) >= sigma_i(Cc), the threshold for S scales with sigma_1(S).

The bracketed middle matrix is filled by its block pattern and H is
applied by multiplication with two small inverses formed once: W1^-H =
W1 + X W2, the Schur complement of V22 in the unitary [W1, V12; W2, V22],
and V22^-T (a plain transpose, also for complex data).  W1 is not
factored: the solve's check of V22 covers it.  Neither a Kronecker
product nor the tall projection Q = [-(P S^+)^H; I] is ever formed.  Real
data uses the same code path as complex: every conjugate transpose
degrades to a plain transpose on reals, and every conjugate to a no-op,
which is exactly the real variant of the formulas.

kappa is returned finite and positive, or ConditioningUndefined is raised.
Callers form the first-order bound U = kappa * eps_n themselves, with
eps_n = ||[dJ, dK]||_F / ||[J, K]||_F from :func:`epsilon_n`; it holds
asymptotically as eps_n -> 0 and is verified in the tests with slack 1.05
at finite eps_n <= 1e-5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rb_core as rb
from .errors import ConditioningUndefined, DimensionMismatch
from .tlse import TlseProblem, TlseSolution, _rank

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
    """A base problem together with perturbations of all four blocks."""

    problem: TlseProblem
    dA: rb.RBMatrix
    dB: rb.RBMatrix
    dC: rb.RBMatrix
    dD: rb.RBMatrix

    def __post_init__(self):
        pairs = [("dA", self.dA, self.problem.A), ("dB", self.dB, self.problem.B),
                 ("dC", self.dC, self.problem.C), ("dD", self.dD, self.problem.D)]
        for name, delta, base in pairs:
            if delta.shape != base.shape:
                raise DimensionMismatch(
                    f"{name} shape {delta.shape} != base {base.shape}")

    def perturbed(self) -> TlseProblem:
        """The perturbed data as a TlseProblem, for either solver."""
        pr = self.problem
        return TlseProblem(A=pr.A + self.dA, B=pr.B + self.dB,
                           C=pr.C + self.dC, D=pr.D + self.dD)


def epsilon_n(instance: PerturbationInstance) -> float:
    """Relative perturbation size ||[dJ, dK]||_F / ||[J, K]||_F, with
    J = [C; A], K = [D; B] and dJ, dK alike; both norms are scale-safe.

    The ratio is identical whether evaluated on the matrices themselves or
    on their leading block columns; this computes it directly.
    """
    den = instance.problem.data_norm
    if den == 0.0:
        raise ValueError("perturbation size undefined: ||[J, K]||_F = 0")
    return TlseProblem(instance.dA, instance.dB, instance.dC,
                       instance.dD).data_norm / den


def scaled_to(instance: PerturbationInstance,
              eps_target: float) -> PerturbationInstance:
    """Rescale all four deltas so that epsilon_n hits ``eps_target``."""
    current = epsilon_n(instance)
    if current == 0.0:
        raise ValueError("cannot rescale an all-zero perturbation")
    f = eps_target / current
    return PerturbationInstance(
        problem=instance.problem, dA=instance.dA * f, dB=instance.dB * f,
        dC=instance.dC * f, dD=instance.dD * f)


@dataclass(frozen=True)
class ConditionReport:
    """The relative normwise condition number of one solution."""

    kappa: float


# ---------------------------------------------------------------------------
# The exact Gram route shared by the real and complex paths.
# ---------------------------------------------------------------------------

class _Pieces:
    """The small factors H G Z is built from, plus the norms kappa scales by.

    Attributes keep the names of the formulas: PV2 = P V2 (= U2 S2) and
    sig2 belong to the trailing singular triples of the solve, PSU =
    (P S^+) Us, S_diag is the diagonal of S, mask the 0/1 diagonal
    selecting the unconstrained columns, denom the diagonal of D, and ST2
    the triangular coupling block T2 with its rows scaled by S_diag.
    """

    def __init__(self, solution: TlseSolution):
        P, S, sigma, V_check, X = (
            solution.P, solution.S, solution.sigma, solution.V_check,
            solution.X)
        r = S.shape[0]
        n, d = X.shape
        k = n - r
        self.n, self.d = n, d
        self.sig2 = sigma[k:]

        _, Ss, Vsh = np.linalg.svd(S, full_matrices=False)
        rank = _rank(Ss, S.shape)
        if rank < r:
            raise ConditioningUndefined(
                f"constraint stack rank {rank} < {r}; "
                f"its SVD factors are unusable")
        Vs = Vsh.conj().T
        # one product gives P Vs / Ss = (P S^+) Us and
        # P V_check = U diag(sigma), the left singular vectors scaled
        PV = P @ np.hstack([Vs / Ss, V_check])
        self.PSU, PV1, self.PV2 = PV[:, :r], PV[:, r:n], PV[:, n:]

        self.S_diag = np.concatenate([Ss, sigma[:k]])
        W = np.hstack([Vs, V_check[:, :k]])
        self.W1, self.V22 = W[:n, :], V_check[n:, k:]
        # W1^-H, the Schur complement of V22 in the unitary [W, V_check]
        self.W1_inv_h = self.W1 + X @ W[n:, :]
        self.V22_inv_t = np.linalg.inv(self.V22.T)

        self.mask = np.concatenate([np.zeros(r), np.ones(k)])
        # D in vec order: entry j*d + i belongs to column j, row i
        self.denom = (self.S_diag[:, None] ** 2
                      - self.mask[:, None] * self.sig2[None, :] ** 2).ravel()
        if np.any(self.denom <= 0.0):
            raise ConditioningUndefined(
                "diagonal resolvent in G is singular; gap condition "
                "violated at conditioning time")

        # S1 times the lower-left block -U1^H (P S^+) Us of T2
        cross = -PV1.conj().T @ self.PSU
        self.ST2 = np.block([
            [np.diag(Ss), np.zeros((r, k))],
            [cross, np.diag(sigma[:k])]])

        self.x_norm = float(np.linalg.norm(X))
        if self.x_norm == 0.0:
            raise ConditioningUndefined(
                "relative condition number undefined for X = 0")
        # ||[J, K]||_F equals the norm of the representation stacks
        self.jk_norm = rb._norm(P, S)

    def apply_H(self, M: np.ndarray) -> np.ndarray:
        """H @ M for nd-by-N M, by multiplication only: each column, read
        row by row as an n-by-d matrix Mc, becomes V22^-T (W1^-H Mc)^T,
        read back row by row.  W1^-H and V22^-T are formed once in
        ``__init__``."""
        n, d = self.n, self.d
        N = M.shape[1]
        step = self.W1_inv_h @ M.reshape(n, d * N)
        step = step.reshape(n, d, N).transpose(1, 0, 2).reshape(d, n * N)
        return (self.V22_inv_t @ step).reshape(n * d, N)

    def gram(self) -> np.ndarray:
        """(H G Z)(H G Z)^H, an nd-by-nd Hermitian matrix.

        G Z Z^H G^H is D^-1 times a block matrix with blocks
        diag(mask) (x) conj(S2^2 + Y^H Y), Y = (P S^+)^H PV2, and
        (S T2)(S T2)^H (x) I_d, times D^-1.  Y enters only through
        Y^H Y, and Us is unitary, so Us^H Y = PSU^H PV2 stands in for Y.
        The middle matrix is filled by its block pattern, then H is
        applied on both sides.
        """
        n, d = self.n, self.d
        Y = self.PSU.conj().T @ self.PV2
        inner = np.diag(self.sig2 ** 2) + Y.conj().T @ Y
        outer = self.ST2 @ self.ST2.conj().T
        mid = np.zeros((n, d, n, d), dtype=np.result_type(inner, outer))
        cols, rows = np.arange(n), np.arange(d)
        mid[cols, :, cols, :] = self.mask[:, None, None] * inner.conj()
        mid[:, rows, :, rows] += outer
        # two divisions, not one by outer(denom, denom), which overflows
        # or underflows for data scaled by 1e+-80 and beyond
        mid = mid.reshape(n * d, n * d) / self.denom[:, None] / self.denom
        # mid is Hermitian, so H (H mid)^H = H mid H^H
        return self.apply_H(self.apply_H(mid).conj().T)

    def kappa(self) -> float:
        gram = self.gram()
        lam = np.linalg.eigvalsh((gram + gram.conj().T) / 2)[-1]
        kappa = float(np.sqrt(max(lam, 0.0))) * self.jk_norm / self.x_norm
        if not (np.isfinite(kappa) and kappa > 0.0):
            raise ConditioningUndefined(
                f"condition number {kappa!r} is not finite and positive")
        return kappa


def condition_real(problem: TlseProblem,
                   solution: TlseSolution) -> ConditionReport:
    """Relative normwise condition number of a real or complex solution.

    Works from the stacks and SVD blocks retained on ``solution`` alone;
    ``problem`` (the data ``solution`` solves) is not read.
    """
    try:
        kappa = _Pieces(solution).kappa()
    except np.linalg.LinAlgError as exc:
        raise ConditioningUndefined(
            f"linear algebra failure while conditioning: {exc}") from exc
    return ConditionReport(kappa=kappa)


condition_complex = condition_real
