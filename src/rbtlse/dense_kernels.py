"""Dense factorization and product kernels used by the solvers.

Thin wrappers over LAPACK (via numpy) for QR and SVD, a values-only
numerical rank, singular values and right singular vectors of a tall
matrix taken from its R factor, plus the small utilities the conditioning
formulas and their tests need: Moore-Penrose pseudoinverse, the
commutation matrix, column-major vec/unvec, and a spectral norm with both
a dense and a matrix-free power iteration path.

All kernels accept real or complex input; complex matrices are handled
natively (conjugate transposes throughout), never through a real embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SpectralNormDidNotConverge

__all__ = [
    "QrFactors",
    "SvdFactors",
    "qr_full",
    "svd_thin",
    "svd_skinny",
    "svd_right",
    "numerical_rank",
    "pinv",
    "commutation_matrix",
    "vec",
    "unvec",
    "spectral_norm",
    "spectral_norm_power",
]


@dataclass(frozen=True)
class QrFactors:
    """Full QR: Q is square orthogonal/unitary, R is min(r,c)-by-c upper
    triangular, and Q @ [R; 0] rebuilds the input."""

    Q: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class SvdFactors:
    """SVD triple with column-orthonormal U (r-by-k), singular values S
    (length k, nonincreasing), and column-orthonormal V (c-by-k), so the
    input is U @ diag(S) @ V^H."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def qr_full(M: np.ndarray) -> QrFactors:
    """Householder QR retaining the complete orthogonal factor.

    The trailing r - c columns of Q span the orthogonal complement of the
    column space (for full-rank tall input); the solvers consume exactly
    those null-space columns, so a thin QR would not do.
    """
    M = np.asarray(M)
    q, r = np.linalg.qr(M, mode="complete")
    k = min(M.shape)
    return QrFactors(Q=q, R=r[:k, :])


def svd_thin(M: np.ndarray) -> SvdFactors:
    """Thin SVD keeping k = min(r, c) triples."""
    u, s, vh = np.linalg.svd(np.asarray(M), full_matrices=False)
    return SvdFactors(U=u, S=s, V=vh.conj().T)


def svd_right(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values S and right singular vectors V (c-by-k, with
    k = min(r, c)) of r-by-c M.

    Taken from the thin SVD of the R factor of M = Q R, which shares S and
    V with M, so for tall M the r-row left factor is never formed.
    """
    f = svd_thin(np.linalg.qr(np.asarray(M), mode="r"))
    return f.S, f.V


def _rank_of(S: np.ndarray, shape: tuple[int, ...]) -> int:
    """Number of singular values above max(r, c) * eps * sigma_1, the
    standard numerical-rank convention."""
    if S.size == 0:
        return 0
    return int(np.sum(S > max(shape) * np.finfo(np.float64).eps * S[0]))


def numerical_rank(M: np.ndarray) -> int:
    """Numerical rank from the singular values alone."""
    M = np.asarray(M)
    return _rank_of(np.linalg.svd(M, compute_uv=False), M.shape)


def svd_skinny(M: np.ndarray) -> SvdFactors:
    """SVD truncated to the numerical rank (see :func:`numerical_rank`)."""
    M = np.asarray(M)
    f = svd_thin(M)
    k = _rank_of(f.S, M.shape)
    return SvdFactors(U=f.U[:, :k], S=f.S[:k], V=f.V[:, :k])


def pinv(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the skinny SVD."""
    f = svd_skinny(M)
    if f.S.size == 0:
        return np.zeros((M.shape[1], M.shape[0]), dtype=np.asarray(M).dtype)
    return (f.V / f.S) @ f.U.conj().T


def commutation_matrix(d: int, n: int) -> np.ndarray:
    """Permutation matrix mapping vec(X) to vec(X^T) for d-by-n X.

    vec is column-major here and everywhere in this package.
    """
    if d < 1 or n < 1:
        raise ValueError("commutation_matrix needs d, n >= 1")
    P = np.zeros((d * n, d * n))
    i = np.repeat(np.arange(d), n)
    j = np.tile(np.arange(n), d)
    P[j + i * n, i + j * d] = 1.0
    return P


def vec(X: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return np.asarray(X).reshape(-1, order="F")


def unvec(v: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    return np.asarray(v).reshape(shape, order="F")


def spectral_norm(M: np.ndarray, method: str = "dense",
                  tol: float = 1e-10, max_iter: int = 5000) -> float:
    """Largest singular value.

    method="dense" goes through the thin SVD; method="power" runs the
    matrix-free power iteration (useful when M is only cheap to apply).
    """
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    if method == "dense":
        f = svd_thin(M)
        return float(f.S[0]) if f.S.size else 0.0
    if method == "power":
        return spectral_norm_power(
            lambda v: M @ v,
            lambda w: M.conj().T @ w,
            M.shape[1],
            complex_ok=np.iscomplexobj(M),
            tol=tol, max_iter=max_iter)
    raise ValueError(f"unknown method {method!r}")


def spectral_norm_power(matvec: Callable[[np.ndarray], np.ndarray],
                        rmatvec: Callable[[np.ndarray], np.ndarray],
                        ncols: int,
                        complex_ok: bool = False,
                        tol: float = 1e-10,
                        max_iter: int = 5000,
                        seed: int = 1905) -> float:
    """Power iteration for the spectral norm of an implicitly given matrix.

    Iterates v <- M^H M v on a deterministic random start vector and reads
    the estimate off ||M v||.  Stops when consecutive estimates agree to
    ``tol`` relative; hitting ``max_iter`` raises
    SpectralNormDidNotConverge with the best estimate attached.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(ncols)
    if complex_ok:
        v = v + 1j * rng.standard_normal(ncols)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v = v / nv
    estimate = 0.0
    for _ in range(max_iter):
        w = matvec(v)
        new_estimate = float(np.linalg.norm(w))
        if new_estimate == 0.0:
            return 0.0
        z = rmatvec(w)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return new_estimate
        v = z / nz
        if abs(new_estimate - estimate) <= tol * new_estimate:
            return new_estimate
        estimate = new_estimate
    raise SpectralNormDidNotConverge(
        f"power iteration did not converge in {max_iter} iterations",
        estimate=estimate)
