"""Dense factorization kernels used by the solvers.

Thin wrappers over LAPACK (via numpy) for QR and SVD, a values-only
numerical rank, and singular values and right singular vectors of a tall
matrix taken from its R factor.  The dense reference builds that check
the solvers (pseudoinverse, commutation matrix, vec, spectral norms) live
in the test suite, ``tests/oracles.py``.

All kernels accept real or complex input; complex matrices are handled
natively (conjugate transposes throughout), never through a real embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QrFactors",
    "SvdFactors",
    "qr_full",
    "svd_thin",
    "svd_skinny",
    "svd_right",
    "numerical_rank",
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
