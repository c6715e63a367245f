"""Tests of the dense oracles in ``tests/oracles.py`` that other tests
rely on, and of the two factorization steps the solver runs on numpy
directly.

The solver's values-only rank rule (``tlse._rank``) must count the
singular values of rank-k products, and the singular values and right
singular vectors a solve takes from the R factor of P Q2 must match the
thin SVD of P Q2.  Of the oracles, the pseudoinverse must satisfy the
Penrose conditions, the commutation matrix must equal its defining sum of
elementary Kronecker products, and power iteration must agree with the
dense spectral norm.
"""

import numpy as np
import pytest

import oracles
import rbtlse.tlse as tlse
from rbtlse.bench import gen_instance


# ---------------------------------------------------------------------------
# the factorization steps the solver runs inline
# ---------------------------------------------------------------------------

def _rank(M):
    return tlse._rank(np.linalg.svd(M, compute_uv=False), M.shape)


@pytest.mark.parametrize("shape", [(6, 4), (4, 4), (0, 3), (3, 0)])
def test_numerical_rank_matches_svd_skinny(shape):
    """The rank rule counts the k singular values of a rank-k product,
    the k triples a rank-truncated SVD keeps; none of a zero matrix, all
    of a random one."""
    rng = np.random.default_rng(6)
    k = min(shape) // 2
    M = rng.standard_normal((shape[0], k)) @ rng.standard_normal((k, shape[1]))
    assert _rank(M) == k
    assert _rank(np.zeros((3, 3))) == 0
    if min(shape) > 0:
        assert _rank(rng.standard_normal(shape)) == min(shape)


@pytest.mark.parametrize("shape", [(10, 4, 0, 2), (12, 6, 1, 2),
                                   (30, 10, 2, 2)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_svd_right_matches_thin_svd(shape, dtype):
    """The solve takes sigma and V from the SVD of the R factor of
    P Q2; they must match the thin SVD of P Q2 itself (Q2 from the
    constraint stack rebuilt from the problem), each right singular vector
    up to a unimodular factor.  P V = U diag(sigma) shows in the norms
    of P V's columns.  p = 0 (Q2 the identity) and p > 0, both algebras."""
    kind, solve = (("real", tlse.solve_real) if dtype is float
                   else ("complex", tlse.solve_complex))
    sol = solve(gen_instance(kind, shape, 7))
    S = oracles.constraint_stack(sol)
    r = S.shape[0]
    Q2 = np.linalg.qr(S.conj().T, mode="complete")[0][:, r:]
    _, s, Vh = np.linalg.svd(sol.P @ Q2, full_matrices=False)
    V = Q2 @ Vh.conj().T
    assert sol.V_check.shape == V.shape
    assert np.allclose(sol.sigma, s, rtol=1e-13, atol=0)
    phases = np.sum(V.conj() * sol.V_check, axis=0)
    assert np.allclose(np.abs(phases), 1.0, atol=1e-12)
    assert np.allclose(sol.V_check, V * phases, atol=1e-12)
    assert np.allclose(np.linalg.norm(sol.P @ sol.V_check, axis=0),
                       sol.sigma, rtol=1e-12)


# ---------------------------------------------------------------------------
# pseudo-inverse (oracle)
# ---------------------------------------------------------------------------

def _check_penrose(M, Mp, tol=1e-10):
    s = max(1.0, abs(M).max())
    assert np.allclose(M @ Mp @ M, M, atol=tol * s)
    assert np.allclose(Mp @ M @ Mp, Mp, atol=tol * s)
    assert np.allclose((M @ Mp).conj().T, M @ Mp, atol=tol * s)
    assert np.allclose((Mp @ M).conj().T, Mp @ M, atol=tol * s)


def test_pinv_penrose():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((6, 4))
    _check_penrose(M, oracles.pinv(M))
    C = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    _check_penrose(C, oracles.pinv(C))


def test_pinv_diagonal_with_zero():
    M = np.diag([2.0, 0.0])
    assert np.allclose(oracles.pinv(M), np.diag([0.5, 0.0]), atol=1e-15)


def test_pinv_full_row_rank_right_inverse():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((3, 8))
    assert np.allclose(M @ oracles.pinv(M), np.eye(3), atol=1e-12)


def test_pinv_rank_deficient():
    rng = np.random.default_rng(8)
    u = rng.standard_normal((5, 2))
    v = rng.standard_normal((4, 2))
    M = u @ v.T
    _check_penrose(M, oracles.pinv(M))


# ---------------------------------------------------------------------------
# Kronecker, vec, commutation (oracles)
# ---------------------------------------------------------------------------

def test_kron_vec_identity():
    """(A kron B) vec(X) = vec(B X A^T), column-major vec."""
    rng = np.random.default_rng(9)
    A = rng.standard_normal((3, 4))
    B = rng.standard_normal((5, 2))
    X = rng.standard_normal((2, 4))
    lhs = np.kron(A, B) @ oracles.vec(X)
    rhs = oracles.vec(B @ X @ A.T)
    assert np.allclose(lhs, rhs, atol=1e-13)
    # complex uses the plain transpose in the identity too
    Ac = A + 1j * rng.standard_normal(A.shape)
    Xc = X + 1j * rng.standard_normal(X.shape)
    assert np.allclose(np.kron(Ac, B) @ oracles.vec(Xc),
                       oracles.vec(B @ Xc @ Ac.T), atol=1e-13)


def test_vec_unvec():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((3, 5))
    v = oracles.vec(X)
    assert v.shape == (15,)
    assert np.array_equal(v[:3], X[:, 0])
    assert np.array_equal(oracles.unvec(v, (3, 5)), X)


def test_commutation_identity_cases():
    assert np.array_equal(oracles.commutation_matrix(1, 4), np.eye(4))
    assert np.array_equal(oracles.commutation_matrix(4, 1), np.eye(4))


def test_commutation_transposes():
    rng = np.random.default_rng(12)
    for d, n in [(2, 3), (3, 3), (4, 2)]:
        P = oracles.commutation_matrix(d, n)
        X = rng.standard_normal((d, n))
        assert np.allclose(P @ oracles.vec(X), oracles.vec(X.T), atol=0)
        # permutation structure: exactly one 1 per row and column
        assert np.array_equal(np.sort(P, axis=0)[-1], np.ones(d * n))
        assert P.sum() == d * n
        assert np.array_equal(P.T, oracles.commutation_matrix(n, d))
        assert np.allclose(P.T @ P, np.eye(d * n))


def test_commutation_matches_elementary_sum():
    d, n = 3, 4
    want = np.zeros((d * n, d * n))
    for i in range(d):
        for j in range(n):
            E = np.zeros((d, n))
            E[i, j] = 1.0
            want += np.kron(E, E.T)
    assert np.array_equal(oracles.commutation_matrix(d, n), want)


def test_commutation_validates_dims():
    with pytest.raises(ValueError):
        oracles.commutation_matrix(0, 3)


# ---------------------------------------------------------------------------
# spectral norm (oracle)
# ---------------------------------------------------------------------------

def test_spectral_norm_known_values():
    assert oracles.spectral_norm(np.eye(4)) == pytest.approx(1.0)
    assert oracles.spectral_norm(np.diag([5.0, 1.0])) == pytest.approx(5.0)
    assert oracles.spectral_norm(np.zeros((0, 3))) == 0.0
    assert oracles.spectral_norm(np.zeros((3, 0))) == 0.0


def test_spectral_norm_dense_vs_power():
    rng = np.random.default_rng(13)
    M = rng.standard_normal((50, 80))
    dense = oracles.spectral_norm(M, method="dense")
    power = oracles.spectral_norm(M, method="power")
    assert power == pytest.approx(dense, rel=1e-8)


def test_spectral_norm_power_matrix_free():
    rng = np.random.default_rng(14)
    M = rng.standard_normal((30, 20))
    est = oracles.spectral_norm_power(lambda v: M @ v, lambda u: M.T @ u, 20)
    assert est == pytest.approx(np.linalg.svd(M, compute_uv=False)[0], rel=1e-8)


def test_spectral_norm_power_complex():
    rng = np.random.default_rng(15)
    M = rng.standard_normal((10, 12)) + 1j * rng.standard_normal((10, 12))
    est = oracles.spectral_norm_power(lambda v: M @ v,
                                      lambda u: M.conj().T @ u, 12,
                                      complex_ok=True)
    assert est == pytest.approx(np.linalg.svd(M, compute_uv=False)[0], rel=1e-8)


def test_spectral_norm_nonconvergence_carries_estimate():
    rng = np.random.default_rng(16)
    M = rng.standard_normal((15, 15))
    with pytest.raises(oracles.SpectralNormDidNotConverge) as exc:
        oracles.spectral_norm_power(lambda v: M @ v, lambda u: M.T @ u, 15,
                                    max_iter=1)
    assert exc.value.estimate > 0


def test_spectral_norm_bad_method():
    with pytest.raises(ValueError):
        oracles.spectral_norm(np.eye(2), method="magic")
