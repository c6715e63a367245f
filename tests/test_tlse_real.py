"""Real-solution solver tests.

The strongest oracle is construction: build a consistent system from a
known real X*, solve, and demand recovery plus near-zero fitted
correction.  Optimality is spot-checked by sampling feasible
correction/solution pairs around the solver's own answer and verifying
none beats the reported minimum.
"""

import numpy as np
import pytest

import rbtlse.rb_core as rb
from rbtlse.dense_kernels import qr_full
from rbtlse.bench import gen_instance
from rbtlse.errors import (AssumptionViolated, BlockNotInvertible,
                           DegenerateSpectrum, DimensionMismatch,
                           FactorizationFailed, GapConditionFailed,
                           NonFiniteInput, RbtlseError)
from rbtlse.tlse import (DEFAULT_TOL, ToleranceConfig, TlseComplexProblem,
                         TlseRealProblem, solve_complex, solve_real,
                         residuals_real)


def _rand_rb(rng, m, n):
    return rb.RBMatrix(*(rng.standard_normal((m, n)) for _ in range(4)))


def _consistent(rng, m, n, p, d):
    A = _rand_rb(rng, m, n)
    C = _rand_rb(rng, p, n) if p > 0 else rb.RBMatrix.zeros(0, n)
    Xs = rng.standard_normal((n, d))
    Xrb = rb.RBMatrix.from_real(Xs)
    B = rb.mat_mul(A, Xrb)
    D = rb.mat_mul(C, Xrb) if p > 0 else rb.RBMatrix.zeros(0, d)
    return TlseRealProblem(A=A, B=B, C=C, D=D), Xs


def test_problem_shape_validation():
    rng = np.random.default_rng(0)
    A = _rand_rb(rng, 5, 3)
    B = _rand_rb(rng, 4, 2)   # wrong row count
    C = _rand_rb(rng, 1, 3)
    D = _rand_rb(rng, 1, 2)
    with pytest.raises(DimensionMismatch):
        TlseRealProblem(A=A, B=B, C=C, D=D)
    B2 = _rand_rb(rng, 5, 2)
    D2 = _rand_rb(rng, 1, 3)  # wrong column count
    with pytest.raises(DimensionMismatch):
        TlseRealProblem(A=A, B=B2, C=C, D=D2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    rng = np.random.default_rng(0)
    A = _rand_rb(rng, 30, 10)
    p0 = A.p0.copy()
    p0[3, 4] = bad
    A_bad = rb.RBMatrix(p0, A.p1, A.p2, A.p3)
    with pytest.raises(NonFiniteInput):
        TlseRealProblem(A=A_bad, B=_rand_rb(rng, 30, 2),
                        C=_rand_rb(rng, 2, 10), D=_rand_rb(rng, 2, 2))
    assert issubclass(NonFiniteInput, RbtlseError)


@pytest.mark.parametrize("sizes", [(30, 10, 2, 0), (30, 0, 0, 2)])
def test_empty_dimensions_rejected(sizes):
    with pytest.raises(DimensionMismatch):
        gen_instance("real", sizes, 0)


def test_consistent_recovery():
    rng = np.random.default_rng(1)
    for m, n, p, d in [(30, 10, 2, 2), (12, 5, 1, 1), (20, 8, 0, 3)]:
        prob, Xs = _consistent(rng, m, n, p, d)
        sol = solve_real(prob)
        assert np.linalg.norm(sol.X - Xs) <= 1e-8 * np.linalg.norm(Xs)
        scale = rb.frobenius_norm(rb.hstack(prob.A, prob.B))
        assert sol.residual_perturbation_norm <= 1e-10 * scale
        e1, e2 = residuals_real(prob, sol)
        assert e1 < 1e-10
        assert e2 < 1e-10


def test_solution_satisfies_corrected_system():
    """(A+E)X = B+F and CX = D hold for whatever X the solver returns,
    consistent data or not."""
    rng = np.random.default_rng(2)
    m, n, p, d = 30, 10, 2, 2
    prob = TlseRealProblem(A=_rand_rb(rng, m, n), B=_rand_rb(rng, m, d),
                           C=_rand_rb(rng, p, n), D=_rand_rb(rng, p, d))
    sol = solve_real(prob)
    e1, e2 = residuals_real(prob, sol)
    assert e1 < 1e-10
    assert e2 < 1e-10


def test_correction_norm_matches_trailing_singular_values():
    rng = np.random.default_rng(3)
    prob = TlseRealProblem(A=_rand_rb(rng, 30, 10), B=_rand_rb(rng, 30, 2),
                           C=_rand_rb(rng, 2, 10), D=_rand_rb(rng, 2, 2))
    sol = solve_real(prob)
    n = 10
    k = n - 4 * 2
    want = np.sqrt(np.sum(sol.sigma[k:] ** 2))
    assert sol.residual_perturbation_norm == pytest.approx(want, rel=1e-12)
    assert rb.frobenius_norm(rb.hstack(sol.E_bar, sol.F_bar)) == pytest.approx(
        want, rel=1e-12)


def test_constraint_residual_identity():
    """For real X, the constraint residual equals ||C_col (X - X*)||_F
    when D was built from X*."""
    rng = np.random.default_rng(4)
    prob, Xs = _consistent(rng, 20, 8, 1, 2)
    sol = solve_real(prob)
    delta = rng.standard_normal(sol.X.shape)
    corrupted = sol.X + delta
    Crb = prob.C
    res = rb.mat_mul(Crb, rb.RBMatrix.from_real(corrupted)) - prob.D
    ccol = rb.real_block_column(Crb)
    want = np.linalg.norm(ccol @ (corrupted - Xs))
    assert rb.frobenius_norm(res) == pytest.approx(want, rel=1e-10)


def test_unconstrained_path():
    rng = np.random.default_rng(5)
    prob, Xs = _consistent(rng, 25, 6, 0, 2)
    sol = solve_real(prob)
    assert np.linalg.norm(sol.X - Xs) <= 1e-8 * np.linalg.norm(Xs)
    # with p=0 the trailing block keeps n singular values ahead of the gap
    assert sol.sigma.shape[0] == 6 + 2


def test_scaling_equivariance():
    rng = np.random.default_rng(6)
    prob = TlseRealProblem(A=_rand_rb(rng, 30, 10), B=_rand_rb(rng, 30, 2),
                           C=_rand_rb(rng, 2, 10), D=_rand_rb(rng, 2, 2))
    sol = solve_real(prob)
    zeta = 3.7
    scaled = TlseRealProblem(A=prob.A * zeta, B=prob.B * zeta,
                             C=prob.C * zeta, D=prob.D * zeta)
    sol2 = solve_real(scaled)
    assert np.allclose(sol2.X, sol.X, atol=1e-12 * np.linalg.norm(sol.X))
    assert sol2.residual_perturbation_norm == pytest.approx(
        zeta * sol.residual_perturbation_norm, rel=1e-10)


def test_svd_sign_ambiguity_does_not_move_x():
    """X = -V12 V22^{-1} from the retained trailing basis is invariant
    under column sign flips of that basis."""
    rng = np.random.default_rng(7)
    prob = TlseRealProblem(A=_rand_rb(rng, 30, 10), B=_rand_rb(rng, 30, 2),
                           C=_rand_rb(rng, 2, 10), D=_rand_rb(rng, 2, 2))
    sol = solve_real(prob)
    n, d = 10, 2
    k = n - 8
    trail = sol.V_check[:, k:].copy()
    signs = np.where(rng.random(trail.shape[1]) < 0.5, -1.0, 1.0)
    trail = trail * signs
    X = -np.linalg.solve(trail[n:, :].T, trail[:n, :].T).T
    assert np.allclose(X, sol.X, atol=1e-10 * max(1, np.linalg.norm(sol.X)))


def test_optimality_random_search():
    """Sample ~1e5 feasible (correction, solution) pairs around the
    solver's answer; none may undercut the reported minimum."""
    rng = np.random.default_rng(8)
    m, n, p, d = 8, 5, 1, 1
    prob = TlseRealProblem(A=_rand_rb(rng, m, n), B=_rand_rb(rng, m, d),
                           C=_rand_rb(rng, p, n), D=_rand_rb(rng, p, d))
    sol = solve_real(prob)
    best = sol.residual_perturbation_norm

    # feasible X: C_col X = D_col; the solver's X is feasible, walk the
    # constraint null space around it
    ccol = rb.real_block_column(prob.C)          # (4p, n)
    dcol = rb.real_block_column(prob.D)          # (4p, d)
    assert np.linalg.norm(ccol @ sol.X - dcol) < 1e-10
    qf = qr_full(ccol.T)
    N = qf.Q[:, 4 * p:]                           # (n, n-4p) null basis

    a1 = prob.A.p0 + 1j * prob.A.p1
    a2 = prob.A.p2 + 1j * prob.A.p3
    b1 = prob.B.p0 + 1j * prob.B.p1
    b2 = prob.B.p2 + 1j * prob.B.p3
    e1o = sol.E_bar.p0 + 1j * sol.E_bar.p1
    e2o = sol.E_bar.p2 + 1j * sol.E_bar.p3

    chunk = 2000
    total = 0
    min_seen = np.inf
    for magnitude in (0.0, 1e-3, 1e-2, 1e-1, 1.0):
        for _ in range(10):
            # E = E_bar + magnitude * noise, X feasible near the solution
            n1 = (rng.standard_normal((chunk, m, n))
                  + 1j * rng.standard_normal((chunk, m, n))) * magnitude
            n2 = (rng.standard_normal((chunk, m, n))
                  + 1j * rng.standard_normal((chunk, m, n))) * magnitude
            E1 = e1o[None] + n1
            E2 = e2o[None] + n2
            z = rng.standard_normal((chunk, n - 4 * p, d)) * max(magnitude, 1e-3)
            X = sol.X[None] + np.einsum("nk,ckd->cnd", N, z)
            # F forced by feasibility: F = (A+E) X - B (complex pair form)
            F1 = np.einsum("cmn,cnd->cmd", a1[None] + E1, X) - b1[None]
            F2 = np.einsum("cmn,cnd->cmd", a2[None] + E2, X) - b2[None]
            cost = np.sqrt(
                np.sum(np.abs(E1) ** 2, axis=(1, 2))
                + np.sum(np.abs(E2) ** 2, axis=(1, 2))
                + np.sum(np.abs(F1) ** 2, axis=(1, 2))
                + np.sum(np.abs(F2) ** 2, axis=(1, 2)))
            min_seen = min(min_seen, float(cost.min()))
            total += chunk
    assert total == 100000
    assert min_seen >= best * (1 - 1e-6)


def test_gap_condition_failure_raised():
    rng = np.random.default_rng(9)
    prob, _ = _consistent(rng, 20, 8, 1, 2)
    strict = ToleranceConfig(gap_rel=10.0)  # no realistic gap can pass
    with pytest.raises(GapConditionFailed):
        solve_real(prob, tol=strict)


def test_degenerate_spectrum_raised():
    rng = np.random.default_rng(10)
    prob, _ = _consistent(rng, 20, 8, 1, 2)
    # consistent data has trailing singular values ~1e-14; a raised floor
    # must flag them
    with pytest.raises(DegenerateSpectrum):
        solve_real(prob, tol=ToleranceConfig(positive_sigma=1e-6))


def test_block_not_invertible_raised():
    rng = np.random.default_rng(11)
    prob, _ = _consistent(rng, 20, 8, 1, 2)
    with pytest.raises(BlockNotInvertible):
        solve_real(prob, tol=ToleranceConfig(v22_cond_max=0.5))


def test_rank_deficient_constraint_rejected():
    rng = np.random.default_rng(12)
    A = _rand_rb(rng, 20, 8)
    B = _rand_rb(rng, 20, 2)
    C = rb.RBMatrix.zeros(1, 8)
    D = rb.RBMatrix.zeros(1, 2)
    with pytest.raises(AssumptionViolated):
        solve_real(TlseRealProblem(A=A, B=B, C=C, D=D))


def test_too_many_constraints_rejected():
    rng = np.random.default_rng(13)
    # 4p = 12 > n = 10
    prob_args = dict(A=_rand_rb(rng, 30, 10), B=_rand_rb(rng, 30, 2),
                     C=_rand_rb(rng, 3, 10), D=_rand_rb(rng, 3, 2))
    with pytest.raises(AssumptionViolated):
        solve_real(TlseRealProblem(**prob_args))


def test_too_few_rows_rejected():
    rng = np.random.default_rng(14)
    # 4m = 4 < n + d - 4p = 12
    prob_args = dict(A=_rand_rb(rng, 1, 10), B=_rand_rb(rng, 1, 2),
                     C=rb.RBMatrix.zeros(0, 10), D=rb.RBMatrix.zeros(0, 2))
    with pytest.raises(AssumptionViolated):
        solve_real(TlseRealProblem(**prob_args))


def test_default_tolerances():
    assert DEFAULT_TOL.gap_rel == 1e-10
    assert DEFAULT_TOL.gap_abs == 0.0
    assert DEFAULT_TOL.v22_cond_max == 1e12
    assert DEFAULT_TOL.positive_sigma == 0.0


def _fail_linalg(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.mark.parametrize("routine", ["svd", "qr"])
@pytest.mark.parametrize("problem_type,solve", [
    (TlseRealProblem, solve_real), (TlseComplexProblem, solve_complex)])
@pytest.mark.parametrize("p", [0, 1])
def test_lapack_failure_is_factorization_failed(monkeypatch, routine,
                                                problem_type, solve, p):
    rng = np.random.default_rng(15)
    problem = problem_type(A=_rand_rb(rng, 20, 6), B=_rand_rb(rng, 20, 2),
                           C=_rand_rb(rng, p, 6), D=_rand_rb(rng, p, 2))
    monkeypatch.setattr(np.linalg, routine, _fail_linalg)
    with pytest.raises(FactorizationFailed, match="did not converge"):
        solve(problem)
