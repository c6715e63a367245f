"""Complex-solution solver tests.

Construction oracle as in the real case, plus two structural symmetries:
conjugating all data conjugates the solution, and on real data the
complex solver must agree with the real one.
"""

import numpy as np
import pytest

import rbtlse.rb_core as rb
from rbtlse.bench import gen_instance
from rbtlse.errors import (AssumptionViolated, DimensionMismatch,
                           NonFiniteInput)
from rbtlse.tlse import (TlseComplexProblem, solve_complex, solve_real,
                         residuals_complex)


def _rand_rb(rng, m, n, uniform=False):
    draw = rng.random if uniform else rng.standard_normal
    return rb.RBMatrix(*(draw((m, n)) for _ in range(4)))


def _consistent(rng, m, n, p, d, uniform=False):
    A = _rand_rb(rng, m, n, uniform)
    C = _rand_rb(rng, p, n, uniform) if p > 0 else rb.RBMatrix.zeros(0, n)
    Zs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    Zrb = rb.RBMatrix.from_complex(Zs)
    B = rb.mat_mul(A, Zrb)
    D = rb.mat_mul(C, Zrb) if p > 0 else rb.RBMatrix.zeros(0, d)
    return TlseComplexProblem(A=A, B=B, C=C, D=D), Zs


def test_problem_shape_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionMismatch):
        TlseComplexProblem(A=_rand_rb(rng, 5, 3), B=_rand_rb(rng, 4, 2),
                           C=_rand_rb(rng, 1, 3), D=_rand_rb(rng, 1, 2))


def test_non_finite_input_rejected():
    rng = np.random.default_rng(0)
    D = _rand_rb(rng, 1, 2)
    p3 = D.p3.copy()
    p3[0, 1] = np.inf
    with pytest.raises(NonFiniteInput):
        TlseComplexProblem(A=_rand_rb(rng, 5, 3), B=_rand_rb(rng, 5, 2),
                           C=_rand_rb(rng, 1, 3),
                           D=rb.RBMatrix(D.p0, D.p1, D.p2, p3))


@pytest.mark.parametrize("sizes", [(50, 6, 2, 0), (50, 0, 0, 3)])
def test_empty_dimensions_rejected(sizes):
    with pytest.raises(DimensionMismatch):
        gen_instance("complex", sizes, 0)


def test_consistent_recovery():
    rng = np.random.default_rng(1)
    for m, n, p, d in [(50, 6, 2, 3), (15, 6, 1, 2), (20, 8, 0, 2)]:
        prob, Zs = _consistent(rng, m, n, p, d, uniform=True)
        sol = solve_complex(prob)
        assert np.iscomplexobj(sol.X)
        assert np.linalg.norm(sol.X - Zs) <= 1e-8 * np.linalg.norm(Zs)
        scale = rb.frobenius_norm(rb.hstack(prob.A, prob.B))
        assert sol.residual_perturbation_norm <= 1e-10 * scale
        e1, e2 = residuals_complex(prob, sol)
        assert e1 < 1e-10
        assert e2 < 1e-10


def test_solution_satisfies_corrected_system():
    rng = np.random.default_rng(2)
    m, n, p, d = 50, 6, 2, 3
    prob = TlseComplexProblem(A=_rand_rb(rng, m, n), B=_rand_rb(rng, m, d),
                              C=_rand_rb(rng, p, n), D=_rand_rb(rng, p, d))
    sol = solve_complex(prob)
    e1, e2 = residuals_complex(prob, sol)
    assert e1 < 1e-10
    assert e2 < 1e-10


def test_correction_norm_matches_trailing_singular_values():
    rng = np.random.default_rng(3)
    prob = TlseComplexProblem(A=_rand_rb(rng, 50, 6), B=_rand_rb(rng, 50, 3),
                              C=_rand_rb(rng, 2, 6), D=_rand_rb(rng, 2, 3))
    sol = solve_complex(prob)
    k = 6 - 2 * 2
    want = np.sqrt(np.sum(sol.sigma[k:] ** 2))
    assert sol.residual_perturbation_norm == pytest.approx(want, rel=1e-12)
    assert rb.frobenius_norm(rb.hstack(sol.E_bar, sol.F_bar)) == pytest.approx(
        want, rel=1e-12)


def test_conjugation_symmetry():
    """Negating the i-components of all data conjugates the solution."""
    rng = np.random.default_rng(4)
    m, n, p, d = 30, 6, 1, 2

    def conj_rb(P):
        return rb.RBMatrix(P.p0, -P.p1, P.p2, -P.p3)

    prob = TlseComplexProblem(A=_rand_rb(rng, m, n), B=_rand_rb(rng, m, d),
                              C=_rand_rb(rng, p, n), D=_rand_rb(rng, p, d))
    sol = solve_complex(prob)
    conj_prob = TlseComplexProblem(A=conj_rb(prob.A), B=conj_rb(prob.B),
                                   C=conj_rb(prob.C), D=conj_rb(prob.D))
    conj_sol = solve_complex(conj_prob)
    assert np.allclose(conj_sol.X, sol.X.conj(),
                       atol=1e-12 * max(1, np.linalg.norm(sol.X)))
    assert conj_sol.residual_perturbation_norm == pytest.approx(
        sol.residual_perturbation_norm, rel=1e-10)


def test_real_data_agrees_with_real_solver():
    """Consistent data built from a real X*: both solvers recover it, the
    complex answer is real up to rounding."""
    rng = np.random.default_rng(5)
    m, n, p, d = 30, 8, 1, 2
    A = _rand_rb(rng, m, n)
    C = _rand_rb(rng, p, n)
    Xs = rng.standard_normal((n, d))
    Xrb = rb.RBMatrix.from_real(Xs)
    B = rb.mat_mul(A, Xrb)
    D = rb.mat_mul(C, Xrb)
    from rbtlse.tlse import TlseRealProblem
    xr = solve_real(TlseRealProblem(A=A, B=B, C=C, D=D)).X
    xc = solve_complex(TlseComplexProblem(A=A, B=B, C=C, D=D)).X
    assert np.linalg.norm(xc.imag) <= 1e-9 * np.linalg.norm(Xs)
    assert np.linalg.norm(xc.real - xr) <= 1e-9 * np.linalg.norm(Xs)


def test_scaling_equivariance():
    rng = np.random.default_rng(6)
    prob = TlseComplexProblem(A=_rand_rb(rng, 30, 6), B=_rand_rb(rng, 30, 2),
                              C=_rand_rb(rng, 1, 6), D=_rand_rb(rng, 1, 2))
    sol = solve_complex(prob)
    zeta = 0.31
    scaled = TlseComplexProblem(A=prob.A * zeta, B=prob.B * zeta,
                                C=prob.C * zeta, D=prob.D * zeta)
    sol2 = solve_complex(scaled)
    assert np.allclose(sol2.X, sol.X, atol=1e-12 * np.linalg.norm(sol.X))
    assert sol2.residual_perturbation_norm == pytest.approx(
        zeta * sol.residual_perturbation_norm, rel=1e-10)


def test_sign_ambiguity_does_not_move_x():
    rng = np.random.default_rng(7)
    prob = TlseComplexProblem(A=_rand_rb(rng, 30, 6), B=_rand_rb(rng, 30, 2),
                              C=_rand_rb(rng, 1, 6), D=_rand_rb(rng, 1, 2))
    sol = solve_complex(prob)
    n = 6
    k = n - 2
    trail = sol.V_check[:, k:].copy()
    # complex phase ambiguity, not just signs
    phases = np.exp(2j * np.pi * rng.random(trail.shape[1]))
    trail = trail * phases
    X = -np.linalg.solve(trail[n:, :].T, trail[:n, :].T).T
    assert np.allclose(X, sol.X, atol=1e-10 * max(1, np.linalg.norm(sol.X)))


def test_too_many_constraints_rejected():
    rng = np.random.default_rng(8)
    # 2p = 8 > n = 6
    with pytest.raises(AssumptionViolated):
        solve_complex(TlseComplexProblem(
            A=_rand_rb(rng, 30, 6), B=_rand_rb(rng, 30, 2),
            C=_rand_rb(rng, 4, 6), D=_rand_rb(rng, 4, 2)))


def test_too_few_rows_rejected():
    rng = np.random.default_rng(9)
    # 2m = 2 < n + d - 2p = 8
    with pytest.raises(AssumptionViolated):
        solve_complex(TlseComplexProblem(
            A=_rand_rb(rng, 1, 6), B=_rand_rb(rng, 1, 2),
            C=rb.RBMatrix.zeros(0, 6), D=rb.RBMatrix.zeros(0, 2)))


def test_rank_deficient_constraint_rejected():
    rng = np.random.default_rng(10)
    with pytest.raises(AssumptionViolated):
        solve_complex(TlseComplexProblem(
            A=_rand_rb(rng, 20, 8), B=_rand_rb(rng, 20, 2),
            C=rb.RBMatrix.zeros(1, 8), D=rb.RBMatrix.zeros(1, 2)))
