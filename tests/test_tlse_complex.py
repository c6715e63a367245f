"""Complex-solution solver tests.

Construction oracle as in the real case, plus two structural symmetries:
conjugating all data conjugates the solution, and on real data the
complex solver must agree with the real one.
"""

import numpy as np
import pytest

import oracles
import rbtlse.rb_core as rb
from instances import consistent, rand_rb
from rbtlse.bench import gen_instance
from rbtlse.errors import (AssumptionViolated, DimensionMismatch,
                           GapConditionFailed, NonFiniteInput)
from rbtlse.tlse import (TlseProblem, solve_complex, solve_real,
                         residuals_complex)


def test_problem_shape_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionMismatch):
        TlseProblem(A=rand_rb(rng, 5, 3), B=rand_rb(rng, 4, 2),
                    C=rand_rb(rng, 1, 3), D=rand_rb(rng, 1, 2))


def test_non_finite_input_rejected():
    rng = np.random.default_rng(0)
    D = rand_rb(rng, 1, 2)
    p3 = D.p3.copy()
    p3[0, 1] = np.inf
    with pytest.raises(NonFiniteInput):
        TlseProblem(A=rand_rb(rng, 5, 3), B=rand_rb(rng, 5, 2),
                    C=rand_rb(rng, 1, 3),
                    D=rb.RBMatrix(D.p0, D.p1, D.p2, p3))


@pytest.mark.parametrize("sizes", [(50, 6, 2, 0), (50, 0, 0, 3)])
def test_empty_dimensions_rejected(sizes):
    with pytest.raises(DimensionMismatch):
        gen_instance("complex", sizes, 0)


def test_consistent_recovery():
    rng = np.random.default_rng(1)
    for m, n, p, d in [(50, 6, 2, 3), (15, 6, 1, 2), (20, 8, 0, 2)]:
        prob, Zs = consistent("complex", rng, m, n, p, d, uniform=True)
        sol = solve_complex(prob)
        assert np.iscomplexobj(sol.X)
        assert np.linalg.norm(sol.X - Zs) <= 1e-8 * np.linalg.norm(Zs)
        scale = rb.frobenius_norm(oracles.hstack(prob.A, prob.B))
        assert sol.residual_perturbation_norm <= 1e-10 * scale
        e1, e2 = residuals_complex(prob, sol)
        assert e1 < 1e-10
        assert e2 < 1e-10


def test_solution_satisfies_corrected_system():
    prob = gen_instance("real", (50, 6, 2, 3), 2)
    sol = solve_complex(prob)
    e1, e2 = residuals_complex(prob, sol)
    assert e1 < 1e-10
    assert e2 < 1e-10


def test_correction_norm_matches_trailing_singular_values():
    prob = gen_instance("real", (50, 6, 2, 3), 3)
    sol = solve_complex(prob)
    k = 6 - 2 * 2
    want = np.sqrt(np.sum(sol.sigma[k:] ** 2))
    assert sol.residual_perturbation_norm == pytest.approx(want, rel=1e-12)
    assert rb.frobenius_norm(oracles.hstack(sol.E_bar, sol.F_bar)) == \
        pytest.approx(want, rel=1e-12)


def test_conjugation_symmetry():
    """Negating the i-components of all data conjugates the solution."""
    def conj_rb(P):
        return rb.RBMatrix(P.p0, -P.p1, P.p2, -P.p3)

    prob = gen_instance("real", (30, 6, 1, 2), 4)
    sol = solve_complex(prob)
    conj_prob = TlseProblem(A=conj_rb(prob.A), B=conj_rb(prob.B),
                            C=conj_rb(prob.C), D=conj_rb(prob.D))
    conj_sol = solve_complex(conj_prob)
    assert np.allclose(conj_sol.X, sol.X.conj(),
                       atol=1e-12 * max(1, np.linalg.norm(sol.X)))
    assert conj_sol.residual_perturbation_norm == pytest.approx(
        sol.residual_perturbation_norm, rel=1e-10)


def test_real_data_agrees_with_real_solver():
    """Consistent data built from a real X*: both solvers recover it, the
    complex answer is real up to rounding."""
    prob, Xs = consistent("real", np.random.default_rng(5), 30, 8, 1, 2)
    xr = solve_real(prob).X
    xc = solve_complex(prob).X
    assert np.linalg.norm(xc.imag) <= 1e-9 * np.linalg.norm(Xs)
    assert np.linalg.norm(xc.real - xr) <= 1e-9 * np.linalg.norm(Xs)


def test_scaling_equivariance():
    prob = gen_instance("real", (30, 6, 1, 2), 6)
    sol = solve_complex(prob)
    zeta = 0.31
    scaled = TlseProblem(A=prob.A * zeta, B=prob.B * zeta,
                         C=prob.C * zeta, D=prob.D * zeta)
    sol2 = solve_complex(scaled)
    assert np.allclose(sol2.X, sol.X, atol=1e-12 * np.linalg.norm(sol.X))
    assert sol2.residual_perturbation_norm == pytest.approx(
        zeta * sol.residual_perturbation_norm, rel=1e-10)


def test_sign_ambiguity_does_not_move_x():
    rng = np.random.default_rng(7)
    prob = gen_instance("real", (30, 6, 1, 2), rng)
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
    # 2p = 8 > n = 6
    problem = gen_instance("real", (30, 6, 4, 2), 8)
    with pytest.raises(AssumptionViolated):
        solve_complex(problem)


def test_too_few_rows_rejected():
    rng = np.random.default_rng(9)
    # 2m = 2 < n - 2p = 6: singular values 6 and 7 of P are both 0
    with pytest.raises(GapConditionFailed):
        solve_complex(TlseProblem(
            A=rand_rb(rng, 1, 6), B=rand_rb(rng, 1, 2),
            C=rb.RBMatrix.zeros(0, 6), D=rb.RBMatrix.zeros(0, 2)))


def test_rank_deficient_constraint_rejected():
    rng = np.random.default_rng(10)
    with pytest.raises(AssumptionViolated):
        solve_complex(TlseProblem(
            A=rand_rb(rng, 20, 8), B=rand_rb(rng, 20, 2),
            C=rb.RBMatrix.zeros(1, 8), D=rb.RBMatrix.zeros(1, 2)))
