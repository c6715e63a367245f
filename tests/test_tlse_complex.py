"""Complex-solution solver tests.

The construction oracle and the error taxonomy run over both algebras in
``test_tlse_real.py``.  Here are the complex solve's own checks: its X
does not move under a unimodular factor on the trailing basis,
conjugating all data conjugates the solution, and on real data the
complex solver must agree with the real one.
"""

import numpy as np
import pytest

import rbtlse.rb_core as rb
from instances import consistent
from rbtlse.bench import gen_instance
from rbtlse.tlse import TlseProblem, solve_complex, solve_real


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


def test_sign_ambiguity_does_not_move_x():
    """The complex solve's X is invariant under any unimodular factor on
    each column of the trailing basis, not just a sign (the real solve's
    sign check is test_svd_sign_ambiguity_does_not_move_x)."""
    rng = np.random.default_rng(7)
    prob = gen_instance("real", (30, 6, 1, 2), rng)
    sol = solve_complex(prob)
    n = 6
    k = n - 2
    trail = sol.V_check[:, k:].copy()
    phases = np.exp(2j * np.pi * rng.random(trail.shape[1]))
    trail = trail * phases
    X = -np.linalg.solve(trail[n:, :].T, trail[:n, :].T).T
    assert np.allclose(X, sol.X, atol=1e-10 * max(1, np.linalg.norm(sol.X)))
