"""Constrained least squares baseline tests.

Oracles: exact recovery on consistent data, stationarity of the normal
equations restricted to the constraint null space, and a brute grid
search over a one-dimensional feasible family.
"""

import numpy as np
import pytest

import rbtlse.rb_core as rb
from instances import ALGEBRAS, consistent, rand_rb
from rbtlse.errors import (AssumptionViolated, DimensionMismatch,
                           FactorizationFailed, NonFiniteInput)
from rbtlse.bench import gen_compare_instance
from rbtlse.tlse import lse_solve_complex, lse_solve_real, solve_real


def test_consistent_recovery_real():
    prob, Xs = consistent("real", np.random.default_rng(0), 30, 10, 2, 2)
    sol = lse_solve_real(prob.A, prob.B, prob.C, prob.D)
    assert np.linalg.norm(sol.X - Xs) <= 1e-9 * np.linalg.norm(Xs)


def test_consistent_recovery_complex():
    prob, Zs = consistent("complex", np.random.default_rng(1), 30, 8, 2, 2)
    sol = lse_solve_complex(prob.A, prob.B, prob.C, prob.D)
    assert np.linalg.norm(sol.X - Zs) <= 1e-9 * np.linalg.norm(Zs)


def test_constraint_exactly_satisfied_on_noisy_data():
    rng = np.random.default_rng(2)
    m, n, p, d = 30, 10, 2, 2
    A, B = rand_rb(rng, m, n), rand_rb(rng, m, d)
    C, D = rand_rb(rng, p, n), rand_rb(rng, p, d)
    sol = lse_solve_real(A, B, C, D)
    residual = np.linalg.norm(
        rb.real_block_column(C) @ sol.X - rb.real_block_column(D))
    scale = rb.frobenius_norm(D) + 1
    assert residual <= 1e-10 * scale


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_kkt_stationarity(kind):
    """The least squares gradient must vanish on the constraint null
    space: Q2^H Ac^H (Ac X - Bc) = 0, with conjugate transposes on the
    complex stacks (a plain transpose there fails the check)."""
    solve, column, q = (ALGEBRAS[kind].lse, ALGEBRAS[kind].column,
                        ALGEBRAS[kind].q)
    rng = np.random.default_rng(3)
    m, n, p, d = 30, 10, 2, 2
    A, B = rand_rb(rng, m, n), rand_rb(rng, m, d)
    C, D = rand_rb(rng, p, n), rand_rb(rng, p, d)
    sol = solve(A, B, C, D)
    Ac, Bc, Cc = (column(M) for M in (A, B, C))
    Q2 = np.linalg.qr(Cc.conj().T, mode="complete")[0][:, q * p:]
    grad = Q2.conj().T @ Ac.conj().T @ (Ac @ sol.X - Bc)
    scale = np.linalg.norm(Ac) * np.linalg.norm(Bc) + 1
    assert np.linalg.norm(grad) <= 1e-9 * scale


def test_unconstrained_path_is_least_squares():
    rng = np.random.default_rng(4)
    m, n, d = 20, 6, 2
    A, B = rand_rb(rng, m, n), rand_rb(rng, m, d)
    C = rb.RBMatrix.zeros(0, n)
    D = rb.RBMatrix.zeros(0, d)
    sol = lse_solve_real(A, B, C, D)
    Ar = rb.real_block_column(A)
    Br = rb.real_block_column(B)
    want, *_ = np.linalg.lstsq(Ar, Br, rcond=None)
    assert np.allclose(sol.X, want, atol=1e-10)
    # normal equations hold
    assert np.linalg.norm(Ar.T @ (Ar @ sol.X - Br)) <= 1e-9 * np.linalg.norm(Br)


def test_grid_search_minimality_1d():
    """n - 4p = 1: the feasible set is a line X0 + N t; brute-force the
    parabola and compare with the solver."""
    rng = np.random.default_rng(5)
    m, n, p, d = 12, 5, 1, 1
    A, B = rand_rb(rng, m, n), rand_rb(rng, m, d)
    C, D = rand_rb(rng, p, n), rand_rb(rng, p, d)
    sol = lse_solve_real(A, B, C, D)
    Ar = rb.real_block_column(A)
    Br = rb.real_block_column(B)
    Cr = rb.real_block_column(C)
    N = np.linalg.qr(Cr.T, mode="complete")[0][:, 4 * p:]  # (n, 1)
    obj_solver = np.linalg.norm(Ar @ sol.X - Br)
    # analytic minimizer along the line through the solver's point
    g = Ar @ N                                # (4m, 1)
    t_star = float((g.T @ (Br - Ar @ sol.X)).item() / (g.T @ g).item())
    assert abs(t_star) <= 1e-9               # already at the minimum
    for t in np.linspace(-2.0, 2.0, 401):
        obj = np.linalg.norm(Ar @ (sol.X + N * t) - Br)
        assert obj >= obj_solver * (1 - 1e-8)


def test_agrees_with_tlse_on_consistent_data():
    prob, Xs = consistent("real", np.random.default_rng(6), 30, 10, 2, 2)
    x_lse = lse_solve_real(prob.A, prob.B, prob.C, prob.D).X
    x_tlse = solve_real(prob).X
    assert np.linalg.norm(x_lse - x_tlse) <= 1e-8 * np.linalg.norm(Xs)


def test_rank_deficient_constraint_rejected():
    rng = np.random.default_rng(7)
    A, B = rand_rb(rng, 20, 8), rand_rb(rng, 20, 2)
    with pytest.raises(AssumptionViolated):
        lse_solve_real(A, B, rb.RBMatrix.zeros(1, 8), rb.RBMatrix.zeros(1, 2))


@pytest.mark.parametrize("solve", [lse_solve_real, lse_solve_complex])
def test_invalid_data_rejected(solve):
    """The baseline validates its data like the total solver: nan/inf is
    NonFiniteInput (not a LAPACK failure), empty n or d DimensionMismatch
    (not an empty X)."""
    rng = np.random.default_rng(8)
    A, B = rand_rb(rng, 20, 6), rand_rb(rng, 20, 2)
    C, D = rand_rb(rng, 1, 6), rand_rb(rng, 1, 2)
    p0 = A.p0.copy()
    p0[2, 3] = np.nan
    with pytest.raises(NonFiniteInput):
        solve(rb.RBMatrix(p0, A.p1, A.p2, A.p3), B, C, D)
    with pytest.raises(DimensionMismatch):
        solve(A, rb.RBMatrix.zeros(20, 0), C, rb.RBMatrix.zeros(1, 0))
    with pytest.raises(DimensionMismatch):
        solve(rb.RBMatrix.zeros(20, 0), B, rb.RBMatrix.zeros(1, 0), D)


@pytest.mark.parametrize("routine", ["svd", "qr", "solve"])
@pytest.mark.parametrize("solve", [lse_solve_real, lse_solve_complex])
def test_lapack_failure_is_factorization_failed(monkeypatch, routine, solve):
    rng = np.random.default_rng(9)
    A, B = rand_rb(rng, 20, 6), rand_rb(rng, 20, 2)
    C, D = rand_rb(rng, 1, 6), rand_rb(rng, 1, 2)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, routine, fail)
    with pytest.raises(FactorizationFailed, match="did not converge"):
        solve(A, B, C, D)


def _repeated_column(rng):
    A = rand_rb(rng, 20, 8).components.copy()
    A[:, :, 1] = A[:, :, 0]
    return rb.RBMatrix(*A)


@pytest.mark.parametrize("solve", [lse_solve_real, lse_solve_complex])
@pytest.mark.parametrize("make_a", [lambda rng: rand_rb(rng, 1, 10),
                                    _repeated_column],
                         ids=["short", "repeated-column"])
def test_non_unique_least_squares_rejected(solve, make_a):
    """A reduced block Ac Q2 without full column rank leaves the least
    squares X free along its null space: a 1x10 A, whose 4 (real) or 2
    (complex) stacked rows are fewer than the 10 unknowns, or a tall A
    with a repeated column.  The baseline refuses both, naming the rank,
    instead of returning the minimum-norm X."""
    rng = np.random.default_rng(8)
    A = make_a(rng)
    m, n = A.shape
    with pytest.raises(AssumptionViolated, match="rank .* not unique"):
        solve(A, rand_rb(rng, m, 2), rb.RBMatrix.zeros(0, n),
              rb.RBMatrix.zeros(0, 2))


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_rank_rule_at_its_threshold(kind, factor):
    """With p = 0, Q2 = I and Ac Q2 = Ac, built in stack space with
    singular values (1, ..., 1, s_n), s_n = factor * max(rows, n) * eps,
    rows = 4m or 2m: at half the rank rule's threshold the least squares
    step is refused, at twice it is solved."""
    rng = np.random.default_rng(10)
    m, n, d = 10, 6, 2
    solve, from_column = ALGEBRAS[kind].lse, ALGEBRAS[kind].from_column
    rows = ALGEBRAS[kind].q * m

    def orthonormal(rows, cols):
        M = rng.standard_normal((rows, cols))
        if kind == "complex":
            M = M + 1j * rng.standard_normal((rows, cols))
        return np.linalg.qr(M)[0]

    s = np.ones(n)
    s[-1] = factor * max(rows, n) * np.finfo(np.float64).eps
    A = from_column((orthonormal(rows, n) * s) @ orthonormal(n, n).conj().T)
    B = rand_rb(rng, m, d)
    C, D = rb.RBMatrix.zeros(0, n), rb.RBMatrix.zeros(0, d)
    if factor < 1.0:
        with pytest.raises(AssumptionViolated, match="rank"):
            solve(A, B, C, D)
    else:
        assert np.all(np.isfinite(solve(A, B, C, D).X))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_constraints_that_fix_x(kind):
    """r = n (n = 4 real or 2 complex, p = 1): the constraint stack Cc is
    square, Ac Q2 has no columns, and X is the solution of Cc X = Dc."""
    rng = np.random.default_rng(11)
    solve, column, n = (ALGEBRAS[kind].lse, ALGEBRAS[kind].column,
                        ALGEBRAS[kind].q)
    m, p, d = 10, 1, 2
    A, B = rand_rb(rng, m, n), rand_rb(rng, m, d)
    C, D = rand_rb(rng, p, n), rand_rb(rng, p, d)
    X = solve(A, B, C, D).X
    want = np.linalg.solve(column(C), column(D))
    assert np.linalg.norm(X - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("variant", ["real", "complex"])
def test_left_unitary_invariance_at_compare_size(variant):
    """(A, B) -> (U A, U B) and (C, D) -> (G C, G D), with U (60 x 60) and
    G (10 x 10) complex unitary embedded by RBMatrix.from_complex, leave
    the baseline's X unchanged on a compare-lse instance (m = 60)."""
    _, pert, _ = gen_compare_instance(1, 60, 3, variant)
    rng = np.random.default_rng(12)

    def unitary(k):
        M = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        return rb.RBMatrix.from_complex(np.linalg.qr(M)[0])

    solve = lse_solve_real if variant == "real" else lse_solve_complex
    U, G = unitary(pert.A.rows), unitary(pert.C.rows)
    X = solve(pert.A, pert.B, pert.C, pert.D).X
    moved = solve(U @ pert.A, U @ pert.B, G @ pert.C, G @ pert.D).X
    assert np.linalg.norm(moved - X) <= 1e-10 * np.linalg.norm(X)
