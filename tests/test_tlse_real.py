"""Solver tests, most of them over both algebras.

The strongest oracle is construction: build a consistent system from a
known real or complex X*, solve, and demand recovery plus near-zero
fitted correction.  Optimality is spot-checked by sampling feasible
correction/solution pairs around the real solver's own answer and
verifying none beats the reported minimum.  The complex solve's own
symmetries are in ``test_tlse_complex.py``.
"""

import dataclasses

import numpy as np
import pytest

import oracles
import rbtlse.rb_core as rb
from instances import ALGEBRAS, consistent, rand_rb
from rbtlse.bench import accuracy_sizes, gen_instance, random_perturbation
from rbtlse.errors import (AssumptionViolated, BlockNotInvertible,
                           ConditioningUndefined, DimensionMismatch,
                           FactorizationFailed, GapConditionFailed,
                           NonFiniteInput, RbtlseError)
from rbtlse.perturbation import PerturbationInstance, epsilon_n
from rbtlse.tlse import (_COND_MAX, _GAP_REL, TlseProblem, TlseSolution,
                         solve_complex, solve_real, residuals_real)


def test_problem_shape_validation():
    rng = np.random.default_rng(0)
    A = rand_rb(rng, 5, 3)
    B = rand_rb(rng, 4, 2)   # wrong row count
    C = rand_rb(rng, 1, 3)
    D = rand_rb(rng, 1, 2)
    with pytest.raises(DimensionMismatch):
        TlseProblem(A=A, B=B, C=C, D=D)
    B2 = rand_rb(rng, 5, 2)
    D2 = rand_rb(rng, 1, 3)  # wrong column count
    with pytest.raises(DimensionMismatch):
        TlseProblem(A=A, B=B2, C=C, D=D2)
    C2 = rand_rb(rng, 1, 4)  # column count other than A's
    with pytest.raises(DimensionMismatch, match="cols but C has"):
        TlseProblem(A=A, B=B2, C=C2, D=D)


@pytest.mark.parametrize("block, bad", [("A", np.nan), ("A", np.inf),
                                        ("A", -np.inf), ("D", np.inf)])
def test_non_finite_input_rejected(block, bad):
    """A nan or inf entry in A or in D is NonFiniteInput.  The block that
    holds it is drawn first, then the others in the order A, B, C, D."""
    (m, n, p, d), entry = {"A": ((30, 10, 2, 2), (0, 3, 4)),
                           "D": ((5, 3, 1, 2), (3, 0, 1))}[block]
    shapes = {"A": (m, n), "B": (m, d), "C": (p, n), "D": (p, d)}
    rng = np.random.default_rng(0)
    blocks = {name: rand_rb(rng, *shapes[name])
              for name in block + "ABCD".replace(block, "")}
    components = blocks[block].components.copy()
    components[entry] = bad
    blocks[block] = rb.RBMatrix(*components)
    with pytest.raises(NonFiniteInput):
        TlseProblem(**blocks)
    assert issubclass(NonFiniteInput, RbtlseError)


@pytest.mark.parametrize("kind, sizes", [
    ("real", (30, 10, 2, 0)), ("real", (30, 0, 0, 2)),
    ("complex", (50, 6, 2, 0)), ("complex", (50, 0, 0, 3))],
    ids=["real-d0", "real-n0", "complex-d0", "complex-n0"])
def test_empty_dimensions_rejected(kind, sizes):
    with pytest.raises(DimensionMismatch):
        gen_instance(kind, sizes, 0)


@pytest.mark.parametrize("kind, cases, uniform", [
    ("real", [(30, 10, 2, 2), (12, 5, 1, 1), (20, 8, 0, 3)], False),
    ("complex", [(50, 6, 2, 3), (15, 6, 1, 2), (20, 8, 0, 2)], True),
], ids=["real", "complex"])
def test_consistent_recovery(kind, cases, uniform):
    rng = np.random.default_rng(1)
    for m, n, p, d in cases:
        prob, Xs = consistent(kind, rng, m, n, p, d, uniform=uniform)
        sol = ALGEBRAS[kind].solve(prob)
        assert np.iscomplexobj(sol.X) == np.iscomplexobj(Xs)
        assert np.linalg.norm(sol.X - Xs) <= 1e-8 * np.linalg.norm(Xs)
        scale = rb.frobenius_norm(oracles.hstack(prob.A, prob.B))
        assert sol.residual_perturbation_norm <= 1e-10 * scale
        e1, e2 = residuals_real(prob, sol)
        assert e1 < 1e-10
        assert e2 < 1e-10


@pytest.mark.parametrize("kind, sizes", [("real", (30, 10, 2, 2)),
                                         ("complex", (50, 6, 2, 3))],
                         ids=["real", "complex"])
def test_solution_satisfies_corrected_system(kind, sizes):
    """(A+E)X = B+F and CX = D hold for whatever X the solver returns,
    consistent data or not."""
    prob = gen_instance("real", sizes, 2)
    sol = ALGEBRAS[kind].solve(prob)
    e1, e2 = residuals_real(prob, sol)
    assert e1 < 1e-10
    assert e2 < 1e-10


@pytest.mark.parametrize("kind, sizes", [("real", (30, 10, 2, 2)),
                                         ("complex", (50, 6, 2, 3))],
                         ids=["real", "complex"])
def test_correction_norm_matches_trailing_singular_values(kind, sizes):
    prob = gen_instance("real", sizes, 3)
    sol = ALGEBRAS[kind].solve(prob)
    _, n, p, _ = sizes
    k = n - ALGEBRAS[kind].q * p
    want = np.sqrt(np.sum(sol.sigma[k:] ** 2))
    assert sol.residual_perturbation_norm == pytest.approx(want, rel=1e-12)
    assert rb.frobenius_norm(oracles.hstack(sol.E_bar, sol.F_bar)) == \
        pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("sizes", [(30, 8, 0, 1), (30, 8, 0, 3),
                                   (30, 8, 1, 1), (30, 8, 1, 4), "t=3"])
def test_correction_matches_closed_form(kind, sizes):
    """At a fixed X with residual R = Ac X - Bc, the smallest correction is
    [E, F] = -R M [X^H, -I] with M = (I + X^H X)^-1, of norm
    ||R M^(1/2)||_F (Golub & Van Loan 1980).  The solver's E_bar, F_bar
    and correction norm are that correction at its own X."""
    if sizes == "t=3":
        sizes = accuracy_sizes(kind, 3)
    column = ALGEBRAS[kind].column
    for seed in range(20):
        prob = gen_instance(kind, sizes, seed)
        sol = ALGEBRAS[kind].solve(prob)
        X, norm = sol.X, sol.residual_perturbation_norm
        R = column(prob.A) @ X - column(prob.B)
        w, V = np.linalg.eigh(np.eye(X.shape[1]) + X.conj().T @ X)
        M = (V / w) @ V.conj().T
        M_half = (V / np.sqrt(w)) @ V.conj().T
        tol = 1e-10 * norm
        assert np.linalg.norm(column(sol.E_bar) + R @ M @ X.conj().T) <= tol
        assert np.linalg.norm(column(sol.F_bar) - R @ M) <= tol
        assert np.linalg.norm(R @ M_half) ** 2 == pytest.approx(
            norm ** 2, rel=1e-10)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_correction_is_formed_once(kind):
    """E_bar and F_bar are formed on first read and then kept."""
    prob = gen_instance(kind, accuracy_sizes(kind, 1), 0)
    sol = ALGEBRAS[kind].solve(prob)
    assert sol.E_bar is sol.E_bar
    assert sol.F_bar is sol.F_bar


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_correction_read_after_conditioning_is_unchanged(kind):
    """The deferred correction reads P and V_check after the solve has
    returned; conditioning the solution first leaves its bits alone."""
    prob = gen_instance(kind, accuracy_sizes(kind, 2), 0)
    before = ALGEBRAS[kind].solve(prob)
    E, F = before.E_bar, before.F_bar
    after = ALGEBRAS[kind].solve(prob)
    ALGEBRAS[kind].condition(prob, after)
    assert after.E_bar == E
    assert after.F_bar == F


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("name", ["sigma", "P", "V_check", "Q1", "R"])
def test_kept_factors_are_read_only(kind, name):
    sol = ALGEBRAS[kind].solve(gen_instance(kind, accuracy_sizes(kind, 1), 0))
    with pytest.raises(ValueError):
        getattr(sol, name).flat[0] = 0.0


def test_solution_fields():
    """A solution keeps what the correction and kappa read and nothing
    more: of the constraint stack S only Q1 and R of the QR of S^H, and
    no inverse map, which the dtype of P selects."""
    assert [f.name for f in dataclasses.fields(TlseSolution)] == [
        "X", "sigma", "gap", "v22_condition", "residual_perturbation_norm",
        "P", "V_check", "Q1", "R", "problem"]


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_solutions_compare_and_hash_by_identity(kind):
    """Solutions hold arrays, so == is identity and hash() works, for the
    total and the constrained least squares solutions alike."""
    problem = gen_instance(kind, accuracy_sizes(kind, 1), 0)
    algebra = ALGEBRAS[kind]
    for solve in (algebra.solve,
                  lambda pr: algebra.lse(pr.A, pr.B, pr.C, pr.D)):
        a, b = solve(problem), solve(problem)
        assert np.array_equal(a.X, b.X)
        assert a == a and a != b
        assert len({a, b, a}) == 2


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_solution_keeps_its_problem(kind):
    problem = gen_instance(kind, accuracy_sizes(kind, 1), 0)
    assert ALGEBRAS[kind].solve(problem).problem is problem


@pytest.mark.parametrize("kind,sizes", [
    ("real", accuracy_sizes("real", 2)),
    ("complex", accuracy_sizes("complex", 2)),
    ("real", (30, 8, 2, 2)),        # k = n - 4p = 0
    ("complex", (30, 8, 4, 2)),     # k = n - 2p = 0
])
def test_gap_and_v22_condition(kind, sizes):
    """gap is sigma[k-1] - sigma[k] (inf when k = 0) and v22_condition
    the 2-norm condition number of V22 = V_check[n:, k:]."""
    sol = ALGEBRAS[kind].solve(gen_instance(kind, sizes, 0))
    n, _ = sol.X.shape
    k = n - sol.R.shape[0]
    assert sol.gap == (np.inf if k == 0 else sol.sigma[k - 1] - sol.sigma[k])
    assert sol.v22_condition == pytest.approx(
        np.linalg.cond(sol.V_check[n:, k:]), rel=1e-12)


def test_constraint_residual_identity():
    """For real X, the constraint residual equals ||C_col (X - X*)||_F
    when D was built from X*."""
    rng = np.random.default_rng(4)
    prob, Xs = consistent("real", rng, 20, 8, 1, 2)
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
    prob, Xs = consistent("real", rng, 25, 6, 0, 2)
    sol = solve_real(prob)
    assert np.linalg.norm(sol.X - Xs) <= 1e-8 * np.linalg.norm(Xs)
    # with p=0 the trailing block keeps n singular values ahead of the gap
    assert sol.sigma.shape[0] == 6 + 2


@pytest.mark.parametrize("kind, sizes, zeta", [("real", (30, 10, 2, 2), 3.7),
                                               ("complex", (30, 6, 1, 2), 0.31)],
                         ids=["real", "complex"])
def test_scaling_equivariance(kind, sizes, zeta):
    prob = gen_instance("real", sizes, 6)
    solve = ALGEBRAS[kind].solve
    sol = solve(prob)
    scaled = TlseProblem(A=prob.A * zeta, B=prob.B * zeta,
                         C=prob.C * zeta, D=prob.D * zeta)
    sol2 = solve(scaled)
    assert np.allclose(sol2.X, sol.X, atol=1e-12 * np.linalg.norm(sol.X))
    assert sol2.residual_perturbation_norm == pytest.approx(
        zeta * sol.residual_perturbation_norm, rel=1e-10)


def test_svd_sign_ambiguity_does_not_move_x():
    """X = -V12 V22^{-1} from the retained trailing basis is invariant
    under column sign flips of that basis."""
    rng = np.random.default_rng(7)
    prob = gen_instance("real", (30, 10, 2, 2), rng)
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
    prob = gen_instance("real", (m, n, p, d), rng)
    sol = solve_real(prob)
    best = sol.residual_perturbation_norm

    # feasible X: C_col X = D_col; the solver's X is feasible, walk the
    # constraint null space around it
    ccol = rb.real_block_column(prob.C)          # (4p, n)
    dcol = rb.real_block_column(prob.D)          # (4p, d)
    assert np.linalg.norm(ccol @ sol.X - dcol) < 1e-10
    # (n, n-4p) null-space basis
    N = np.linalg.qr(ccol.T, mode="complete")[0][:, 4 * p:]

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


def _unconstrained(A, B):
    n, d = A.cols, B.cols
    return TlseProblem(A=A, B=B, C=rb.RBMatrix.zeros(0, n),
                       D=rb.RBMatrix.zeros(0, d))


def _first_column_scaled(M, factor):
    comps = [c.copy() for c in (M.p0, M.p1, M.p2, M.p3)]
    for c in comps:
        c[:, 0] *= factor
    return rb.RBMatrix(*comps)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_gap_condition_failure_raised(kind):
    # [Ac, Bc] with orthonormal columns: every singular value is 1, so
    # there is no gap at all
    solve, from_column = ALGEBRAS[kind].solve, ALGEBRAS[kind].from_column
    rng = np.random.default_rng(9)
    if kind == "real":
        Q = np.linalg.qr(rng.standard_normal((20, 5)))[0]
    else:
        Q = np.linalg.qr(rng.standard_normal((10, 5))
                         + 1j * rng.standard_normal((10, 5)))[0]
    problem = _unconstrained(from_column(Q[:, :3]), from_column(Q[:, 3:]))
    with pytest.raises(GapConditionFailed):
        solve(problem)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_all_zero_data_fails_the_gap_rule(kind):
    # all-zero data: every singular value is exactly 0, so the gap of 0
    # is not above 1e-10 * 0
    solve = ALGEBRAS[kind].solve
    problem = _unconstrained(rb.RBMatrix.zeros(20, 8),
                             rb.RBMatrix.zeros(20, 2))
    with pytest.raises(GapConditionFailed):
        solve(problem)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("p", [0, 1])
def test_zero_right_hand_sides_solve_with_zero_correction(kind, p):
    """B = D = 0: X = 0 solves with no correction, so the trailing
    singular values are 0, which only says the system is compatible;
    kappa, relative to ||X||_F = 0, is undefined."""
    algebra = ALGEBRAS[kind]
    rng = np.random.default_rng(1)
    problem = TlseProblem(A=rand_rb(rng, 6, 5), B=rb.RBMatrix.zeros(6, 2),
                          C=rand_rb(rng, p, 5), D=rb.RBMatrix.zeros(p, 2))
    sol = algebra.solve(problem)
    assert np.all(sol.X == 0)
    assert sol.sigma[-1] == 0.0
    assert sol.residual_perturbation_norm == 0.0
    assert residuals_real(problem, sol) == (0.0, 0.0)
    with pytest.raises(ConditioningUndefined, match="X = 0"):
        algebra.condition(problem, sol)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_constraints_that_fix_x_solve_zero_data(kind):
    """A = B = 0 with r = n: every singular value of P @ Q2 is 0 and
    there is no gap to check (k = 0), and X is the one solution Cc^-1 Dc
    of the constraints."""
    algebra = ALGEBRAS[kind]
    n = algebra.q  # r = q p with p = 1
    rng = np.random.default_rng(2)
    problem = TlseProblem(A=rb.RBMatrix.zeros(3, n), B=rb.RBMatrix.zeros(3, 2),
                          C=rand_rb(rng, 1, n), D=rand_rb(rng, 1, 2))
    sol = algebra.solve(problem)
    S = algebra.column(problem.C, problem.D)
    X = np.linalg.solve(S[:, :n], S[:, n:])
    assert np.linalg.norm(sol.X - X) <= 1e-14 * np.linalg.norm(X)
    brute, _, _ = oracles.brute_kappa(problem, algebra.solve)
    assert algebra.condition(problem, sol).kappa == pytest.approx(
        brute, rel=1e-6)


@pytest.mark.parametrize("kind, n, d", [("real", 3, 2), ("complex", 2, 1)])
def test_wide_reduced_matrix_solves(kind, n, d):
    """One matrix row, p = 0: P has q < n + d rows, yet its n + d
    singular values (the last n + d - q of them 0) have a gap at n, so X
    is unique and its correction norm is that of the trailing d."""
    algebra = ALGEBRAS[kind]
    rng = np.random.default_rng(1)
    problem = _unconstrained(rand_rb(rng, 1, n), rand_rb(rng, 1, d))
    sol = algebra.solve(problem)
    assert sol.sigma.shape == (n + d,)
    assert sol.sigma[-1] == 0.0
    trailing = float(np.linalg.norm(sol.sigma[n:]))
    assert sol.residual_perturbation_norm == pytest.approx(trailing,
                                                           rel=1e-12)
    correction = rb.frobenius_norm(oracles.hstack(sol.E_bar, sol.F_bar))
    assert abs(correction - trailing) <= 1e-12 * problem.data_norm
    brute, _, _ = oracles.brute_kappa(problem, algebra.solve)
    assert algebra.condition(problem, sol).kappa == pytest.approx(
        brute, rel=1e-6)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_block_not_invertible_raised(kind):
    # a nearly zero column of A puts the trailing right singular vectors
    # almost entirely on that column, so V22 is nearly singular
    solve = ALGEBRAS[kind].solve
    rng = np.random.default_rng(11)
    A = _first_column_scaled(rand_rb(rng, 8, 3), 1e-14)
    problem = _unconstrained(A, rand_rb(rng, 8, 2))
    with pytest.raises(BlockNotInvertible):
        solve(problem)


def _prescribed(kind, p, sigma, v22_sv=None) -> TlseProblem:
    """The problem of sizes (6, 6, p, 2) whose stacks
    oracles.prescribed_stacks builds with the spectrum ``sigma`` (and of
    V22 ``v22_sv``), drawn from seed 0."""
    algebra, n = ALGEBRAS[kind], 6
    P, S = oracles.prescribed_stacks(
        np.random.default_rng(0), kind == "complex", algebra.q * 6, n, 2,
        algebra.q * p, sigma, v22_sv)
    return TlseProblem(*(algebra.from_column(M) for M in (
        P[:, :n], P[:, n:], S[:, :n], S[:, n:])))


def _meets_criteria_1_2(problem, solution) -> bool:
    """eps1 and eps2 of criteria 1-2 below 1e-10, normwise relative
    (over ||A|| ||X|| + ||B|| and ||C|| ||X|| + ||D||) as the benchmark's
    solve check applies them: an X near 1/sigma_min(V22) = 5e11 has an
    absolute residual of ~eps * 5e11 however backward stable the solve."""
    eps1, eps2 = residuals_real(problem, solution)
    x, norm = np.linalg.norm(solution.X), rb.frobenius_norm
    return (eps1 <= 1e-10 * (norm(problem.A) * x + norm(problem.B))
            and eps2 <= 1e-10 * (norm(problem.C) * x + norm(problem.D)))


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_gap_rule_at_its_threshold(kind, factor):
    """A prescribed gap sigma_k - sigma_{k+1} of ``factor`` times
    _GAP_REL * sigma_1, with one constraint row: at half the threshold
    the solve refuses, at twice it returns a solution meeting criteria
    1-2."""
    k = 6 - ALGEBRAS[kind].q     # n - r, with sigma_1 = 1
    sigma = np.r_[np.linspace(1.0, 0.5, k), 0.5 - factor * _GAP_REL, 0.25]
    problem = _prescribed(kind, 1, sigma)
    solve = ALGEBRAS[kind].solve
    if factor < 1:
        with pytest.raises(GapConditionFailed):
            solve(problem)
        return
    solution = solve(problem)
    assert solution.gap == pytest.approx(factor * _GAP_REL, rel=1e-3)
    assert _meets_criteria_1_2(problem, solution)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_v22_rule_at_its_threshold(kind, factor):
    """A prescribed sigma_min(V22) of ``factor`` / _COND_MAX (p = 0, so
    V22 is a block of the right singular vectors): at half the threshold
    the solve refuses, at twice it returns a solution meeting criteria
    1-2."""
    sigma = np.r_[np.linspace(1.0, 0.5, 6), 0.1, 0.05]
    problem = _prescribed(kind, 0, sigma, [1.0, factor / _COND_MAX])
    solve = ALGEBRAS[kind].solve
    if factor < 1:
        with pytest.raises(BlockNotInvertible):
            solve(problem)
        return
    solution = solve(problem)
    assert solution.v22_condition == pytest.approx(_COND_MAX / factor,
                                                   rel=1e-3)
    assert _meets_criteria_1_2(problem, solution)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_data_norm_is_norm_of_the_stacks(kind):
    """||[J, K]||_F equals the norm of either algebra's stacks P and S,
    which the condition number scales by."""
    problem, _ = consistent("real", np.random.default_rng(12), 12, 4, 1, 2)
    sol = ALGEBRAS[kind].solve(problem)
    assert problem.data_norm == pytest.approx(
        np.linalg.norm(np.vstack([oracles.constraint_stack(sol), sol.P])),
        rel=1e-14)


def test_data_norm_sums_in_stacked_order():
    """data_norm sums the squares of the stacked matrix [[C, D], [A, B]]
    component by component, so it matches the norm of that RBMatrix bit
    for bit; another summation order differs in the last bit on some of
    these instances."""
    for seed in range(10):
        problem = gen_instance("real", (40, 10, 2, 3), seed)
        A, B, C, D = problem.A, problem.B, problem.C, problem.D
        stacked = oracles.hstack(oracles.vstack(C, A), oracles.vstack(D, B))
        assert problem.data_norm == rb.frobenius_norm(stacked)


@pytest.mark.parametrize("sizes", [(12, 4, 2, 3), (12, 4, 0, 3),
                                   (12, 4, 2, 1), (12, 4, 0, 1)])
@pytest.mark.parametrize("scale", [1.0, 2.0 ** -520, 2.0 ** 520])
def test_data_norm_matches_the_block_oracle(sizes, scale):
    """data_norm equals the scale-safe norm of the four components of
    np.block([[C, D], [A, B]]) bit for bit, on the plain sum and on the
    rescaled one that underflow or overflow selects."""
    for seed in range(5):
        drawn = gen_instance("real", sizes, seed)
        A, B, C, D = (M * scale for M in (drawn.A, drawn.B, drawn.C, drawn.D))
        problem = TlseProblem(A=A, B=B, C=C, D=D)
        expected = rb._norm(*np.block([[C.components, D.components],
                                       [A.components, B.components]]))
        assert problem.data_norm == expected


def test_data_norm_is_computed_once(monkeypatch):
    """data_norm is summed on first read and then kept, with the value of
    the stacked-order sum."""
    problem = gen_instance("real", (40, 10, 2, 3), 3)
    A, B, C, D = problem.A, problem.B, problem.C, problem.D
    calls = []
    norm = rb._norm
    monkeypatch.setattr(rb, "_norm", lambda *a: calls.append(1) or norm(*a))
    first = problem.data_norm
    assert problem.data_norm == first and len(calls) == 1
    stacked = oracles.hstack(oracles.vstack(C, A), oracles.vstack(D, B))
    assert first == rb.frobenius_norm(stacked)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("e", [-170, -160, -150, 150, 160, 170])
def test_correction_norm_at_extreme_scale(kind, e):
    """Scaling all data by 10**e scales X by 1 and every norm by 10**e,
    where plain sums of squares over- or underflow: the correction norm,
    the residuals eps1 and eps2, the perturbation size eps_n (data and
    deltas scaled alike) and the LSE baseline's X."""
    solve, lse_solve = ALGEBRAS[kind].solve, ALGEBRAS[kind].lse
    prob = gen_instance(kind, accuracy_sizes(kind, 2), 0)
    sol = solve(prob)
    z = 10.0 ** e
    scaled_prob = TlseProblem(A=prob.A * z, B=prob.B * z, C=prob.C * z,
                              D=prob.D * z)
    scaled = solve(scaled_prob)
    assert np.isfinite(scaled.residual_perturbation_norm)
    assert scaled.residual_perturbation_norm == pytest.approx(
        z * sol.residual_perturbation_norm, rel=1e-12)
    assert np.linalg.norm(scaled.X - sol.X) <= 1e-12 * np.linalg.norm(sol.X)

    data_norm = z * rb.frobenius_norm(
        oracles.hstack(oracles.vstack(prob.C, prob.A),
                       oracles.vstack(prob.D, prob.B)))
    for eps in residuals_real(scaled_prob, scaled):
        assert np.isfinite(eps) and eps > 0.0
        assert eps <= 1e-10 * data_norm * (1 + np.linalg.norm(sol.X))

    inst = random_perturbation(prob, np.random.default_rng(1), 1e-8)
    dl = inst.delta
    scaled_inst = PerturbationInstance(scaled_prob, TlseProblem(
        A=dl.A * z, B=dl.B * z, C=dl.C * z, D=dl.D * z))
    assert epsilon_n(scaled_inst) == pytest.approx(epsilon_n(inst),
                                                   rel=1e-12)

    base = lse_solve(prob.A, prob.B, prob.C, prob.D)
    lse = lse_solve(scaled_prob.A, scaled_prob.B, scaled_prob.C,
                    scaled_prob.D)
    assert np.linalg.norm(lse.X - base.X) <= 1e-12 * np.linalg.norm(base.X)


@pytest.mark.parametrize("kind, seed", [("real", 12), ("complex", 10)],
                         ids=["real", "complex"])
def test_rank_deficient_constraint_rejected(kind, seed):
    rng = np.random.default_rng(seed)
    A = rand_rb(rng, 20, 8)
    B = rand_rb(rng, 20, 2)
    C = rb.RBMatrix.zeros(1, 8)
    D = rb.RBMatrix.zeros(1, 2)
    with pytest.raises(AssumptionViolated):
        ALGEBRAS[kind].solve(TlseProblem(A=A, B=B, C=C, D=D))


@pytest.mark.parametrize("kind, sizes, seed", [("real", (30, 10, 3, 2), 13),
                                               ("complex", (30, 6, 4, 2), 8)],
                         ids=["real", "complex"])
def test_too_many_constraints_rejected(kind, sizes, seed):
    # r = q p exceeds n: 12 > 10 real, 8 > 6 complex
    problem = gen_instance("real", sizes, seed)
    with pytest.raises(AssumptionViolated):
        ALGEBRAS[kind].solve(problem)


@pytest.mark.parametrize("kind, n, seed", [("real", 10, 14),
                                           ("complex", 6, 9)],
                         ids=["real", "complex"])
def test_too_few_rows_rejected(kind, n, seed):
    # q m < n - q p (4 < 10 real, 2 < 6 complex): singular values n and
    # n + 1 of P are both 0
    rng = np.random.default_rng(seed)
    with pytest.raises(GapConditionFailed):
        ALGEBRAS[kind].solve(_unconstrained(rand_rb(rng, 1, n),
                                            rand_rb(rng, 1, 2)))


def test_default_tolerances():
    assert _GAP_REL == 1e-10
    assert _COND_MAX == 1e12


def _fail_linalg(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.mark.parametrize("routine", ["svd", "qr"])
@pytest.mark.parametrize("solve", [solve_real, solve_complex])
@pytest.mark.parametrize("p", [0, 1])
def test_lapack_failure_is_factorization_failed(monkeypatch, routine, solve,
                                                p):
    problem = gen_instance("real", (20, 6, p, 2), 15)
    monkeypatch.setattr(np.linalg, routine, _fail_linalg)
    with pytest.raises(FactorizationFailed, match="did not converge"):
        solve(problem)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("solve", ["solve", "lse_solve"])
def test_entry_points_call_the_block_column_map(monkeypatch, kind, solve):
    """Each entry point looks its algebra's map up in rb_core when it is
    called and builds the stacks P and S with one call each, so a wrapper
    put on rb_core's function sees both calls."""
    name = f"{kind}_block_column"
    column = getattr(rb, name)
    calls = []

    def counting(*blocks):
        calls.append(len(blocks))
        return column(*blocks)

    problem = gen_instance(kind, accuracy_sizes(kind, 1), 0)
    monkeypatch.setattr(rb, name, counting)
    if solve == "solve":
        ALGEBRAS[kind].solve(problem)
    else:
        ALGEBRAS[kind].lse(problem.A, problem.B, problem.C, problem.D)
    assert calls == [2, 2]


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_residuals_refuse_another_problem(kind):
    """The residuals read the problem beside the solution's X and
    correction, so a problem of other sizes or other data is refused, as
    conditioning refuses it; a copy of the solved data is accepted."""
    sizes = accuracy_sizes(kind, 1)
    prob = gen_instance(kind, sizes, 0)
    sol = ALGEBRAS[kind].solve(prob)
    taller = gen_instance(kind, (sizes[0] + 1, *sizes[1:]), 0)
    with pytest.raises(DimensionMismatch, match="do not match"):
        residuals_real(taller, sol)
    with pytest.raises(ConditioningUndefined, match="differ"):
        residuals_real(gen_instance(kind, sizes, 1), sol)
    copy = TlseProblem(A=prob.A, B=prob.B, C=prob.C, D=prob.D)
    assert residuals_real(copy, sol) == residuals_real(prob, sol)


@pytest.mark.parametrize("t", [1, 3, 5])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_residuals_are_the_rb_product_formula(kind, t):
    """The residuals, which multiply the plain X on the complex block
    column, equal bit for bit the RB-product formula with X embedded as
    X + 0*j, on the seed-0 accuracy run's instance of each t."""
    problem = gen_instance(kind, accuracy_sizes(kind, t), 1000 * t)
    sol = ALGEBRAS[kind].solve(problem)
    x_rb = rb.RBMatrix.from_complex(sol.X)
    want = (rb.frobenius_norm(rb.mat_mul(problem.A + sol.E_bar, x_rb)
                              - (problem.B + sol.F_bar)),
            rb.frobenius_norm(rb.mat_mul(problem.C, x_rb) - problem.D))
    assert residuals_real(problem, sol) == want
