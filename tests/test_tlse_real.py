"""Real-solution solver tests.

The strongest oracle is construction: build a consistent system from a
known real X*, solve, and demand recovery plus near-zero fitted
correction.  Optimality is spot-checked by sampling feasible
correction/solution pairs around the solver's own answer and verifying
none beats the reported minimum.
"""

import dataclasses

import numpy as np
import pytest

import oracles
import rbtlse.rb_core as rb
from rbtlse.bench import accuracy_sizes, gen_instance, random_perturbation
from rbtlse.errors import (AssumptionViolated, BlockNotInvertible,
                           ConditioningUndefined, DegenerateSpectrum,
                           DimensionMismatch,
                           FactorizationFailed, GapConditionFailed,
                           NonFiniteInput, RbtlseError)
from rbtlse.perturbation import (PerturbationInstance, condition_complex,
                                 condition_real, epsilon_n)
from rbtlse.tlse import (_COND_MAX, _GAP_REL, TlseProblem, TlseSolution,
                         lse_solve_complex, lse_solve_real, solve_complex,
                         solve_real, residuals_real)

ALGEBRAS = {"real": solve_real, "complex": solve_complex}
CONDITION = {"real": condition_real, "complex": condition_complex}
LSE = {"real": lse_solve_real, "complex": lse_solve_complex}


def _rand_rb(rng, m, n):
    return rb.RBMatrix(*(rng.standard_normal((m, n)) for _ in range(4)))


def _consistent(rng, m, n, p, d):
    A = _rand_rb(rng, m, n)
    C = _rand_rb(rng, p, n) if p > 0 else rb.RBMatrix.zeros(0, n)
    Xs = rng.standard_normal((n, d))
    Xrb = rb.RBMatrix.from_real(Xs)
    B = rb.mat_mul(A, Xrb)
    D = rb.mat_mul(C, Xrb) if p > 0 else rb.RBMatrix.zeros(0, d)
    return TlseProblem(A=A, B=B, C=C, D=D), Xs


def test_problem_shape_validation():
    rng = np.random.default_rng(0)
    A = _rand_rb(rng, 5, 3)
    B = _rand_rb(rng, 4, 2)   # wrong row count
    C = _rand_rb(rng, 1, 3)
    D = _rand_rb(rng, 1, 2)
    with pytest.raises(DimensionMismatch):
        TlseProblem(A=A, B=B, C=C, D=D)
    B2 = _rand_rb(rng, 5, 2)
    D2 = _rand_rb(rng, 1, 3)  # wrong column count
    with pytest.raises(DimensionMismatch):
        TlseProblem(A=A, B=B2, C=C, D=D2)
    C2 = _rand_rb(rng, 1, 4)  # column count other than A's
    with pytest.raises(DimensionMismatch, match="cols but C has"):
        TlseProblem(A=A, B=B2, C=C2, D=D)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    rng = np.random.default_rng(0)
    A = _rand_rb(rng, 30, 10)
    p0 = A.p0.copy()
    p0[3, 4] = bad
    A_bad = rb.RBMatrix(p0, A.p1, A.p2, A.p3)
    with pytest.raises(NonFiniteInput):
        TlseProblem(A=A_bad, B=_rand_rb(rng, 30, 2),
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
        scale = rb.frobenius_norm(oracles.hstack(prob.A, prob.B))
        assert sol.residual_perturbation_norm <= 1e-10 * scale
        e1, e2 = residuals_real(prob, sol)
        assert e1 < 1e-10
        assert e2 < 1e-10


def test_solution_satisfies_corrected_system():
    """(A+E)X = B+F and CX = D hold for whatever X the solver returns,
    consistent data or not."""
    rng = np.random.default_rng(2)
    m, n, p, d = 30, 10, 2, 2
    prob = TlseProblem(A=_rand_rb(rng, m, n), B=_rand_rb(rng, m, d),
                       C=_rand_rb(rng, p, n), D=_rand_rb(rng, p, d))
    sol = solve_real(prob)
    e1, e2 = residuals_real(prob, sol)
    assert e1 < 1e-10
    assert e2 < 1e-10


def test_correction_norm_matches_trailing_singular_values():
    rng = np.random.default_rng(3)
    prob = TlseProblem(A=_rand_rb(rng, 30, 10), B=_rand_rb(rng, 30, 2),
                       C=_rand_rb(rng, 2, 10), D=_rand_rb(rng, 2, 2))
    sol = solve_real(prob)
    n = 10
    k = n - 4 * 2
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
    column = rb.real_block_column if kind == "real" else rb.complex_block_column
    for seed in range(20):
        prob = gen_instance(kind, sizes, seed)
        sol = ALGEBRAS[kind](prob)
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
    sol = ALGEBRAS[kind](prob)
    assert sol.E_bar is sol.E_bar
    assert sol.F_bar is sol.F_bar


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_correction_read_after_conditioning_is_unchanged(kind):
    """The deferred correction reads P and V_check after the solve has
    returned; conditioning the solution first leaves its bits alone."""
    prob = gen_instance(kind, accuracy_sizes(kind, 2), 0)
    before = ALGEBRAS[kind](prob)
    E, F = before.E_bar, before.F_bar
    after = ALGEBRAS[kind](prob)
    CONDITION[kind](prob, after)
    assert after.E_bar == E
    assert after.F_bar == F


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("name", ["P", "V_check", "Q1", "R"])
def test_kept_factors_are_read_only(kind, name):
    sol = ALGEBRAS[kind](gen_instance(kind, accuracy_sizes(kind, 1), 0))
    with pytest.raises(ValueError):
        getattr(sol, name)[0, 0] = 0.0


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
    lse = {"real": lse_solve_real, "complex": lse_solve_complex}[kind]
    for solve in (ALGEBRAS[kind],
                  lambda pr: lse(pr.A, pr.B, pr.C, pr.D)):
        a, b = solve(problem), solve(problem)
        assert np.array_equal(a.X, b.X)
        assert a == a and a != b
        assert len({a, b, a}) == 2


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_solution_keeps_its_problem(kind):
    problem = gen_instance(kind, accuracy_sizes(kind, 1), 0)
    assert ALGEBRAS[kind](problem).problem is problem


@pytest.mark.parametrize("kind,sizes", [
    ("real", accuracy_sizes("real", 2)),
    ("complex", accuracy_sizes("complex", 2)),
    ("real", (30, 8, 2, 2)),        # k = n - 4p = 0
    ("complex", (30, 8, 4, 2)),     # k = n - 2p = 0
])
def test_gap_and_v22_condition(kind, sizes):
    """gap is sigma[k-1] - sigma[k] (inf when k = 0) and v22_condition
    the 2-norm condition number of V22 = V_check[n:, k:]."""
    sol = ALGEBRAS[kind](gen_instance(kind, sizes, 0))
    n, _ = sol.X.shape
    k = n - sol.R.shape[0]
    assert sol.gap == (np.inf if k == 0 else sol.sigma[k - 1] - sol.sigma[k])
    assert sol.v22_condition == pytest.approx(
        np.linalg.cond(sol.V_check[n:, k:]), rel=1e-12)


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
    prob = TlseProblem(A=_rand_rb(rng, 30, 10), B=_rand_rb(rng, 30, 2),
                       C=_rand_rb(rng, 2, 10), D=_rand_rb(rng, 2, 2))
    sol = solve_real(prob)
    zeta = 3.7
    scaled = TlseProblem(A=prob.A * zeta, B=prob.B * zeta,
                         C=prob.C * zeta, D=prob.D * zeta)
    sol2 = solve_real(scaled)
    assert np.allclose(sol2.X, sol.X, atol=1e-12 * np.linalg.norm(sol.X))
    assert sol2.residual_perturbation_norm == pytest.approx(
        zeta * sol.residual_perturbation_norm, rel=1e-10)


def test_svd_sign_ambiguity_does_not_move_x():
    """X = -V12 V22^{-1} from the retained trailing basis is invariant
    under column sign flips of that basis."""
    rng = np.random.default_rng(7)
    prob = TlseProblem(A=_rand_rb(rng, 30, 10), B=_rand_rb(rng, 30, 2),
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
    prob = TlseProblem(A=_rand_rb(rng, m, n), B=_rand_rb(rng, m, d),
                       C=_rand_rb(rng, p, n), D=_rand_rb(rng, p, d))
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
    solve = ALGEBRAS[kind]
    rng = np.random.default_rng(9)
    if kind == "real":
        Q = np.linalg.qr(rng.standard_normal((20, 5)))[0]
        from_column = rb.from_real_block_column
    else:
        Q = np.linalg.qr(rng.standard_normal((10, 5))
                         + 1j * rng.standard_normal((10, 5)))[0]
        from_column = rb.from_complex_block_column
    problem = _unconstrained(from_column(Q[:, :3]), from_column(Q[:, 3:]))
    with pytest.raises(GapConditionFailed):
        solve(problem)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_degenerate_spectrum_raised(kind):
    # all-zero data: every singular value is exactly 0
    solve = ALGEBRAS[kind]
    problem = _unconstrained(rb.RBMatrix.zeros(20, 8),
                             rb.RBMatrix.zeros(20, 2))
    with pytest.raises(DegenerateSpectrum):
        solve(problem)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_block_not_invertible_raised(kind):
    # a nearly zero column of A puts the trailing right singular vectors
    # almost entirely on that column, so V22 is nearly singular
    solve = ALGEBRAS[kind]
    rng = np.random.default_rng(11)
    A = _first_column_scaled(_rand_rb(rng, 8, 3), 1e-14)
    problem = _unconstrained(A, _rand_rb(rng, 8, 2))
    with pytest.raises(BlockNotInvertible):
        solve(problem)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_data_norm_is_norm_of_the_stacks(kind):
    """||[J, K]||_F equals the norm of either algebra's stacks P and S,
    which the condition number scales by."""
    problem, _ = _consistent(np.random.default_rng(12), 12, 4, 1, 2)
    sol = ALGEBRAS[kind](problem)
    assert problem.data_norm == pytest.approx(
        np.linalg.norm(np.vstack([oracles.constraint_stack(sol), sol.P])),
        rel=1e-14)


def test_data_norm_sums_in_stacked_order():
    """data_norm sums the squares of the stacked matrix [[C, D], [A, B]]
    component by component, so it matches the norm of that RBMatrix bit
    for bit; another summation order differs in the last bit on some of
    these instances."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        A, B, C, D = (_rand_rb(rng, rows, cols) for rows, cols in
                      ((40, 10), (40, 3), (2, 10), (2, 3)))
        problem = TlseProblem(A=A, B=B, C=C, D=D)
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
    rng = np.random.default_rng(3)
    A, B, C, D = (_rand_rb(rng, rows, cols) for rows, cols in
                  ((40, 10), (40, 3), (2, 10), (2, 3)))
    problem = TlseProblem(A=A, B=B, C=C, D=D)
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
    solve = ALGEBRAS[kind]
    lse_solve = lse_solve_real if kind == "real" else lse_solve_complex
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


def test_rank_deficient_constraint_rejected():
    rng = np.random.default_rng(12)
    A = _rand_rb(rng, 20, 8)
    B = _rand_rb(rng, 20, 2)
    C = rb.RBMatrix.zeros(1, 8)
    D = rb.RBMatrix.zeros(1, 2)
    with pytest.raises(AssumptionViolated):
        solve_real(TlseProblem(A=A, B=B, C=C, D=D))


def test_too_many_constraints_rejected():
    rng = np.random.default_rng(13)
    # 4p = 12 > n = 10
    prob_args = dict(A=_rand_rb(rng, 30, 10), B=_rand_rb(rng, 30, 2),
                     C=_rand_rb(rng, 3, 10), D=_rand_rb(rng, 3, 2))
    with pytest.raises(AssumptionViolated):
        solve_real(TlseProblem(**prob_args))


def test_too_few_rows_rejected():
    rng = np.random.default_rng(14)
    # 4m = 4 < n + d - 4p = 12
    prob_args = dict(A=_rand_rb(rng, 1, 10), B=_rand_rb(rng, 1, 2),
                     C=rb.RBMatrix.zeros(0, 10), D=rb.RBMatrix.zeros(0, 2))
    with pytest.raises(AssumptionViolated):
        solve_real(TlseProblem(**prob_args))


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
    rng = np.random.default_rng(15)
    problem = TlseProblem(A=_rand_rb(rng, 20, 6), B=_rand_rb(rng, 20, 2),
                          C=_rand_rb(rng, p, 6), D=_rand_rb(rng, p, 2))
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
        ALGEBRAS[kind](problem)
    else:
        LSE[kind](problem.A, problem.B, problem.C, problem.D)
    assert calls == [2, 2]


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_residuals_refuse_another_problem(kind):
    """The residuals read the problem beside the solution's X and
    correction, so a problem of other sizes or other data is refused, as
    conditioning refuses it; a copy of the solved data is accepted."""
    sizes = accuracy_sizes(kind, 1)
    prob = gen_instance(kind, sizes, 0)
    sol = ALGEBRAS[kind](prob)
    taller = gen_instance(kind, (sizes[0] + 1, *sizes[1:]), 0)
    with pytest.raises(DimensionMismatch, match="do not match"):
        residuals_real(taller, sol)
    with pytest.raises(ConditioningUndefined, match="differ"):
        residuals_real(gen_instance(kind, sizes, 1), sol)
    copy = TlseProblem(A=prob.A, B=prob.B, C=prob.C, D=prob.D)
    assert residuals_real(copy, sol) == residuals_real(prob, sol)
