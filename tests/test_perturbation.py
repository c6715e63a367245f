"""Condition number and first-order bound tests.

The deep oracle: on a small instance, the condition number must equal
the spectral norm of the actual solution-map Jacobian (built column by
column with central finite differences by ``oracles.brute_kappa``),
scaled by the data and solution norms.  Everything else checks the
result against a dense reference product, invariances, and the bound's
empirical validity.

The dense reference (``oracles.dense_condition_factors``) builds H, G and
Z with Kronecker products and the commutation matrix from the stack P and
singular vectors a solution keeps and the constraint stack S rebuilt from
the problem, with its own SVD and pseudoinverse of S, and takes the SVD of
their product; the library must reproduce its norm from the nd x nd Gram
matrix.
"""

import numpy as np
import pytest

import oracles
import rbtlse.perturbation as perturbation
import rbtlse.rb_core as rb
from rbtlse.bench import accuracy_sizes, gen_instance, random_perturbation
from rbtlse.errors import (AssumptionViolated, BlockNotInvertible,
                           ConditioningUndefined, DimensionMismatch,
                           NonFiniteInput)
from rbtlse.perturbation import (PerturbationInstance, _gram,
                                 condition_real, condition_complex,
                                 epsilon_n, scaled_to)
from rbtlse.tlse import TlseProblem, solve_complex, solve_real


def _rand_rb(rng, m, n, uniform=False):
    draw = rng.random if uniform else rng.standard_normal
    return rb.RBMatrix(*(draw((m, n)) for _ in range(4)))


def _real_problem(seed, m=30, n=10, p=2, d=2):
    rng = np.random.default_rng(seed)
    return TlseProblem(A=_rand_rb(rng, m, n), B=_rand_rb(rng, m, d),
                       C=_rand_rb(rng, p, n), D=_rand_rb(rng, p, d))


def _complex_problem(seed, m=30, n=6, p=2, d=3):
    rng = np.random.default_rng(seed)
    return TlseProblem(
        A=_rand_rb(rng, m, n, True), B=_rand_rb(rng, m, d, True),
        C=_rand_rb(rng, p, n, True), D=_rand_rb(rng, p, d, True))


def _rand_instance(problem, rng):
    m, n, p, d = problem.sizes
    return PerturbationInstance(problem, TlseProblem(
        A=_rand_rb(rng, m, n), B=_rand_rb(rng, m, d),
        C=_rand_rb(rng, p, n), D=_rand_rb(rng, p, d)))


# ---------------------------------------------------------------------------
# epsilon_n
# ---------------------------------------------------------------------------

def test_epsilon_n_zero_and_one():
    prob = _real_problem(0)
    m, n, p, d = prob.sizes
    zero = PerturbationInstance(prob, TlseProblem(
        A=rb.RBMatrix.zeros(m, n), B=rb.RBMatrix.zeros(m, d),
        C=rb.RBMatrix.zeros(p, n), D=rb.RBMatrix.zeros(p, d)))
    assert epsilon_n(zero) == 0.0
    copy = PerturbationInstance(prob, prob)
    assert epsilon_n(copy) == pytest.approx(1.0, rel=1e-15)


def test_epsilon_n_matches_representation_route():
    prob = _real_problem(1)
    rng = np.random.default_rng(2)
    inst = _rand_instance(prob, rng)
    # independent route: stacked leading block columns
    def col(M):
        return rb.real_block_column(M)
    dl = inst.delta
    num = np.sqrt(np.linalg.norm(np.vstack([col(dl.C), col(dl.A)])) ** 2
                  + np.linalg.norm(np.vstack([col(dl.D), col(dl.B)])) ** 2)
    den = np.sqrt(np.linalg.norm(np.vstack([col(prob.C), col(prob.A)])) ** 2
                  + np.linalg.norm(np.vstack([col(prob.D), col(prob.B)])) ** 2)
    assert epsilon_n(inst) == pytest.approx(num / den, rel=1e-14)


def test_epsilon_n_homogeneity():
    prob = _real_problem(3)
    rng = np.random.default_rng(4)
    inst = _rand_instance(prob, rng)
    e = epsilon_n(inst)
    dl = inst.delta
    half = PerturbationInstance(prob, TlseProblem(
        A=dl.A * 0.5, B=dl.B * 0.5, C=dl.C * 0.5, D=dl.D * 0.5))
    assert epsilon_n(half) == pytest.approx(0.5 * e, rel=1e-14)


def test_scaled_to_hits_target():
    prob = _real_problem(5)
    rng = np.random.default_rng(6)
    inst = _rand_instance(prob, rng)
    for target in (0.0, 1e-11, 1e-8, 1e-5):
        assert epsilon_n(scaled_to(inst, target)) == pytest.approx(
            target, rel=1e-14)


def test_scaled_to_rejects_zero_direction():
    prob = _real_problem(7)
    m, n, p, d = prob.sizes
    zero = PerturbationInstance(prob, TlseProblem(
        A=rb.RBMatrix.zeros(m, n), B=rb.RBMatrix.zeros(m, d),
        C=rb.RBMatrix.zeros(p, n), D=rb.RBMatrix.zeros(p, d)))
    with pytest.raises(ConditioningUndefined):
        scaled_to(zero, 1e-8)


@pytest.mark.parametrize("target", [-1e-5, -np.inf, np.inf, np.nan])
def test_scaled_to_rejects_a_bad_target(target):
    """A negative target would give eps_n = |target|, and a nan or inf one
    a non-finite delta; both are refused, directly and through the
    harness's random_perturbation."""
    prob = _real_problem(7)
    inst = _rand_instance(prob, np.random.default_rng(7))
    with pytest.raises(ConditioningUndefined, match="eps_target"):
        scaled_to(inst, target)
    with pytest.raises(ConditioningUndefined, match="eps_target"):
        random_perturbation(prob, np.random.default_rng(7), target)


def test_epsilon_n_of_an_all_zero_problem_is_undefined():
    """eps_n is relative to ||[J, K]||_F, which is 0 for all-zero data."""
    prob = _real_problem(7)
    m, n, p, d = prob.sizes
    zero = TlseProblem(
        A=rb.RBMatrix.zeros(m, n), B=rb.RBMatrix.zeros(m, d),
        C=rb.RBMatrix.zeros(p, n), D=rb.RBMatrix.zeros(p, d))
    with pytest.raises(ConditioningUndefined, match="undefined"):
        epsilon_n(PerturbationInstance(zero, prob))


@pytest.mark.parametrize("grown", range(4), ids=["m", "n", "p", "d"])
def test_instance_rejects_a_delta_of_other_sizes(grown):
    prob = _real_problem(10)
    other = _real_problem(
        10, *[s + (i == grown) for i, s in enumerate(prob.sizes)])
    with pytest.raises(DimensionMismatch, match="delta sizes"):
        PerturbationInstance(prob, other)


@pytest.mark.parametrize("block", "ABCD")
def test_instance_rejects_a_non_finite_delta(block):
    """A nan in a delta is refused when the instance is built, not at
    epsilon_n or perturbed()."""
    prob = _real_problem(11)
    components = getattr(prob, block).components.copy()
    components[0, 0, 0] = np.nan
    blocks = {name: getattr(prob, name) for name in "ABCD"}
    blocks[block] = rb.RBMatrix(*components)
    with pytest.raises(NonFiniteInput):
        PerturbationInstance(prob, TlseProblem(**blocks))


def test_perturbed_problem_adds_all_blocks():
    prob = _real_problem(8)
    rng = np.random.default_rng(9)
    inst = _rand_instance(prob, rng)
    pp = inst.perturbed()
    assert pp.A == prob.A + inst.delta.A
    assert pp.D == prob.D + inst.delta.D


# ---------------------------------------------------------------------------
# condition number: exactness against a brute-force Jacobian
# ---------------------------------------------------------------------------

def _consistent(problem, solve, seed):
    """The same A and C with B = A X and D = C X for a random X of the
    algebra ``solve`` solves in: the trailing singular values drop to
    ~1e-15."""
    m, n, p, d = problem.sizes
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    if solve is solve_complex:
        X = X + 1j * rng.standard_normal((n, d))
    Xrb = rb.RBMatrix.from_complex(X)
    return TlseProblem(A=problem.A, B=rb.mat_mul(problem.A, Xrb),
                       C=problem.C, D=rb.mat_mul(problem.C, Xrb))


def test_kappa_equals_brute_force_jacobian_real():
    noisy = _real_problem(10, m=8, n=4, p=1, d=2)
    for prob in (noisy, _consistent(noisy, solve_real, 26),
                 _real_problem(0, m=12, n=9, p=2, d=2),
                 _real_problem(0, m=8, n=5, p=1, d=5)):
        brute, sol, _ = oracles.brute_kappa(prob, solve_real)
        kappa = condition_real(prob, sol).kappa
        assert kappa == pytest.approx(brute, rel=1e-6)


def test_kappa_equals_brute_force_jacobian_complex():
    noisy = _complex_problem(11, m=8, n=4, p=1, d=2)
    for prob in (noisy, _consistent(noisy, solve_complex, 27),
                 _complex_problem(0, m=12, n=5, p=2, d=2),
                 _complex_problem(0, m=8, n=3, p=1, d=3)):
        brute, sol, _ = oracles.brute_kappa(prob, solve_complex)
        kappa = condition_complex(prob, sol).kappa
        assert brute == pytest.approx(kappa, rel=1e-6)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_kappa_at_experiment_size(kind):
    """At the accuracy experiments' t = 1 size, kappa equals the
    brute-force Jacobian's norm, and a perturbation along the Jacobian's
    top right singular vector moves X by kappa * eps_n to first order, so
    a kappa that is too large fails as well as one that is too small."""
    sizes = accuracy_sizes(kind, 1)
    solve, condition = ((solve_real, condition_real) if kind == "real"
                        else (solve_complex, condition_complex))
    prob = gen_instance(kind, sizes, 0)
    brute, sol, J = oracles.brute_kappa(prob, solve)
    kappa = condition(prob, sol).kappa
    assert kappa == pytest.approx(brute, rel=1e-6)

    # split J's top right singular vector in its column order: blocks
    # A, B, C, D, then components, rows, columns
    top = np.linalg.svd(J, full_matrices=False)[2][0]
    m, n, p, d = sizes
    deltas, start = [], 0
    for rows, cols in ((m, n), (m, d), (p, n), (p, d)):
        stop = start + 4 * rows * cols
        deltas.append(rb.RBMatrix(*top[start:stop].reshape(4, rows, cols)))
        start = stop
    eps = 1e-8
    inst = scaled_to(PerturbationInstance(prob, TlseProblem(*deltas)), eps)
    fwd = (np.linalg.norm(solve(inst.perturbed()).X - sol.X)
           / np.linalg.norm(sol.X))
    assert 0.99 <= fwd / (kappa * eps) <= 1.01


def _left_factor(unit, size):
    """The size x size RB matrix that left-multiplies the data: the
    diagonal matrix of the unit j or k, or for "unitary" a random complex
    unitary matrix embedded by RBMatrix.from_complex."""
    if unit == "unitary":
        rng = np.random.default_rng(size)
        M = (rng.standard_normal((size, size))
             + 1j * rng.standard_normal((size, size)))
        return rb.RBMatrix.from_complex(np.linalg.qr(M)[0])
    eye, zero = np.eye(size), np.zeros((size, size))
    return (rb.RBMatrix(zero, zero, eye, zero) if unit == "j"
            else rb.RBMatrix(zero, zero, zero, eye))


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("t", [10, 20])
@pytest.mark.parametrize("unit", ["j", "k", "unitary"])
def test_rb_unit_leaves_x_and_kappa_at_experiment_size(kind, t, unit):
    """Left-multiplying (A, B) and (C, D) by the diagonal RB matrix of j
    or k, or by a complex unitary matrix, multiplies each stack by a
    unitary matrix (real orthogonal for the real stacks; a signed row
    permutation for j and k), so X, the correction norm and kappa do not
    change."""
    solve, condition = ((solve_real, condition_real) if kind == "real"
                        else (solve_complex, condition_complex))
    prob = gen_instance(kind, accuracy_sizes(kind, t), 3)
    m, _, p, _ = prob.sizes
    U, G = _left_factor(unit, m), _left_factor(unit, p)
    moved = TlseProblem(A=U @ prob.A, B=U @ prob.B, C=G @ prob.C,
                        D=G @ prob.D)
    sol, sol2 = solve(prob), solve(moved)
    assert (np.linalg.norm(sol2.X - sol.X)
            <= 1e-10 * np.linalg.norm(sol.X))
    assert sol2.residual_perturbation_norm == pytest.approx(
        sol.residual_perturbation_norm, rel=1e-10)
    assert condition(moved, sol2).kappa == pytest.approx(
        condition(prob, sol).kappa, rel=1e-10)


# ---------------------------------------------------------------------------
# condition number: the dense Kronecker oracle
# ---------------------------------------------------------------------------

def _oracle_op(solution):
    """The dense product H G Z from the solution alone, and the factor
    ||[J, K]||_F / ||X||_F that scales its 2-norm to kappa."""
    H, G, Z, _ = oracles.dense_condition_factors(solution)
    scale = (np.linalg.norm(np.vstack(
        [solution.P, oracles.constraint_stack(solution)]))
             / np.linalg.norm(solution.X))
    return H @ G @ Z, scale


ORACLE_CASES = [
    ("real", accuracy_sizes("real", 1)),
    ("real", accuracy_sizes("real", 3)),
    ("complex", accuracy_sizes("complex", 1)),
    ("complex", accuracy_sizes("complex", 3)),
    ("real", (30, 8, 0, 2)),        # p = 0
    ("complex", (30, 8, 0, 2)),
    ("real", (30, 8, 2, 2)),        # k = n - 4p = 0
    ("complex", (30, 8, 4, 2)),     # k = n - 2p = 0
    ("real", (30, 8, 1, 1)),        # d = 1
    ("complex", (30, 8, 1, 1)),
    ("real", (30, 8, 1, 4)),        # d > 1
    ("complex", (30, 8, 1, 4)),
    ("real", (30, 4, 0, 4)),        # n = d
    ("complex", (30, 4, 0, 4)),
    ("real", (30, 5, 1, 6)),        # n < d
    ("complex", (30, 3, 1, 4)),
    ("real", accuracy_sizes("real", 5)),        # n = 50
    ("complex", accuracy_sizes("complex", 5)),
]


@pytest.mark.parametrize("kind,sizes", ORACLE_CASES)
def test_kappa_matches_dense_oracle(kind, sizes):
    prob = gen_instance(kind, sizes, 42)
    solve, condition = ((solve_real, condition_real) if kind == "real"
                        else (solve_complex, condition_complex))
    sol = solve(prob)
    op, scale = _oracle_op(sol)
    dense = oracles.spectral_norm(op) * scale
    assert condition(prob, sol).kappa == pytest.approx(dense, rel=1e-12)
    gram = op @ op.conj().T
    assert np.allclose(_gram(sol), gram, rtol=0,
                       atol=1e-12 * np.abs(gram).max())
    # the kept factors of the QR S^H = Q1 R give S^+ = Q1 R^-H
    S_pinv = np.linalg.pinv(oracles.constraint_stack(sol))
    assert (np.linalg.norm(sol.Q1 @ np.linalg.inv(sol.R).conj().T - S_pinv)
            <= 1e-12 * np.linalg.norm(S_pinv))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_adjoint_matches_dense_oracle(kind):
    """The matrix-free (H G Z)^H of oracles.condition_adjoint satisfies
    <M x, y> = <x, M^H y> with M the dense oracle's H G Z, at the t = 1
    accuracy size, for random x and y (complex for complex data)."""
    solve = solve_real if kind == "real" else solve_complex
    sol = solve(gen_instance(kind, accuracy_sizes(kind, 1), 0))
    H, G, Z, _ = oracles.dense_condition_factors(sol)
    M = H @ G @ Z
    adjoint, _ = oracles.condition_adjoint(sol)
    rng = np.random.default_rng(8)
    x, y = (rng.standard_normal(size) for size in M.shape[::-1])
    if kind == "complex":
        x = x + 1j * rng.standard_normal(x.size)
        y = y + 1j * rng.standard_normal(y.size)
    Mx = M @ x
    assert (abs(np.vdot(y, Mx) - np.vdot(adjoint(y), x))
            <= 1e-12 * np.linalg.norm(Mx) * np.linalg.norm(y))


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("t", [2, 5, 10, 20])
def test_kappa_is_attained_at_experiment_size(kind, t):
    """kappa is tight at every accuracy size, not only where the dense
    oracle and the Jacobian reach: with u the top eigenvector of the
    library's Gram matrix, (H G Z)^H u read back to four RB deltas is the
    data direction that attains kappa, and a perturbation along it of
    relative size 1e-8 moves X by kappa * eps_n to within 1% (second
    order terms are about kappa * eps_n)."""
    solve, from_column = (
        (solve_real, rb.from_real_block_column) if kind == "real"
        else (solve_complex, rb.from_complex_block_column))
    prob = gen_instance(kind, accuracy_sizes(kind, t), 0)
    sol = solve(prob)
    kappa = condition_real(prob, sol).kappa
    u = np.linalg.eigh(_gram(sol))[1][:, -1]
    adjoint, to_data = oracles.condition_adjoint(sol)
    dS, dP = to_data(adjoint(u))
    n = prob.A.cols
    delta = TlseProblem(*(from_column(Y) for Y in (
        dP[:, :n], dP[:, n:], dS[:, :n], dS[:, n:])))
    eps = 1e-8
    inst = scaled_to(PerturbationInstance(prob, delta), eps)
    fwd = (np.linalg.norm(solve(inst.perturbed()).X - sol.X)
           / np.linalg.norm(sol.X))
    assert 0.99 <= fwd / (kappa * eps) <= 1.01


# ---------------------------------------------------------------------------
# condition number: paths and invariances
# ---------------------------------------------------------------------------

def _check_paths_agree(prob, sol, kappa):
    """Gram-route kappa against the oracle's dense SVD and its power
    iteration."""
    op, scale = _oracle_op(sol)
    assert np.isfinite(kappa) and kappa > 0
    assert kappa == pytest.approx(oracles.spectral_norm(op) * scale, rel=1e-12)
    assert oracles.spectral_norm(op, method="power") * scale == pytest.approx(
        kappa, rel=1e-8)


def test_kappa_finite_and_paths_agree_real():
    prob = _real_problem(12)
    sol = solve_real(prob)
    _check_paths_agree(prob, sol, condition_real(prob, sol).kappa)


def test_kappa_finite_and_paths_agree_complex():
    prob = _complex_problem(13)
    sol = solve_complex(prob)
    _check_paths_agree(prob, sol, condition_complex(prob, sol).kappa)


def test_kappa_scale_invariance():
    prob = _real_problem(14)
    sol = solve_real(prob)
    kappa = condition_real(prob, sol).kappa
    zeta = 12.5
    scaled = TlseProblem(A=prob.A * zeta, B=prob.B * zeta,
                         C=prob.C * zeta, D=prob.D * zeta)
    sol2 = solve_real(scaled)
    kappa2 = condition_real(scaled, sol2).kappa
    assert kappa2 == pytest.approx(kappa, rel=1e-10)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("e", [-150, -100, 100, 150])
def test_kappa_at_extreme_scale(kind, e):
    """Scaling all data by 10**e leaves kappa unchanged far beyond the
    range where the products of squared singular values stay finite."""
    prob = gen_instance(kind, accuracy_sizes(kind, 2), 0)
    solve, condition = ((solve_real, condition_real) if kind == "real"
                        else (solve_complex, condition_complex))
    kappa = condition(prob, solve(prob)).kappa
    z = 10.0 ** e
    scaled = TlseProblem(A=prob.A * z, B=prob.B * z, C=prob.C * z,
                         D=prob.D * z)
    assert condition(scaled, solve(scaled)).kappa == pytest.approx(
        kappa, rel=1e-10)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("e", [-300, -200, -170, -160, 160, 170, 200, 300])
def test_kappa_refuses_out_of_range_scale(kind, e):
    """Scaled by 10**e, the t = 1 accuracy instance still solves, and
    kappa still answers, equal to the unit-scale kappa, although a Gram
    matrix of the unscaled factors would overflow (+-160 and beyond) or
    its squared singular values underflow to 0 (-170 and beyond): kappa
    forms it from P, R and sigma scaled by the power of two that brings
    sigma_1 into [1/2, 1), and no floating-point warning escapes."""
    prob = gen_instance(kind, accuracy_sizes(kind, 1), 0)
    solve, condition = ((solve_real, condition_real) if kind == "real"
                        else (solve_complex, condition_complex))
    kappa = condition(prob, solve(prob)).kappa
    z = 10.0 ** e
    scaled = TlseProblem(A=prob.A * z, B=prob.B * z, C=prob.C * z,
                         D=prob.D * z)
    assert condition(scaled, solve(scaled)).kappa == pytest.approx(
        kappa, rel=1e-10)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_kappa_refuses_when_it_overflows(kind):
    """With C and D scaled by 1e-160, a data perturbation of relative
    size 1e-160 is as large as C and D, and kappa itself is about 1e160:
    its Gram matrix overflows at any normalisation, so kappa raises
    ConditioningUndefined naming the data scale, and no floating-point
    warning escapes."""
    prob = gen_instance(kind, accuracy_sizes(kind, 1), 0)
    solve, condition = ((solve_real, condition_real) if kind == "real"
                        else (solve_complex, condition_complex))
    scaled = TlseProblem(A=prob.A, B=prob.B, C=prob.C * 1e-160,
                         D=prob.D * 1e-160)
    solution = solve(scaled)
    with pytest.raises(ConditioningUndefined, match="data scale"):
        condition(scaled, solution)


@pytest.mark.parametrize("solve", [solve_real, solve_complex],
                         ids=["real", "complex"])
def test_tiny_v22_is_block_not_invertible(solve):
    """A nearly zero column of A makes the 1 x 1 V22 (condition number 1)
    tiny, and W1, which shares its smallest singular value, nearly
    singular: the solve refuses the data, so kappa never sees it."""
    rng = np.random.default_rng(11)
    A = _rand_rb(rng, 8, 3)
    A = rb.RBMatrix(*(np.hstack([c[:, :1] * 1e-13, c[:, 1:]])
                      for c in (A.p0, A.p1, A.p2, A.p3)))
    problem = TlseProblem(A=A, B=_rand_rb(rng, 8, 1),
                          C=rb.RBMatrix.zeros(0, 3),
                          D=rb.RBMatrix.zeros(0, 1))
    with pytest.raises(BlockNotInvertible, match="smallest singular value"):
        solve(problem)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("grown", range(4), ids=["m", "n", "p", "d"])
def test_condition_rejects_a_problem_of_other_sizes(kind, grown):
    """kappa is relative to the problem's ||[J, K]||_F, so a problem
    whose sizes are not the solution's is refused, not read."""
    sizes = accuracy_sizes(kind, 1)
    solve, condition = ((solve_real, condition_real) if kind == "real"
                        else (solve_complex, condition_complex))
    sol = solve(gen_instance(kind, sizes, 0))
    other = gen_instance(
        kind, [s + (i == grown) for i, s in enumerate(sizes)], 0)
    with pytest.raises(DimensionMismatch, match="do not match"):
        condition(other, sol)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_condition_rejects_a_problem_of_other_data(kind):
    """A problem of the solution's sizes but other data is refused, not
    read: its ||[J, K]||_F would scale kappa without error.  A copy of
    the solved data is accepted and gives the same kappa."""
    sizes = accuracy_sizes(kind, 1)
    solve, condition = ((solve_real, condition_real) if kind == "real"
                        else (solve_complex, condition_complex))
    prob = gen_instance(kind, sizes, 0)
    sol = solve(prob)
    with pytest.raises(ConditioningUndefined, match="differ"):
        condition(gen_instance(kind, sizes, 1), sol)
    copy = TlseProblem(A=prob.A, B=prob.B, C=prob.C, D=prob.D)
    assert condition(copy, sol).kappa == condition(prob, sol).kappa


def _prescribed_constraint(kind, factor):
    """Random A and B (m = 10, n = 6, d = 3) with C (p = 1) built in
    stack space: its block column Cc (r = 4 or 2 rows) has singular
    values (1, ..., 1, s_r), s_r = factor * max(r, n) * eps, and D = 0,
    so S = [Cc, 0] shares them."""
    rng = np.random.default_rng(0)
    m, n, p, d = 10, 6, 1, 3
    r = (4 if kind == "real" else 2) * p

    def orthonormal(rows, cols):
        M = rng.standard_normal((rows, cols))
        if kind == "complex":
            M = M + 1j * rng.standard_normal((rows, cols))
        return np.linalg.qr(M)[0]

    s = np.ones(r)
    s[-1] = factor * max(r, n) * np.finfo(np.float64).eps
    Cc = (orthonormal(r, r) * s) @ orthonormal(n, r).conj().T
    from_column = (rb.from_real_block_column if kind == "real"
                   else rb.from_complex_block_column)
    return TlseProblem(A=_rand_rb(rng, m, n), B=_rand_rb(rng, m, d),
                       C=from_column(Cc), D=rb.RBMatrix.zeros(p, d))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_kappa_applies_the_rank_rule_to_s(kind):
    """The solve checks Cc against max(r, n) * eps * sigma_1 = 6 eps and
    kappa checks S against max(r, n + d) * eps * sigma_1 = 9 eps.  A last
    singular value of 7.2 eps passes the first and fails the second; one
    of 12 eps passes both."""
    solve = solve_real if kind == "real" else solve_complex
    prob = _prescribed_constraint(kind, 1.2)
    sol = solve(prob)
    with pytest.raises(ConditioningUndefined, match="constraint stack rank"):
        condition_real(prob, sol)
    prob = _prescribed_constraint(kind, 2.0)
    kappa = condition_real(prob, solve(prob)).kappa
    assert np.isfinite(kappa) and kappa > 0.0


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_solve_applies_the_rank_rule_to_cc(kind):
    """A last singular value of Cc of 3 eps is below the solve's
    threshold max(r, n) * eps * sigma_1 = 6 eps, so the solve refuses the
    constraint; the factors 1.2 and 2.0 above solve."""
    solve = solve_real if kind == "real" else solve_complex
    with pytest.raises(AssumptionViolated, match="numerical rank"):
        solve(_prescribed_constraint(kind, 0.5))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_kappa_undefined_at_zero_solution(kind):
    """A = [I_3; 0] and B = 0.1 I_2 in rows 3-4 have orthogonal columns,
    so the trailing right singular vectors of [A, B] are B's and X = 0
    exactly, with gap 0.9; kappa, relative to ||X||_F, is undefined."""
    A = np.zeros((6, 3))
    A[:3] = np.eye(3)
    B = np.zeros((6, 2))
    B[3:5] = 0.1 * np.eye(2)
    prob = TlseProblem(A=rb.RBMatrix.from_real(A), B=rb.RBMatrix.from_real(B),
                       C=rb.RBMatrix.zeros(0, 3), D=rb.RBMatrix.zeros(0, 2))
    solve = solve_real if kind == "real" else solve_complex
    sol = solve(prob)
    assert not np.any(sol.X)
    assert sol.gap == pytest.approx(0.9, rel=1e-12)
    with pytest.raises(ConditioningUndefined, match="X = 0"):
        condition_real(prob, sol)


def test_kappa_real_vs_complex_on_real_data():
    """Same consistent all-real data through both solution paths: the two
    condition numbers agree to within a small factor."""
    rng = np.random.default_rng(15)
    m, n, p, d = 24, 8, 1, 2
    A = _rand_rb(rng, m, n)
    C = _rand_rb(rng, p, n)
    Xs = rng.standard_normal((n, d))
    Xrb = rb.RBMatrix.from_real(Xs)
    B = rb.mat_mul(A, Xrb)
    D = rb.mat_mul(C, Xrb)
    prob = TlseProblem(A=A, B=B, C=C, D=D)
    kr = condition_real(prob, solve_real(prob)).kappa
    kc = condition_complex(prob, solve_complex(prob)).kappa
    assert kr / 4 <= kc <= kr * 4


def test_factor_shapes():
    prob = _real_problem(16)
    m, n, p, d = prob.sizes
    sol = solve_real(prob)
    H, G, Z, Q = oracles.dense_condition_factors(sol)
    nd = n * d
    q_in = n * (4 * p + 4 * m) + nd
    assert H.shape == (nd, nd)
    assert G.shape == (nd, 2 * nd)
    assert Z.shape == (2 * nd, q_in)
    assert Q.shape == (4 * p + 4 * m, 4 * m)
    gram = _gram(sol)
    assert gram.shape == (nd, nd)
    assert np.allclose(gram, gram.conj().T, rtol=0,
                       atol=1e-13 * np.abs(gram).max())
    # the oracle product norm reproduces kappa
    jk = rb.frobenius_norm(oracles.hstack(
        oracles.vstack(prob.C, prob.A), oracles.vstack(prob.D, prob.B)))
    op = oracles.spectral_norm(H @ G @ Z)
    assert condition_real(prob, sol).kappa == pytest.approx(
        op * jk / np.linalg.norm(sol.X), rel=1e-12)


@pytest.mark.parametrize("name", ["eigvalsh", "svd", "inv", "solve"])
def test_linalg_failure_is_conditioning_undefined(monkeypatch, name):
    """A LAPACK failure in any factorization kappa runs surfaces as
    ConditioningUndefined; the solve runs before the patch."""
    prob = _real_problem(17)
    sol = solve_real(prob)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{name} did not converge")

    monkeypatch.setattr(np.linalg, name, fail)
    with pytest.raises(ConditioningUndefined):
        condition_real(prob, sol)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("target", ["_gram", "eigvalsh"])
def test_memory_error_is_conditioning_undefined(monkeypatch, kind, target):
    """kappa allocates nd-by-nd arrays; running out of memory while
    forming or reading the Gram matrix surfaces as ConditioningUndefined,
    and the solve runs before the patch."""
    prob = gen_instance(kind, accuracy_sizes(kind, 1), 0)
    solve = solve_real if kind == "real" else solve_complex
    sol = solve(prob)

    def fail(*args, **kwargs):
        raise MemoryError

    owner = perturbation if target == "_gram" else np.linalg
    monkeypatch.setattr(owner, target, fail)
    with pytest.raises(ConditioningUndefined, match="out of memory"):
        condition_real(prob, sol)


@pytest.mark.parametrize("lam", [0.0, np.inf, np.nan])
def test_kappa_not_finite_and_positive_is_undefined(monkeypatch, lam):
    """kappa is never returned as 0, inf or nan."""
    prob = _real_problem(17)
    sol = solve_real(prob)
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda M: np.full(M.shape[0], lam))
    with pytest.raises(ConditioningUndefined):
        condition_real(prob, sol)


# ---------------------------------------------------------------------------
# first-order bound
# ---------------------------------------------------------------------------

def test_directional_sampling_respects_kappa_real():
    prob = _real_problem(20)
    sol = solve_real(prob)
    kappa = condition_real(prob, sol).kappa
    xn = np.linalg.norm(sol.X)
    rng = np.random.default_rng(21)
    eps = 1e-8
    ratios = []
    for _ in range(200):
        inst = scaled_to(_rand_instance(prob, rng), eps)
        sol2 = solve_real(inst.perturbed())
        fwd = np.linalg.norm(sol2.X - sol.X) / xn
        ratios.append(fwd / (kappa * eps))
    assert max(ratios) <= 1 + 1e-3
    assert max(ratios) >= 1e-2  # sampling is not vacuous


def test_directional_sampling_respects_kappa_complex():
    prob = _complex_problem(22)
    sol = solve_complex(prob)
    kappa = condition_complex(prob, sol).kappa
    xn = np.linalg.norm(sol.X)
    rng = np.random.default_rng(23)
    eps = 1e-8
    worst = 0.0
    for _ in range(100):
        inst = scaled_to(_rand_instance(prob, rng), eps)
        sol2 = solve_complex(inst.perturbed())
        worst = max(worst, np.linalg.norm(sol2.X - sol.X) / xn / (kappa * eps))
    assert worst <= 1 + 1e-3
    assert worst >= 1e-2


@pytest.mark.parametrize("eps", [1e-11, 1e-8, 1e-5])
def test_bound_holds_across_magnitudes_real(eps):
    rng = np.random.default_rng(24)
    held = 0
    for trial in range(20):
        prob = _real_problem(1000 + trial, m=15, n=6, p=1, d=2)
        sol = solve_real(prob)
        report = condition_real(prob, sol)
        inst = scaled_to(_rand_instance(prob, rng), eps)
        sol2 = solve_real(inst.perturbed())
        fwd = np.linalg.norm(sol2.X - sol.X) / np.linalg.norm(sol.X)
        assert fwd <= report.kappa * eps * 1.05
        held += 1
    assert held == 20


@pytest.mark.parametrize("eps", [1e-11, 1e-8, 1e-5])
def test_bound_holds_across_magnitudes_complex(eps):
    rng = np.random.default_rng(25)
    for trial in range(20):
        prob = _complex_problem(2000 + trial, m=15, n=6, p=1, d=2)
        sol = solve_complex(prob)
        report = condition_complex(prob, sol)
        inst = scaled_to(_rand_instance(prob, rng), eps)
        sol2 = solve_complex(inst.perturbed())
        fwd = np.linalg.norm(sol2.X - sol.X) / np.linalg.norm(sol.X)
        assert fwd <= report.kappa * eps * 1.05
