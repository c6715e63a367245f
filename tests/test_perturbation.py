"""Condition number and first-order bound tests.

The deep oracle: on a small instance, the condition number must equal
the spectral norm of the actual solution-map Jacobian (built column by
column with central finite differences), scaled by the data and solution
norms.  Everything else checks the result against a dense reference
product, invariances, and the bound's empirical validity.

The dense reference builds H, G and Z with Kronecker products and the
commutation matrix and takes the SVD of their product (commutation matrix
and spectral norm from ``tests/oracles.py``); the library must reproduce
its norm from the nd x nd Gram matrix.
"""

import numpy as np
import pytest

import oracles
import rbtlse.rb_core as rb
from rbtlse.bench import accuracy_sizes, gen_instance
from rbtlse.errors import ConditioningUndefined
from rbtlse.perturbation import (PerturbationInstance, _Pieces,
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
    return PerturbationInstance(
        problem=problem,
        dA=_rand_rb(rng, m, n), dB=_rand_rb(rng, m, d),
        dC=_rand_rb(rng, p, n), dD=_rand_rb(rng, p, d))


# ---------------------------------------------------------------------------
# epsilon_n
# ---------------------------------------------------------------------------

def test_epsilon_n_zero_and_one():
    prob = _real_problem(0)
    m, n, p, d = prob.sizes
    zero = PerturbationInstance(
        problem=prob, dA=rb.RBMatrix.zeros(m, n), dB=rb.RBMatrix.zeros(m, d),
        dC=rb.RBMatrix.zeros(p, n), dD=rb.RBMatrix.zeros(p, d))
    assert epsilon_n(zero) == 0.0
    copy = PerturbationInstance(problem=prob, dA=prob.A, dB=prob.B,
                                dC=prob.C, dD=prob.D)
    assert epsilon_n(copy) == pytest.approx(1.0, rel=1e-15)


def test_epsilon_n_matches_representation_route():
    prob = _real_problem(1)
    rng = np.random.default_rng(2)
    inst = _rand_instance(prob, rng)
    # independent route: stacked leading block columns
    def col(M):
        return rb.real_block_column(M)
    num = np.sqrt(np.linalg.norm(np.vstack([col(inst.dC), col(inst.dA)])) ** 2
                  + np.linalg.norm(np.vstack([col(inst.dD), col(inst.dB)])) ** 2)
    den = np.sqrt(np.linalg.norm(np.vstack([col(prob.C), col(prob.A)])) ** 2
                  + np.linalg.norm(np.vstack([col(prob.D), col(prob.B)])) ** 2)
    assert epsilon_n(inst) == pytest.approx(num / den, rel=1e-14)


def test_epsilon_n_homogeneity():
    prob = _real_problem(3)
    rng = np.random.default_rng(4)
    inst = _rand_instance(prob, rng)
    e = epsilon_n(inst)
    half = PerturbationInstance(problem=prob, dA=inst.dA * 0.5,
                                dB=inst.dB * 0.5, dC=inst.dC * 0.5,
                                dD=inst.dD * 0.5)
    assert epsilon_n(half) == pytest.approx(0.5 * e, rel=1e-14)


def test_scaled_to_hits_target():
    prob = _real_problem(5)
    rng = np.random.default_rng(6)
    inst = _rand_instance(prob, rng)
    for target in (1e-11, 1e-8, 1e-5):
        assert epsilon_n(scaled_to(inst, target)) == pytest.approx(
            target, rel=1e-14)


def test_scaled_to_rejects_zero_direction():
    prob = _real_problem(7)
    m, n, p, d = prob.sizes
    zero = PerturbationInstance(
        problem=prob, dA=rb.RBMatrix.zeros(m, n), dB=rb.RBMatrix.zeros(m, d),
        dC=rb.RBMatrix.zeros(p, n), dD=rb.RBMatrix.zeros(p, d))
    with pytest.raises(ValueError):
        scaled_to(zero, 1e-8)


def test_perturbed_problem_adds_all_blocks():
    prob = _real_problem(8)
    rng = np.random.default_rng(9)
    inst = _rand_instance(prob, rng)
    pp = inst.perturbed()
    assert pp.A == prob.A + inst.dA
    assert pp.D == prob.D + inst.dD


# ---------------------------------------------------------------------------
# condition number: exactness against a brute-force Jacobian
# ---------------------------------------------------------------------------

def _brute_kappa(problem, solve, h=1e-7):
    sol = solve(problem)
    m, n, p, d = problem.sizes
    xn = np.linalg.norm(sol.X)
    jk = rb.frobenius_norm(rb.hstack(
        rb.vstack(problem.C, problem.A), rb.vstack(problem.D, problem.B)))
    cols = []
    blocks = {"A": (m, n), "B": (m, d), "C": (p, n), "D": (p, d)}
    for name, (r, c) in blocks.items():
        for comp in range(4):
            for i in range(r):
                for j in range(c):
                    deltas = [np.zeros((r, c)) for _ in range(4)]
                    deltas[comp][i, j] = h
                    dM = rb.RBMatrix(*deltas)
                    up = {k: (getattr(problem, k) + dM if k == name
                              else getattr(problem, k)) for k in "ABCD"}
                    dn = {k: (getattr(problem, k) - dM if k == name
                              else getattr(problem, k)) for k in "ABCD"}
                    xp = solve(TlseProblem(**up)).X
                    xm = solve(TlseProblem(**dn)).X
                    cols.append(((xp - xm) / (2 * h)).ravel(order="F"))
    J = np.column_stack(cols)
    if np.iscomplexobj(J):
        J = np.vstack([J.real, J.imag])
    op = np.linalg.svd(J, compute_uv=False)[0]
    return op * jk / xn, sol


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
    for prob in (noisy, _consistent(noisy, solve_real, 26)):
        brute, sol = _brute_kappa(prob, solve_real)
        kappa = condition_real(prob, sol).kappa
        assert kappa == pytest.approx(brute, rel=1e-6)


def test_kappa_equals_brute_force_jacobian_complex():
    noisy = _complex_problem(11, m=8, n=4, p=1, d=2)
    for prob in (noisy, _consistent(noisy, solve_complex, 27)):
        brute, sol = _brute_kappa(prob, solve_complex)
        kappa = condition_complex(prob, sol).kappa
        # the complex path measures the derivative with a complex matrix
        # 2-norm while the actual map is real-linear; the two can differ
        # at the ~1e-4 level (step-size independent), inside the 0.1%
        # slack the sampling criterion allows
        assert brute == pytest.approx(kappa, rel=1e-3)


# ---------------------------------------------------------------------------
# condition number: the dense Kronecker oracle
# ---------------------------------------------------------------------------

def _pieces_of(problem, solution):
    return _Pieces(solution)


def _dense_factors(pieces, solution):
    """H, G, Z (and the projection Q inside Z) as dense matrices."""
    n, d = pieces.n, pieces.d
    PS = solution.P @ np.linalg.pinv(solution.S)
    Q = np.vstack([-PS.conj().T, np.eye(PS.shape[0])])
    H = np.kron(np.linalg.inv(pieces.V22).conj().T,
                np.linalg.inv(pieces.W1).conj().T) \
        @ oracles.commutation_matrix(d, n)
    G = (1.0 / pieces.denom)[:, None] * np.hstack([
        np.kron(np.eye(n), np.diag(pieces.sig2)),
        np.kron(np.diag(pieces.S_diag), np.eye(d))])
    # the pieces carry U2 S2 and S T2; the oracle cases are noisy, so
    # the trailing singular values are far from zero
    U2 = pieces.PV2 / pieces.sig2
    T2 = pieces.ST2 / pieces.S_diag[:, None]
    Zb1 = np.kron(np.diag(pieces.mask), U2.conj().T @ Q.conj().T)
    Zb2 = np.kron(T2, np.eye(d))
    Z = np.zeros((2 * n * d, Zb1.shape[1] + n * d),
                 dtype=np.result_type(Zb1, Zb2))
    Z[:n * d, :Zb1.shape[1]] = Zb1
    Z[n * d:, Zb1.shape[1]:] = Zb2
    return H, G, Z, Q


def _oracle_op(problem, solution):
    pieces = _pieces_of(problem, solution)
    H, G, Z, _ = _dense_factors(pieces, solution)
    return H @ G @ Z, pieces


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
]


@pytest.mark.parametrize("kind,sizes", ORACLE_CASES)
def test_kappa_matches_dense_oracle(kind, sizes):
    prob = gen_instance(kind, sizes, 42)
    solve, condition = ((solve_real, condition_real) if kind == "real"
                        else (solve_complex, condition_complex))
    sol = solve(prob)
    op, pieces = _oracle_op(prob, sol)
    dense = oracles.spectral_norm(op) * pieces.jk_norm / pieces.x_norm
    assert condition(prob, sol).kappa == pytest.approx(dense, rel=1e-12)
    gram = op @ op.conj().T
    assert np.allclose(pieces.gram(), gram, rtol=0,
                       atol=1e-12 * np.abs(gram).max())


# ---------------------------------------------------------------------------
# condition number: paths and invariances
# ---------------------------------------------------------------------------

def _check_paths_agree(prob, sol, kappa):
    """Gram-route kappa against the oracle's dense SVD and its power
    iteration."""
    op, pieces = _oracle_op(prob, sol)
    assert np.isfinite(kappa) and kappa > 0
    scale = pieces.jk_norm / pieces.x_norm
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


@pytest.mark.parametrize("solve,condition", [
    (solve_real, condition_real), (solve_complex, condition_complex)],
    ids=["real", "complex"])
def test_singular_w1_is_conditioning_undefined(solve, condition):
    """A nearly zero column of A leaves V22 (d = 1) invertible but makes
    W1 singular: the solve succeeds and kappa is refused."""
    rng = np.random.default_rng(11)
    A = _rand_rb(rng, 8, 3)
    A = rb.RBMatrix(*(np.hstack([c[:, :1] * 1e-13, c[:, 1:]])
                      for c in (A.p0, A.p1, A.p2, A.p3)))
    problem = TlseProblem(A=A, B=_rand_rb(rng, 8, 1),
                          C=rb.RBMatrix.zeros(0, 3),
                          D=rb.RBMatrix.zeros(0, 1))
    solution = solve(problem)
    with pytest.raises(ConditioningUndefined, match="W1 block is singular"):
        condition(problem, solution)


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
    pieces = _pieces_of(prob, sol)
    H, G, Z, Q = _dense_factors(pieces, sol)
    nd = n * d
    q_in = n * (4 * p + 4 * m) + nd
    assert H.shape == (nd, nd)
    assert G.shape == (nd, 2 * nd)
    assert Z.shape == (2 * nd, q_in)
    assert Q.shape == (4 * p + 4 * m, 4 * m)
    assert pieces.S_diag.shape == (n,)
    assert pieces.W1.shape == (n, n)
    assert pieces.V22.shape == (d, d)
    assert pieces.ST2.shape == (n, n)
    gram = pieces.gram()
    assert gram.shape == (nd, nd)
    assert np.allclose(gram, gram.conj().T, rtol=0,
                       atol=1e-13 * np.abs(gram).max())
    # the oracle product norm reproduces kappa
    jk = rb.frobenius_norm(rb.hstack(
        rb.vstack(prob.C, prob.A), rb.vstack(prob.D, prob.B)))
    op = oracles.spectral_norm(H @ G @ Z)
    assert condition_real(prob, sol).kappa == pytest.approx(
        op * jk / np.linalg.norm(sol.X), rel=1e-12)


def test_linalg_failure_is_conditioning_undefined(monkeypatch):
    prob = _real_problem(17)
    sol = solve_real(prob)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(ConditioningUndefined):
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
