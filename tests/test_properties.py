"""Property-based tests over the one solver core.

Hypothesis draws the algebra, the shape and a seed; numpy draws the data
from that seed.  Both algebras and the least squares baseline run through
the same strategies, which include an empty constraint (p = 0), a fully
constrained solution (k = n - r = 0) and several right-hand sides.
Examples are derandomized so the suite is reproducible.  Besides the
exact-recovery and error-taxonomy oracles, two invariances of the
problem check the solve on noisy data: jointly scaling (A, B, C, D)
leaves X and kappa unchanged, and so does permuting the rows of A and B
together (for X).  Two variational oracles check that each solver's X
is a stationary minimum of its own objective along feasible directions,
and kappa is checked against the brute-force Jacobian on small shapes.
At the file surface, any finite RB matrix survives an RBMAT round trip
bit for bit.
"""

import os
import tempfile

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
import rbtlse.rb_core as rb
from rbtlse.errors import RbtlseError
from rbtlse.perturbation import condition_complex, condition_real
from rbtlse.tlse import (TlseProblem, lse_solve_complex, lse_solve_real,
                         solve_complex, solve_real)

# kind -> (stack rows per matrix row, solver, conditioning, least squares
#          baseline)
KINDS = {
    "real": (4, solve_real, condition_real, lse_solve_real),
    "complex": (2, solve_complex, condition_complex, lse_solve_complex),
}
SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2 ** 32 - 1)


def _rand_rb(rng, m, n):
    return rb.RBMatrix(*(rng.standard_normal((m, n)) for _ in range(4)))


@st.composite
def well_posed(draw, max_n=8):
    """(kind, (m, n, p, d), seed) with r = q*p <= n and q*m >= n + d - r."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    q = KINDS[kind][0]
    n = draw(st.integers(1, max_n))
    p = draw(st.integers(0, n // q))
    d = draw(st.integers(1, 3))
    m_min = -(-(n + d - q * p) // q)
    m = draw(st.integers(m_min, m_min + 4))
    return kind, (m, n, p, d), draw(SEEDS)


@SETTINGS
@given(well_posed())
@example(("real", (3, 8, 0, 3), 0))      # p = 0, d > 1
@example(("real", (2, 8, 2, 2), 1))      # k = n - 4p = 0
@example(("complex", (4, 6, 3, 2), 2))   # k = n - 2p = 0
@example(("complex", (9, 5, 0, 1), 3))   # p = 0, d = 1
def test_consistent_systems_recover_x(case):
    kind, (m, n, p, d), seed = case
    _, solve, _, lse_solve = KINDS[kind]
    rng = np.random.default_rng(seed)
    A, C = _rand_rb(rng, m, n), _rand_rb(rng, p, n)
    Xs = rng.standard_normal((n, d))
    if kind == "complex":
        Xs = Xs + 1j * rng.standard_normal((n, d))
    Xrb = rb.RBMatrix.from_complex(Xs)
    B, D = rb.mat_mul(A, Xrb), rb.mat_mul(C, Xrb)
    tol = 1e-8 * np.linalg.norm(Xs)
    X = solve(TlseProblem(A=A, B=B, C=C, D=D)).X
    assert np.linalg.norm(X - Xs) <= tol
    assert np.linalg.norm(lse_solve(A, B, C, D).X - Xs) <= tol


@st.composite
def any_case(draw):
    """Any shape, valid or not, optionally with one nan or inf entry."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    sizes = tuple(draw(st.integers(0, 6)) for _ in range(4))
    poison = draw(st.sampled_from([None, np.nan, np.inf]))
    return kind, sizes, poison, draw(SEEDS)


@SETTINGS
@given(any_case())
def test_every_failure_is_an_rbtlse_error(case):
    kind, (m, n, p, d), poison, seed = case
    _, solve, condition, lse_solve = KINDS[kind]
    rng = np.random.default_rng(seed)
    A, B = _rand_rb(rng, m, n), _rand_rb(rng, m, d)
    C, D = _rand_rb(rng, p, n), _rand_rb(rng, p, d)
    if poison is not None and A.p0.size:
        p0 = A.p0.copy()
        p0.flat[rng.integers(p0.size)] = poison
        A = rb.RBMatrix(p0, A.p1, A.p2, A.p3)

    def total():
        problem = TlseProblem(A=A, B=B, C=C, D=D)
        condition(problem, solve(problem))

    for call in (total, lambda: lse_solve(A, B, C, D)):
        try:
            call()
        except RbtlseError:
            pass


def _noisy(kind, sizes, seed):
    """A random problem of the drawn kind and sizes, and the generator
    that drew it."""
    m, n, p, d = sizes
    rng = np.random.default_rng(seed)
    return TlseProblem(A=_rand_rb(rng, m, n), B=_rand_rb(rng, m, d),
                       C=_rand_rb(rng, p, n), D=_rand_rb(rng, p, d)), rng


def _solve_and_condition(kind, problem):
    _, solve, condition, _ = KINDS[kind]
    solution = solve(problem)
    return solution.X, condition(problem, solution).kappa


def _base(kind, problem):
    """(X, kappa) of the base problem; a draw that leaves the theory's
    premises is discarded, not failed."""
    try:
        return _solve_and_condition(kind, problem)
    except RbtlseError:
        assume(False)


def _close(X, Y, kappa):
    """X and Y agree to the first-order forward error of a solve that is
    backward stable to ~4500 unit roundoffs."""
    return np.linalg.norm(X - Y) <= 1e-12 * kappa * np.linalg.norm(X)


@SETTINGS
@given(well_posed(), st.floats(1e-3, 1e3))
def test_joint_scaling_leaves_x_and_kappa(case, zeta):
    kind, sizes, seed = case
    problem, _ = _noisy(kind, sizes, seed)
    X, kappa = _base(kind, problem)
    scaled = TlseProblem(A=problem.A * zeta, B=problem.B * zeta,
                         C=problem.C * zeta, D=problem.D * zeta)
    X2, kappa2 = _solve_and_condition(kind, scaled)
    assert _close(X, X2, kappa)
    assert abs(kappa2 - kappa) <= 1e-10 * kappa


def _rows(M, order):
    return rb.RBMatrix(*(c[order] for c in (M.p0, M.p1, M.p2, M.p3)))


@SETTINGS
@given(well_posed())
def test_row_permutation_leaves_x(case):
    kind, sizes, seed = case
    problem, rng = _noisy(kind, sizes, seed)
    X, kappa = _base(kind, problem)
    order = rng.permutation(sizes[0])
    permuted = TlseProblem(A=_rows(problem.A, order),
                           B=_rows(problem.B, order), C=problem.C, D=problem.D)
    X2, _ = _solve_and_condition(kind, permuted)
    assert _close(X, X2, kappa)


# ---------------------------------------------------------------------------
# variational oracles: each X is a stationary minimum of its objective
# ---------------------------------------------------------------------------

def _column(kind):
    return rb.real_block_column if kind == "real" else rb.complex_block_column


def _feasible_direction(kind, problem, rng):
    """Unit N Z, N an orthonormal basis of ker(Cc) and Z drawn in the
    solver's algebra, so X + t N Z keeps Cc X = Dc; None when k = 0."""
    Cc = _column(kind)(problem.C)
    r, n = Cc.shape
    d = problem.sizes[3]
    if r == n:
        return None
    N = np.linalg.svd(Cc)[2][r:].conj().T
    Z = rng.standard_normal((n - r, d))
    if kind == "complex":
        Z = Z + 1j * rng.standard_normal((n - r, d))
    direction = N @ Z
    return direction / np.linalg.norm(direction)


def _assert_stationary_minimum(f, X, direction, t):
    """f(X + s*direction) - f(X) is O(s^2) and its second difference is
    positive.  The odd part f(X+s) - f(X-s) holds the linear term; the
    Richardson combination of s = t and 2t cancels its cubic term, so what
    is left, t*f'(0) + O(t^5), must be small against the second
    difference t^2*f''(0) + O(t^4)."""
    f0 = f(X)
    fp, fm, fp2, fm2 = (f(X + s * direction) for s in (t, -t, 2 * t, -2 * t))
    second = fp - 2 * f0 + fm
    linear = (8 * (fp - fm) - (fp2 - fm2)) / 12
    assert second > 0
    assert abs(linear) <= 0.05 * second


@SETTINGS
@given(well_posed())
def test_tls_objective_is_stationary_along_feasible_directions(case):
    """f(X) = ||(Ac X - Bc)(I + X^H X)^(-1/2)||_F^2, the total least
    squares objective (Golub & Van Loan 1980), is at a strict local
    minimum at the solver's X along every feasible direction."""
    kind, sizes, seed = case
    problem, rng = _noisy(kind, sizes, seed)
    X, _ = _base(kind, problem)
    direction = _feasible_direction(kind, problem, rng)
    assume(direction is not None)
    P = _column(kind)(problem.A, problem.B)
    eye = np.eye(sizes[3])

    def f(Y):
        # [Y; -I](I + Y^H Y)^(-1/2) is an orthonormal basis of the range
        # of [Y; -I], so f is ||P Q||_F^2 for the Q of a QR of [Y; -I];
        # unlike I + Y^H Y, the QR does not square the conditioning
        Q = np.linalg.qr(np.vstack([Y, -eye]))[0]
        return np.linalg.norm(P @ Q) ** 2

    # t turns that range by 1e-4 radians to first order, a step that
    # stays small whatever the size of X
    Q, R = np.linalg.qr(np.vstack([X, -eye]))
    lift = np.vstack([direction, np.zeros_like(eye)])
    turn = np.linalg.solve(R.T, (lift - Q @ (Q.conj().T @ lift)).T)
    _assert_stationary_minimum(f, X, direction, 1e-4 / np.linalg.norm(turn))


@SETTINGS
@given(well_posed())
def test_lse_objective_is_stationary_along_feasible_directions(case):
    """||Ac X - Bc||_F is at a strict local minimum at the least squares
    baseline's X along every feasible direction."""
    kind, sizes, seed = case
    problem, rng = _noisy(kind, sizes, seed)
    try:
        X = KINDS[kind][3](problem.A, problem.B, problem.C, problem.D).X
    except RbtlseError:
        assume(False)
    direction = _feasible_direction(kind, problem, rng)
    assume(direction is not None)
    column = _column(kind)
    Ac, Bc = column(problem.A), column(problem.B)

    def f(Y):
        return np.linalg.norm(Ac @ Y - Bc)

    _assert_stationary_minimum(f, X, direction,
                               1e-4 * (1 + np.linalg.norm(X)))


@SETTINGS
@given(well_posed(max_n=5))
def test_kappa_matches_brute_force_jacobian(case):
    kind, sizes, seed = case
    problem, _ = _noisy(kind, sizes, seed)
    _, kappa = _base(kind, problem)
    brute, _, _ = oracles.brute_kappa(problem, KINDS[kind][1])
    assert abs(kappa - brute) <= 1e-6 * brute


@st.composite
def finite_rb_matrices(draw):
    """Any RB matrix with m, n in [0, 6] and finite float64 entries."""
    shape = (4, draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    return rb.RBMatrix(*draw(arrays(np.float64, shape, elements=st.floats(
        allow_nan=False, allow_infinity=False))))


@SETTINGS
@given(finite_rb_matrices())
@example(rb.RBMatrix(*np.array([-0.0, 5e-324, -2.5e-310, 1.0])
                     .reshape(4, 1, 1)))        # -0.0 and subnormals
def test_rbmat_round_trip_is_bit_exact(P):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.rbmat")
        rb.write_rbmat(path, P)
        back = rb.read_rbmat(path)
    assert np.array_equal(back.components.view(np.uint64),
                          P.components.view(np.uint64))
