"""Property-based tests over the one solver core.

Hypothesis draws the algebra, the shape and a seed; numpy draws the data
from that seed.  Both algebras and the least squares baseline run through
the same strategies, which include an empty constraint (p = 0), a fully
constrained solution (k = n - r = 0) and several right-hand sides.
Examples are derandomized so the suite is reproducible.  Besides the
exact-recovery and error-taxonomy oracles, two invariances of the
problem check the solve on noisy data: jointly scaling (A, B, C, D)
leaves X and kappa unchanged, and so does permuting the rows of A and B
together (for X).
"""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

import rbtlse.rb_core as rb
from rbtlse.errors import RbtlseError
from rbtlse.lse_baseline import lse_solve_complex, lse_solve_real
from rbtlse.perturbation import condition_complex, condition_real
from rbtlse.tlse import TlseProblem, solve_complex, solve_real

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
def well_posed(draw):
    """(kind, (m, n, p, d), seed) with r = q*p <= n and q*m >= n + d - r."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    q = KINDS[kind][0]
    n = draw(st.integers(1, 8))
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
