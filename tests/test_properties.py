"""Property-based tests over the one solver core.

Hypothesis draws the algebra, the shape and a seed; numpy draws the data
from that seed, through ``gen_instance`` or ``tests/instances.py``.
Both algebras and the least squares baseline run through the same
strategies, which include an empty constraint (p = 0), a fully
constrained solution (k = n - r = 0) and several right-hand sides; the
invariances also run explicit examples with a wide reduced matrix
(q m < n + d - r), which the strategies do not draw.
Each test's examples come from an explicit seed, so the suite is
reproducible and an edit to a test keeps its examples.  Besides the
exact-recovery and error-taxonomy oracles, five invariances of the
problem check the solve on noisy data: jointly scaling (A, B, C, D)
leaves X and kappa unchanged, so does permuting the rows of A and B
together (for X), orthogonal (complex: unitary) right factors move X by
the same factors and leave the correction norm and kappa, and complex
unitary left factors and the diagonal matrices of the RB units j and k
leave X and kappa; on data both algebras accept, the complex correction
is at most the real one.
Two variational oracles check that each solver's X is a stationary
minimum of its own objective along feasible directions, and kappa is
checked against the brute-force Jacobian on small shapes.  At the file
surface, any finite RB matrix survives an RBMAT round trip bit for bit,
one edit of a valid file reads back or is refused with FileFormatError,
and ``solve-*`` on an edited file exits 0, 1 or 2 without raising.
"""

import contextlib
import io
import os
import re
import tempfile

import hypothesis
import numpy as np
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
import rbtlse.rb_core as rb
from instances import ALGEBRAS, consistent, orthogonal, rand_rb, rb_unit
from rbtlse import cli
from rbtlse.bench import accuracy_sizes, gen_instance
from rbtlse.errors import FileFormatError, RbtlseError
from rbtlse.tlse import TlseProblem, solve_complex, solve_real

# Each property's seed is the one derandomize drew from a hash of its
# source when it was pinned, int_from_bytes(function_digest(test)); a seed
# takes precedence over derandomize, which only the hash would feed.
SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def well_posed(draw, max_n=8):
    """(kind, (m, n, p, d), seed) with r = q*p <= n and q*m >= n + d - r."""
    kind = draw(st.sampled_from(sorted(ALGEBRAS)))
    q = ALGEBRAS[kind].q
    n = draw(st.integers(1, max_n))
    p = draw(st.integers(0, n // q))
    d = draw(st.integers(1, 3))
    m_min = -(-(n + d - q * p) // q)
    m = draw(st.integers(m_min, m_min + 4))
    return kind, (m, n, p, d), draw(SEEDS)


@SETTINGS
@hypothesis.seed(int("c47a057b6d0c21fb799ec6595346df514fb299f774f21a1f"
                     "0f42a4c9891fd2a25b19acb28e1a8cc4487970eb9f9bb88e", 16))
@given(well_posed())
@example(("real", (3, 8, 0, 3), 0))      # p = 0, d > 1
@example(("real", (2, 8, 2, 2), 1))      # k = n - 4p = 0
@example(("complex", (4, 6, 3, 2), 2))   # k = n - 2p = 0
@example(("complex", (9, 5, 0, 1), 3))   # p = 0, d = 1
def test_consistent_systems_recover_x(case):
    kind, (m, n, p, d), seed = case
    algebra = ALGEBRAS[kind]
    problem, Xs = consistent(kind, np.random.default_rng(seed), m, n, p, d)
    tol = 1e-8 * np.linalg.norm(Xs)
    X = algebra.solve(problem).X
    assert np.linalg.norm(X - Xs) <= tol
    X = algebra.lse(problem.A, problem.B, problem.C, problem.D).X
    assert np.linalg.norm(X - Xs) <= tol


@st.composite
def any_case(draw):
    """Any shape, valid or not, optionally with one nan or inf entry."""
    kind = draw(st.sampled_from(sorted(ALGEBRAS)))
    sizes = tuple(draw(st.integers(0, 6)) for _ in range(4))
    poison = draw(st.sampled_from([None, np.nan, np.inf]))
    return kind, sizes, poison, draw(SEEDS)


@SETTINGS
@hypothesis.seed(int("3c603fc9caf3f6f5e5b9b2f007e1045ac93c7472fcf81572"
                     "e2ab6a7b9e68e9e6890c9d7523da31cffc1dc682943fb987", 16))
@given(any_case())
def test_every_failure_is_an_rbtlse_error(case):
    kind, (m, n, p, d), poison, seed = case
    algebra = ALGEBRAS[kind]
    rng = np.random.default_rng(seed)
    A, B = rand_rb(rng, m, n), rand_rb(rng, m, d)
    C, D = rand_rb(rng, p, n), rand_rb(rng, p, d)
    if poison is not None and A.p0.size:
        p0 = A.p0.copy()
        p0.flat[rng.integers(p0.size)] = poison
        A = rb.RBMatrix(p0, A.p1, A.p2, A.p3)

    def total():
        problem = TlseProblem(A=A, B=B, C=C, D=D)
        algebra.condition(problem, algebra.solve(problem))

    for call in (total, lambda: algebra.lse(A, B, C, D)):
        try:
            call()
        except RbtlseError:
            pass


def _solve_and_condition(kind, problem):
    algebra = ALGEBRAS[kind]
    solution = algebra.solve(problem)
    return solution.X, algebra.condition(problem, solution).kappa


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
@hypothesis.seed(int("b7847faebaad3880b602502488cfb3d5dcc749b4281f2ba6"
                     "2d921bf7e6109a64e1eee2fd0c8ac1831c7064c3c03f8648", 16))
@given(well_posed(), st.floats(1e-3, 1e3))
@example(("real", (1, 3, 0, 2), 0), 3.7)     # wide: q m < n + d - r
@example(("complex", (1, 2, 0, 1), 0), 3.7)
def test_joint_scaling_leaves_x_and_kappa(case, zeta):
    kind, sizes, seed = case
    problem = gen_instance("real", sizes, seed)
    X, kappa = _base(kind, problem)
    scaled = TlseProblem(A=problem.A * zeta, B=problem.B * zeta,
                         C=problem.C * zeta, D=problem.D * zeta)
    X2, kappa2 = _solve_and_condition(kind, scaled)
    assert _close(X, X2, kappa)
    assert abs(kappa2 - kappa) <= 1e-11 * kappa


def _rows(M, order):
    return rb.RBMatrix(*(c[order] for c in (M.p0, M.p1, M.p2, M.p3)))


@SETTINGS
@hypothesis.seed(int("7f98caa8a4846aa5dedaa678ddc3d70e1030120e4ac46929"
                     "69a164eba49667ce7848415d61efec14b73445f43c90580c", 16))
@given(well_posed())
def test_row_permutation_leaves_x(case):
    kind, sizes, seed = case
    rng = np.random.default_rng(seed)
    problem = gen_instance("real", sizes, rng)
    X, kappa = _base(kind, problem)
    order = rng.permutation(sizes[0])
    permuted = TlseProblem(A=_rows(problem.A, order),
                           B=_rows(problem.B, order), C=problem.C, D=problem.D)
    X2, _ = _solve_and_condition(kind, permuted)
    assert _close(X, X2, kappa)


@SETTINGS
@hypothesis.seed(int("1881f51d22db8e957be35247d5f1620a58514db7ffcfd6bc"
                     "1473e6ced960bf3d662f6d0651fc65c867fd66cec3bc3e32", 16))
@given(well_posed())
@example(("real", (1, 3, 0, 2), 0))     # wide: q m < n + d - r
@example(("complex", (1, 2, 0, 1), 0))
def test_right_factors_move_x_and_leave_correction_and_kappa(case):
    """A and C times an orthogonal T (unitary for the complex solve), B
    and D times T_d: X becomes T^H X T_d, and the correction norm and
    kappa do not change (the former to Weyl's bound on the data)."""
    kind, sizes, seed = case
    rng = np.random.default_rng(seed)
    problem = gen_instance("real", sizes, rng)
    solve, condition = ALGEBRAS[kind].solve, ALGEBRAS[kind].condition
    try:
        solution = solve(problem)
        kappa = condition(problem, solution).kappa
    except RbtlseError:
        assume(False)
    (T, T_rb), (Td, Td_rb) = (orthogonal(kind, rng, k)
                              for k in (sizes[1], sizes[3]))
    moved = TlseProblem(A=problem.A @ T_rb, B=problem.B @ Td_rb,
                        C=problem.C @ T_rb, D=problem.D @ Td_rb)
    solution2 = solve(moved)
    assert _close(T.conj().T @ solution.X @ Td, solution2.X, kappa)
    assert (abs(solution2.residual_perturbation_norm
                - solution.residual_perturbation_norm)
            <= 1e-12 * problem.data_norm)
    # not 1e-11: a real draw at kappa ~ 1e4 moves kappa by 2.2e-11
    assert (abs(condition(moved, solution2).kappa - kappa)
            <= 1e-10 * kappa)


def _assert_left_factors_leave_x_and_kappa(kind, problem, U, G):
    """Solving (U A, U B, G C, G D) gives the X and kappa of (A, B, C, D)
    to 1e-11 relative."""
    X, kappa = _base(kind, problem)
    moved = TlseProblem(A=U @ problem.A, B=U @ problem.B, C=G @ problem.C,
                        D=G @ problem.D)
    X2, kappa2 = _solve_and_condition(kind, moved)
    assert np.linalg.norm(X2 - X) <= 1e-11 * np.linalg.norm(X)
    assert abs(kappa2 - kappa) <= 1e-11 * kappa


@SETTINGS
@hypothesis.seed(int("d42a175869b31491e46eb57baa07af01a3046ef402718b64"
                     "462bff23205fbd1637b57843233db7c54348851c6f36d25a", 16))
@given(well_posed())
@example(("real", (1, 3, 0, 2), 0))     # wide: q m < n + d - r
@example(("complex", (1, 2, 0, 1), 0))
def test_left_unitary_factors_leave_x_and_kappa(case):
    """U (m x m) and G (p x p) complex unitary, embedded by
    RBMatrix.from_complex, multiply each stack by a unitary matrix (real
    orthogonal for the real stacks), so X and kappa do not change."""
    kind, sizes, seed = case
    rng = np.random.default_rng(seed)
    problem = gen_instance(kind, sizes, rng)
    U, G = (orthogonal("complex", rng, k)[1] for k in (sizes[0], sizes[2]))
    _assert_left_factors_leave_x_and_kappa(kind, problem, U, G)


@SETTINGS
@hypothesis.seed(int("c59a8d2b77a124cd4af4db05d7ed2f1005a536005250ba91"
                     "ba787ba95ffca9bb74a80d4c98fdbac74ef199e0f0be4496", 16))
@given(well_posed(), st.sampled_from("jk"))
@example(("real", (1, 3, 0, 2), 0), "j")     # wide: q m < n + d - r
@example(("complex", (1, 2, 0, 1), 0), "k")
def test_rb_units_leave_x_and_kappa(case, unit):
    """The diagonal RB matrix of j or k permutes and signs the rows of
    each stack, so X and kappa do not change."""
    kind, sizes, seed = case
    problem = gen_instance(kind, sizes, seed)
    _assert_left_factors_leave_x_and_kappa(
        kind, problem, rb_unit(unit, sizes[0]), rb_unit(unit, sizes[2]))


@st.composite
def shared_data(draw):
    """(m, n, p, d) with 4p <= n, so that the real solve accepts the
    constraints, and 2m >= n + d - 2p, so that P Q2 is tall in both
    algebras, and a seed."""
    n = draw(st.integers(1, 8))
    p = draw(st.integers(0, n // 4))
    d = draw(st.integers(1, 3))
    m_min = -(-(n + d - 2 * p) // 2)
    return (draw(st.integers(m_min, m_min + 4)), n, p, d), draw(SEEDS)


@SETTINGS
@hypothesis.seed(int("3a287677d7f1de8c5745a61534637c5424218ffb94e39f53"
                     "32c9e8788bde7e74d9909656e9dcc87b3f02e4b1ad0c9226", 16))
@given(shared_data())
def test_complex_correction_is_at_most_real(case):
    """The real solve's X and correction are feasible for the complex
    solve of the same data, so the complex correction norm is at most
    the real one."""
    sizes, seed = case
    problem = gen_instance("real", sizes, seed)
    try:
        real, complex_ = solve_real(problem), solve_complex(problem)
    except RbtlseError:
        assume(False)
    assert (complex_.residual_perturbation_norm
            <= real.residual_perturbation_norm + 1e-12 * problem.data_norm)


# ---------------------------------------------------------------------------
# variational oracles: each X is a stationary minimum of its objective
# ---------------------------------------------------------------------------

def _feasible_direction(kind, problem, rng):
    """Unit N Z, N an orthonormal basis of ker(Cc) and Z drawn in the
    solver's algebra, so X + t N Z keeps Cc X = Dc; None when k = 0."""
    Cc = ALGEBRAS[kind].column(problem.C)
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
@hypothesis.seed(int("97547536e44dc9f5da4759eafc14e2482f6c968eabdeb6aa"
                     "c2deeebc92518bd8958471e29ed492b1889ebae1e9f0a56b", 16))
@given(well_posed())
def test_tls_objective_is_stationary_along_feasible_directions(case):
    """f(X) = ||(Ac X - Bc)(I + X^H X)^(-1/2)||_F^2, the total least
    squares objective (Golub & Van Loan 1980), is at a strict local
    minimum at the solver's X along every feasible direction."""
    kind, sizes, seed = case
    rng = np.random.default_rng(seed)
    problem = gen_instance("real", sizes, rng)
    X, _ = _base(kind, problem)
    direction = _feasible_direction(kind, problem, rng)
    assume(direction is not None)
    P = ALGEBRAS[kind].column(problem.A, problem.B)
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
@hypothesis.seed(int("b6d2658534c23edd55b83c5fe5512d027ee7e58178d5f069"
                     "af016cdd1e16d54de1810f18a824d2f5ffee98fd73bbd1ce", 16))
@given(well_posed())
def test_lse_objective_is_stationary_along_feasible_directions(case):
    """||Ac X - Bc||_F is at a strict local minimum at the least squares
    baseline's X along every feasible direction."""
    kind, sizes, seed = case
    rng = np.random.default_rng(seed)
    problem = gen_instance("real", sizes, rng)
    try:
        X = ALGEBRAS[kind].lse(problem.A, problem.B, problem.C, problem.D).X
    except RbtlseError:
        assume(False)
    direction = _feasible_direction(kind, problem, rng)
    assume(direction is not None)
    column = ALGEBRAS[kind].column
    Ac, Bc = column(problem.A), column(problem.B)

    def f(Y):
        return np.linalg.norm(Ac @ Y - Bc)

    _assert_stationary_minimum(f, X, direction,
                               1e-4 * (1 + np.linalg.norm(X)))


@SETTINGS
@hypothesis.seed(int("428befe03b1de1a3f8c8b8c8f0ec0703c8804fb1f97b2273"
                     "56e161034c5541c23e5c8694e485f51273586b85611aac20", 16))
@given(well_posed(max_n=5))
def test_kappa_matches_brute_force_jacobian(case):
    kind, sizes, seed = case
    problem = gen_instance("real", sizes, seed)
    _, kappa = _base(kind, problem)
    brute, _, _ = oracles.brute_kappa(problem, ALGEBRAS[kind].solve)
    assert abs(kappa - brute) <= 1e-6 * brute


@st.composite
def finite_rb_matrices(draw):
    """Any RB matrix with m, n in [0, 6] and finite float64 entries."""
    shape = (4, draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    return rb.RBMatrix(*draw(arrays(np.float64, shape, elements=st.floats(
        allow_nan=False, allow_infinity=False))))


@SETTINGS
@hypothesis.seed(int("0c7ddd10b3dfda3c994849f1cecf1fd184368c262fc1150e"
                     "6ba554dcc7839ca40046189c08c1ae7966cdeb003977933d", 16))
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


# ---------------------------------------------------------------------------
# the file and CLI surfaces: one edit of a valid RBMAT file
# ---------------------------------------------------------------------------

DIMS = st.one_of(st.integers(0, 8), st.integers(0, 10 ** 12))
# what a line or token edit puts in: a number, ASCII text or any text
TEXT = st.one_of(st.floats().map(repr),
                 st.text(st.characters(max_codepoint=127), max_size=12),
                 st.text(max_size=12)).map(str.encode)
# (edit, position, payload): the position is taken modulo what the edit
# can reach; the payload is what it puts in
EDITS = st.one_of(
    st.tuples(st.sampled_from(["delete", "duplicate", "truncate"]),
              st.integers(0, 2 ** 16), st.just(b"")),
    st.tuples(st.sampled_from(["line", "token"]), st.integers(0, 2 ** 16),
              TEXT),
    st.tuples(st.just("bytes"), st.integers(0, 2 ** 16),
              st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("header"), st.just(0),
              st.tuples(DIMS, DIMS).map(lambda mn: b"RBMAT %d %d" % mn)))
EYE2 = rb.RBMatrix.from_real(np.eye(2))


def _edited(path, edit) -> None:
    """Apply one edit to the file at ``path``: delete or duplicate a
    line, put a line before it, replace a token by any text, put bytes
    in or cut the file at a byte, or replace the header line."""
    kind, at, payload = edit
    with open(path, "rb") as fh:
        text = fh.read()
    lines = text.split(b"\n")
    i = at % len(lines)
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "line":
        lines.insert(i, payload)
    elif kind == "header":
        lines[0] = payload
    elif kind == "token":
        spans = [t.span() for t in re.finditer(rb"\S+", text)]
        start, stop = spans[at % len(spans)]
        lines = [text[:start] + payload + text[stop:]]
    else:
        j = at % (len(text) + 1)
        lines = [text[:j] + (payload if kind == "bytes" else b"")]
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))


@SETTINGS
@hypothesis.seed(int("1b827fab3ca295f0b03fb756cd0513c82f0fd27dd1fc4a28"
                     "64747e2506675302d8f0f07768d19e2d011afda7cd7b63a7", 16))
@given(finite_rb_matrices(), EDITS)
@example(rb.RBMatrix.zeros(2, 0), ("header", 0, b"RBMAT 0 1000000000000"))
@example(EYE2, ("header", 0, b"RBMAT 1000000000000 2"))
@example(EYE2, ("header", 0, b"RBMAT 2 1000000000000"))
@example(EYE2, ("token", 3, b"+1e-5"))     # still valid
@example(EYE2, ("bytes", 13, b"\r"))      # CR before LF
def test_an_edited_rbmat_file_reads_or_is_refused(P, edit):
    """After one edit a file either reads to a matrix that round-trips
    bit for bit or is refused with FileFormatError; no other error, a
    MemoryError from a header's dimensions included, gets out."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.rbmat")
        rb.write_rbmat(path, P)
        _edited(path, edit)
        try:
            Q = rb.read_rbmat(path)
        except FileFormatError:
            return
        rb.write_rbmat(path, Q)
        back = rb.read_rbmat(path)
    assert np.array_equal(back.components.view(np.uint64),
                          Q.components.view(np.uint64))


@SETTINGS
@hypothesis.seed(int("afb2a62fa38f837a09f35029afdf3a77ed5e584623ade13e"
                     "56b1a2d7510eda8c142d40621bffe550a04697a723731744", 16))
@given(st.sampled_from(sorted(ALGEBRAS)), st.sampled_from("abcd"), EDITS)
def test_solve_on_an_edited_file_exits_cleanly(kind, key, edit):
    """``solve-<kind>`` on the four files of a t = 1 instance, one of
    them edited, returns 0, 1 or 2 and never raises, and the report
    exists only after 0."""
    problem = gen_instance(kind, accuracy_sizes(kind, 1), 0)
    with tempfile.TemporaryDirectory() as tmp:
        argv = [f"solve-{kind}"]
        for k in "abcd":
            path = os.path.join(tmp, f"{k}.rbmat")
            rb.write_rbmat(path, getattr(problem, k.upper()))
            argv += [f"--{k}", path]
        _edited(os.path.join(tmp, f"{key}.rbmat"), edit)
        report = os.path.join(tmp, "report.txt")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(argv + ["--report", report])
        assert status in (0, 1, 2)
        assert os.path.exists(report) == (status == 0)
