"""Algebra, representation, norm, and file-format tests.

Oracles are built independently of the library: dense block grids for
the representations (``tests/oracles.py``), explicit permutation matrices
for the block maps, and hand-computed products for the multiplication
table.  A reduced biquaternion scalar is a 1x1 ``RBMatrix``, so the table
checks the package's one product, ``mat_mul`` (``@``).
"""

import os
import re

import numpy as np
import pytest

import oracles
import rbtlse.rb_core as rb
from rbtlse.errors import DimensionMismatch, FileFormatError, NonFiniteInput


def _rand_rb(rng, m, n):
    return rb.RBMatrix(*(rng.standard_normal((m, n)) for _ in range(4)))


# ---------------------------------------------------------------------------
# scalar multiplication table, on 1x1 matrices through mat_mul (``@``)
# ---------------------------------------------------------------------------

def _scalar(a0, a1, a2, a3):
    """The reduced biquaternion a0 + a1*i + a2*j + a3*k as a 1x1 matrix."""
    return rb.RBMatrix([[a0]], [[a1]], [[a2]], [[a3]])


def test_unit_products():
    one = _scalar(1, 0, 0, 0)
    i = _scalar(0, 1, 0, 0)
    j = _scalar(0, 0, 1, 0)
    k = _scalar(0, 0, 0, 1)
    assert i @ i == _scalar(-1, 0, 0, 0)
    assert j @ j == one
    assert k @ k == _scalar(-1, 0, 0, 0)
    assert i @ j == k
    assert j @ i == k
    assert j @ k == i
    assert k @ j == i
    assert k @ i == _scalar(0, 0, -1, 0)
    assert i @ k == _scalar(0, 0, -1, 0)
    for x in (one, i, j, k):
        assert one @ x == x


def test_zero_divisors():
    a = _scalar(1, 0, 1, 0)   # 1 + j
    b = _scalar(1, 0, -1, 0)  # 1 - j
    assert a @ b == _scalar(0, 0, 0, 0)


def test_scalar_product_hand_computed():
    # (1 + 2i + 3j + 4k)(5 + 6i + 7j + 8k) via the complex pair
    # (1+2i, 3+4i) * (5+6i, 7+8i):
    # first  = (1+2i)(5+6i) + (3+4i)(7+8i) = (-7+16i) + (-11+52i) = -18+68i
    # second = (1+2i)(7+8i) + (3+4i)(5+6i) = (-9+22i) + (-9+38i)  = -18+60i
    x = _scalar(1, 2, 3, 4)
    y = _scalar(5, 6, 7, 8)
    assert x @ y == _scalar(-18, 68, -18, 60)
    assert y @ x == _scalar(-18, 68, -18, 60)


def test_scalar_arithmetic_and_norm():
    x = _scalar(1, 2, 3, 4)
    y = _scalar(0.5, -1, 2, 0)
    assert x + y == _scalar(1.5, 1, 5, 4)
    assert x - y == _scalar(0.5, 3, 1, 4)
    assert -x == _scalar(-1, -2, -3, -4)
    assert x @ y == rb.mat_mul(x, y)
    assert x.norm() == pytest.approx(np.sqrt(30))


def test_commutativity_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = _scalar(*rng.standard_normal(4))
        y = _scalar(*rng.standard_normal(4))
        xy = x @ y
        yx = y @ x
        assert xy.p0[0, 0] == pytest.approx(yx.p0[0, 0], abs=1e-14)
        assert xy.p1[0, 0] == pytest.approx(yx.p1[0, 0], abs=1e-14)
        assert xy.p2[0, 0] == pytest.approx(yx.p2[0, 0], abs=1e-14)
        assert xy.p3[0, 0] == pytest.approx(yx.p3[0, 0], abs=1e-14)


# ---------------------------------------------------------------------------
# matrix construction and equality
# ---------------------------------------------------------------------------

def test_matrix_constructors():
    z = rb.RBMatrix.zeros(2, 3)
    assert z.shape == (2, 3)
    assert np.all(z.p0 == 0) and np.all(z.p3 == 0)

    e = rb.RBMatrix.eye(3)
    assert np.array_equal(e.p0, np.eye(3))
    assert np.all(e.p1 == 0)

    x = np.arange(6.0).reshape(2, 3)
    fr = rb.RBMatrix.from_real(x)
    assert np.array_equal(fr.p0, x) and np.all(fr.p1 == 0)

    zc = x + 1j * (x + 1)
    fc = rb.RBMatrix.from_complex(zc)
    assert np.array_equal(fc.p0, x)
    assert np.array_equal(fc.p1, x + 1)
    assert np.all(fc.p2 == 0) and np.all(fc.p3 == 0)


def test_equality_and_hash():
    rng = np.random.default_rng(1)
    a = _rand_rb(rng, 2, 2)
    b = rb.RBMatrix(a.p0, a.p1, a.p2, a.p3)
    assert a == b
    assert hash(a) == hash(b)
    c = b + rb.RBMatrix.eye(2)
    assert a != c
    assert a != "not a matrix"


def test_immutability():
    a = rb.RBMatrix.eye(2)
    with pytest.raises((ValueError, AttributeError)):
        a.p0[0, 0] = 5.0


def test_storage_is_one_read_only_array():
    """The four components live in one read-only float64 (4, m, n) array,
    and p0..p3 are views of it."""
    rng = np.random.default_rng(2)
    parts = [rng.standard_normal((2, 3)) for _ in range(4)]
    P = rb.RBMatrix(*parts)
    assert rb.RBMatrix.__slots__ == ("components",)
    assert P.components.shape == (4, 2, 3)
    assert P.components.dtype == np.float64
    assert not P.components.flags.writeable
    for i, part in enumerate(parts):
        comp = getattr(P, f"p{i}")
        assert np.shares_memory(comp, P.components)
        assert np.array_equal(comp, part)
        assert not np.shares_memory(comp, part)


def test_results_are_read_only():
    rng = np.random.default_rng(6)
    P, T = _rand_rb(rng, 2, 3), _rand_rb(rng, 2, 3)
    Y = rb.real_block_column(P)
    results = [P + T, P - T, -P, P * 2.0, P @ _rand_rb(rng, 3, 2),
               rb.hstack(P, T), rb.vstack(P, T), rb.from_real_block_column(Y),
               rb.from_complex_block_column(rb.complex_block_column(P))]
    for R in results:
        assert not R.components.flags.writeable
    # the inverse map copies its input: a later write does not leak in
    before = rb.from_real_block_column(Y)
    Y[0, 0] += 1.0
    assert before == P


@pytest.mark.parametrize("op", [lambda a, b: a + b, lambda a, b: a - b],
                         ids=["add", "sub"])
def test_add_sub_reject_shape_mismatch(op):
    """No broadcasting: a 1x3 and a 4x3 matrix do not add."""
    with pytest.raises(DimensionMismatch):
        op(rb.RBMatrix.zeros(1, 3), rb.RBMatrix.zeros(4, 3))
    with pytest.raises(DimensionMismatch):
        op(rb.RBMatrix.zeros(2, 3), rb.RBMatrix.zeros(2, 1))


def test_complex_components_rejected():
    """A complex component raises instead of losing its imaginary part."""
    z = np.zeros((2, 2))
    with pytest.raises(TypeError):
        rb.RBMatrix(1j * np.ones((2, 2)), z, z, z)
    with pytest.raises(TypeError):
        rb.RBMatrix(z, z, z, np.ones((2, 2), dtype=np.complex128))
    with pytest.raises(TypeError):
        rb.from_real_block_column(1j * np.ones((4, 2)))


def test_complex_pair_keeps_signed_zero():
    """A negative zero component 0 beside a positive component 1 survives
    the complex-pair round trip and scaling by 1."""
    P = rb.RBMatrix([[-0.0]], [[2.0]], [[0.0]], [[0.0]])
    for Q in (rb.from_complex_pair(*rb.to_complex_pair(P)), P * 1):
        assert np.signbit(Q.p0[0, 0])
        assert Q == P


def test_component_shape_checks():
    with pytest.raises(DimensionMismatch):
        rb.RBMatrix(np.zeros((2, 2)), np.zeros((2, 3)),
                    np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        rb.RBMatrix(np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4))


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def test_real_repr_of_units():
    i = rb.RBMatrix([[0.0]], [[1.0]], [[0.0]], [[0.0]])
    expect_i = np.array([
        [0, -1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ], dtype=float)
    assert np.array_equal(oracles.real_repr(i), expect_i)

    one = rb.RBMatrix.eye(1)
    assert np.array_equal(oracles.real_repr(one), np.eye(4))

    j = rb.RBMatrix([[0.0]], [[0.0]], [[1.0]], [[0.0]])
    expect_j_c = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.array_equal(oracles.complex_repr(j), expect_j_c)
    assert np.array_equal(oracles.complex_repr(one), np.eye(2))


def test_real_repr_matches_dense_grid():
    """The library's block columns are the leading block columns of the
    dense representations."""
    rng = np.random.default_rng(2)
    for m, n in [(1, 1), (3, 2), (4, 5)]:
        P = _rand_rb(rng, m, n)
        assert np.array_equal(oracles.real_repr(P)[:, :n],
                              rb.real_block_column(P))
        assert np.array_equal(rb.real_block_column(P),
                              np.vstack([P.p0, P.p1, P.p2, P.p3]))
        assert np.array_equal(oracles.complex_repr(P)[:, :n],
                              rb.complex_block_column(P))


@pytest.mark.parametrize("column", [rb.real_block_column,
                                    rb.complex_block_column])
@pytest.mark.parametrize("rows,widths", [(3, (4, 2)), (5, (3, 1)),
                                         (0, (4, 2)), (0, (3, 1)),
                                         (2, (1, 1, 3))])
def test_block_columns_side_by_side(column, rows, widths):
    """Several row-aligned blocks give the hstack of their single-block
    columns, bit for bit, also for 0-row blocks and one-column blocks."""
    rng = np.random.default_rng(5)
    blocks = [_rand_rb(rng, rows, w) for w in widths]
    got = column(*blocks)
    want = np.hstack([column(B) for B in blocks])
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    with pytest.raises(DimensionMismatch):
        column(blocks[0], _rand_rb(rng, rows + 1, 2))


def test_complex_block_column_keeps_signed_zeros():
    """The complex map writes the components into the real and imaginary
    parts as given, a negative zero included."""
    P = rb.RBMatrix([[-0.0, 1.0]], [[2.0, -0.0]], [[-0.0, 0.0]],
                    [[-0.0, 3.0]])
    col = rb.complex_block_column(P)
    for part, comps in ((col.real, (P.p0, P.p2)), (col.imag, (P.p1, P.p3))):
        assert part.tobytes() == np.vstack(comps).tobytes()


def test_block_column_reconstruction():
    """The full representation is [col, K col, L col, M col] with explicit
    signed block permutations, bit exact."""
    rng = np.random.default_rng(3)
    m, n = 3, 4
    P = _rand_rb(rng, m, n)
    col = rb.real_block_column(P)
    eye = np.eye(m)
    zero = np.zeros((m, m))
    K = np.block([[zero, -eye, zero, zero],
                  [eye, zero, zero, zero],
                  [zero, zero, zero, -eye],
                  [zero, zero, eye, zero]])
    L = np.block([[zero, zero, eye, zero],
                  [zero, zero, zero, eye],
                  [eye, zero, zero, zero],
                  [zero, eye, zero, zero]])
    M = np.block([[zero, zero, zero, -eye],
                  [zero, zero, eye, zero],
                  [zero, -eye, zero, zero],
                  [eye, zero, zero, zero]])
    full = oracles.real_repr(P)
    assert np.array_equal(full[:, :n], col)
    assert np.array_equal(full[:, n:2 * n], K @ col)
    assert np.array_equal(full[:, 2 * n:3 * n], L @ col)
    assert np.array_equal(full[:, 3 * n:], M @ col)

    ccol = rb.complex_block_column(P)
    N = np.block([[np.zeros((m, m)), np.eye(m)],
                  [np.eye(m), np.zeros((m, m))]])
    cfull = oracles.complex_repr(P)
    assert np.array_equal(cfull[:, :n], ccol)
    assert np.array_equal(cfull[:, n:], N @ ccol)


def test_block_column_round_trip():
    rng = np.random.default_rng(4)
    P = _rand_rb(rng, 5, 3)
    assert rb.from_real_block_column(rb.real_block_column(P)) == P
    assert rb.from_complex_block_column(rb.complex_block_column(P)) == P
    r1, r2 = rb.to_complex_pair(P)
    assert rb.from_complex_pair(r1, r2) == P


def test_real_repr_homomorphism():
    rng = np.random.default_rng(5)
    for _ in range(20):
        P = _rand_rb(rng, 3, 4)
        Q = _rand_rb(rng, 4, 2)
        R = _rand_rb(rng, 3, 4)
        lhs = oracles.real_repr(rb.mat_mul(P, Q))
        rhs = oracles.real_repr(P) @ oracles.real_repr(Q)
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-13 * max(1, abs(rhs).max()))
        add = oracles.real_repr(P + R)
        assert np.array_equal(
            add, oracles.real_repr(P) + oracles.real_repr(R))
        zeta = float(rng.standard_normal())
        assert np.allclose(oracles.real_repr(P * zeta),
                           zeta * oracles.real_repr(P), atol=1e-14)


def test_complex_repr_homomorphism():
    rng = np.random.default_rng(6)
    for _ in range(20):
        P = _rand_rb(rng, 3, 4)
        Q = _rand_rb(rng, 4, 2)
        lhs = oracles.complex_repr(rb.mat_mul(P, Q))
        rhs = oracles.complex_repr(P) @ oracles.complex_repr(Q)
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-13 * max(1, abs(rhs).max()))
        zeta = complex(rng.standard_normal(), rng.standard_normal())
        assert np.allclose(oracles.complex_repr(P * zeta),
                           zeta * oracles.complex_repr(P), atol=1e-13)


def test_mat_mul_against_representation_product():
    """Multiply via the dense real representation, read the product back
    out of its first block column."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        P = _rand_rb(rng, 4, 3)
        Q = _rand_rb(rng, 3, 5)
        got = rb.mat_mul(P, Q)
        dense = oracles.real_repr(P) @ np.vstack([Q.p0, Q.p1, Q.p2, Q.p3])
        want = rb.from_real_block_column(dense)
        assert rb.frobenius_norm(got - want) < 1e-12 * max(1.0, rb.frobenius_norm(want))


def test_mat_mul_shape_check():
    a = rb.RBMatrix.zeros(2, 3)
    b = rb.RBMatrix.zeros(2, 3)
    with pytest.raises(DimensionMismatch):
        rb.mat_mul(a, b)


def test_matmul_operator():
    rng = np.random.default_rng(8)
    P = _rand_rb(rng, 2, 3)
    Q = _rand_rb(rng, 3, 2)
    assert (P @ Q) == rb.mat_mul(P, Q)


def test_scalar_multiplication_rb():
    rng = np.random.default_rng(9)
    P = _rand_rb(rng, 2, 2)
    Z, I = np.zeros((2, 2)), np.eye(2)
    # multiplying by j (j times the identity) swaps the complex pair
    jp = P @ rb.RBMatrix(Z, Z, I, Z)
    r1, r2 = rb.to_complex_pair(P)
    s1, s2 = rb.to_complex_pair(jp)
    assert np.allclose(s1, r2, atol=1e-15)
    assert np.allclose(s2, r1, atol=1e-15)
    # __rmul__ with a plain float
    assert (2.0 * P) == (P * 2.0)
    # a complex factor scales both halves of the pair, as i*I does
    ip = P @ rb.RBMatrix(Z, I, Z, Z)
    for c, d in zip(rb.to_complex_pair(P * 1j), rb.to_complex_pair(ip)):
        assert np.allclose(c, d, atol=1e-15)


def _signed_zero_components():
    """Random components with -0.0 and +0.0 in every slice and one inf."""
    comps = np.random.default_rng(11).standard_normal((4, 3, 2))
    comps[:, 0, 0] = -0.0
    comps[:, 2, 1] = 0.0
    comps[3, 1, 1] = np.inf
    return comps


@pytest.mark.parametrize("f", [2.5, -3.0, 0.0, -0.0, 3, np.float64(1e-8)])
def test_real_scaling_is_the_component_product(f):
    """P * f and f * P for a real f are the float64 products of the
    components, bit for bit: a signed zero keeps its sign and inf * 0 is
    the nan of that product."""
    comps = _signed_zero_components()
    P = rb.RBMatrix(*comps)
    with np.errstate(invalid="ignore"):
        expected = (comps * f).view(np.uint64)
        scaled = (P * f, f * P)
    for Q in scaled:
        assert Q.components.dtype == np.float64
        assert not Q.components.flags.writeable
        assert np.array_equal(Q.components.view(np.uint64), expected)


@pytest.mark.parametrize("z", [0.5 - 2j, complex(2.0), np.complex128(-1j)])
def test_complex_scaling_scales_the_pair(z):
    """A complex factor, one with zero imaginary part included, scales
    both halves of the complex pair."""
    P = rb.RBMatrix(*_signed_zero_components()[:, :, :1])
    r1, r2 = rb.to_complex_pair(P)
    expected = rb.from_complex_pair(r1 * z, r2 * z).components
    for Q in (P * z, z * P):
        assert np.array_equal(Q.components.view(np.uint64),
                              expected.view(np.uint64))


def test_hstack_vstack():
    rng = np.random.default_rng(10)
    a = _rand_rb(rng, 2, 3)
    b = _rand_rb(rng, 2, 4)
    h = rb.hstack(a, b)
    assert h.shape == (2, 7)
    assert np.array_equal(h.p2[:, :3], a.p2)
    assert np.array_equal(h.p2[:, 3:], b.p2)
    c = _rand_rb(rng, 5, 3)
    v = rb.vstack(a, c)
    assert v.shape == (7, 3)
    assert np.array_equal(v.p1[:2], a.p1)
    assert np.array_equal(v.p1[2:], c.p1)
    with pytest.raises(DimensionMismatch):
        rb.hstack(a, c)
    with pytest.raises(DimensionMismatch):
        rb.vstack(a, b)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_frobenius_norm_of_unit_sum():
    P = rb.RBMatrix([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    assert rb.frobenius_norm(P) == pytest.approx(2.0)


@pytest.mark.parametrize("k", [-600, -500, 500, 600])
def test_frobenius_norm_scales_exactly(k):
    """Scaling by a power of two scales the norm exactly, also where the
    plain sum of squares over- or underflows."""
    P = _rand_rb(np.random.default_rng(3), 6, 5)
    assert rb.frobenius_norm(P * 2.0 ** k) == 2.0 ** k * rb.frobenius_norm(P)


def test_norm_chain():
    """||P|| = ||P^R||/2 = ||P^R col|| = ||P^C||/sqrt(2) = ||P^C col||."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        P = _rand_rb(rng, m, n)
        f = rb.frobenius_norm(P)
        rr, rr_col = oracles.real_repr(P), rb.real_block_column(P)
        cr, cr_col = oracles.complex_repr(P), rb.complex_block_column(P)
        assert np.linalg.norm(rr) / 2 == pytest.approx(f, rel=1e-14)
        assert np.linalg.norm(rr_col) == pytest.approx(f, rel=1e-14)
        assert np.linalg.norm(cr) / np.sqrt(2) == pytest.approx(f, rel=1e-14)
        assert np.linalg.norm(cr_col) == pytest.approx(f, rel=1e-14)
        # same six relations as ratios between representations
        assert np.linalg.norm(rr) == pytest.approx(
            2 * np.linalg.norm(rr_col), rel=1e-14)
        assert np.linalg.norm(cr) == pytest.approx(
            np.sqrt(2) * np.linalg.norm(cr_col), rel=1e-14)


def test_matrix_norm_method():
    rng = np.random.default_rng(12)
    P = _rand_rb(rng, 3, 3)
    assert P.norm() == pytest.approx(rb.frobenius_norm(P))


# ---------------------------------------------------------------------------
# RBMAT file format
# ---------------------------------------------------------------------------

def test_rbmat_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    path = tmp_path / "p.rbmat"
    # a zero-column block is m blank rows
    for shape in ((3, 2), (3, 0), (0, 3), (0, 0)):
        P = _rand_rb(rng, *shape)
        rb.write_rbmat(path, P)
        Q = rb.read_rbmat(path)
        assert Q.shape == shape
        assert P == Q  # exact: repr round-trips float64


def test_rbmat_zero_rows(tmp_path):
    P = rb.RBMatrix.zeros(0, 3)
    path = tmp_path / "empty.rbmat"
    rb.write_rbmat(path, P)
    Q = rb.read_rbmat(path)
    assert Q.shape == (0, 3)


GOLDEN = [-0.0, 5e-324, 1e16, 1e-05, 0.1, float(2**53 + 1), -1e300, 3.0]


@pytest.mark.parametrize("P, text", [
    # components 0, 1 hold GOLDEN row-major, components 2, 3 its negation
    (rb.RBMatrix(*np.array([GOLDEN, [-v for v in GOLDEN]]).reshape(4, 2, 2)),
     "RBMAT 2 2\n"
     "-0.0 5e-324\n1e+16 1e-05\n\n"
     "0.1 9007199254740992.0\n-1e+300 3.0\n\n"
     "0.0 -5e-324\n-1e+16 -1e-05\n\n"
     "-0.1 -9007199254740992.0\n1e+300 -3.0\n"),
    (rb.RBMatrix.zeros(2, 0), "RBMAT 2 0" + "\n" * 12),
    (rb.RBMatrix.zeros(0, 3), "RBMAT 0 3" + "\n" * 8),
], ids=["golden", "n0", "m0"])
def test_rbmat_golden_bytes(tmp_path, P, text):
    """The writer's byte contract: each float as its Python repr, single
    spaces, one row per line, one blank line between blocks; reading it
    back gives the components bit for bit, sign of zero included."""
    path = tmp_path / "g.rbmat"
    rb.write_rbmat(path, P)
    assert path.read_bytes() == text.encode("ascii")
    back = rb.read_rbmat(path).components
    assert back.shape == P.components.shape
    assert back.tobytes() == P.components.tobytes()


@pytest.mark.parametrize("mutate, message", [
    (lambda lines: lines[:-1], "block 3 truncated at row 1 (expected 2 rows)"),
    (lambda lines: lines[:2] + ["1.0 2.0 3.0"] + lines[3:],
     "block 0 row 1 has 3 fields, expected 2"),
    (lambda lines: lines[:4] + [""] + lines[5:],
     "block 1 row 0 is blank (ragged block)"),
    (lambda lines: lines[:8] + ["0.0 oops"] + lines[9:],
     "block 2 row 1: non-numeric field"),
], ids=["truncated", "ragged", "blank", "non-numeric"])
def test_rbmat_error_names_block_and_row(tmp_path, mutate, message):
    path = tmp_path / "bad.rbmat"
    rb.write_rbmat(path, rb.RBMatrix.eye(2))
    lines = path.read_text().splitlines()
    # no final newline, so a dropped last row truncates the block
    path.write_text("\n".join(mutate(lines)))
    with pytest.raises(FileFormatError, match=re.escape(message)):
        rb.read_rbmat(path)


def test_rbmat_header_format(tmp_path):
    P = rb.RBMatrix.eye(2)
    path = tmp_path / "e.rbmat"
    rb.write_rbmat(path, P)
    first = path.read_text().splitlines()[0]
    assert first == "RBMAT 2 2"


@pytest.mark.parametrize("mutate", [
    lambda lines: ["WRONG 2 2"] + lines[1:],            # bad magic
    lambda lines: ["RBMAT 2"] + lines[1:],              # short header
    lambda lines: ["RBMAT x 2"] + lines[1:],            # non-integer dims
    lambda lines: lines[:1] + ["1.0 2.0 3.0"] + lines[2:],  # ragged row
    lambda lines: lines[:-3],                            # missing block
    lambda lines: lines + ["", "5.0 5.0"],               # trailing junk
    lambda lines: lines[:1] + ["1.0 oops"] + lines[2:],  # non-float entry
    lambda lines: ["RBMATRIX 2 2"] + lines[1:],         # magic as a prefix
    lambda lines: lines[:1] + ["1.0 \u00b5"] + lines[2:],  # non-ASCII
    lambda lines: ["RBMAT 0_2 2"] + lines[1:],          # Python numeral dim
    lambda lines: lines[:1] + ["1_0 0.0"] + lines[2:],  # Python numeral entry
    lambda lines: ["RBMAT 1000000000000 2"] + lines[1:],  # m beyond the file
    lambda lines: ["RBMAT 2 1000000000000"] + lines[1:],  # n beyond a row
])
def test_rbmat_malformed(tmp_path, mutate):
    P = rb.RBMatrix.eye(2)
    path = tmp_path / "bad.rbmat"
    rb.write_rbmat(path, P)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(mutate(lines)) + "\n", encoding="utf-8")
    with pytest.raises(FileFormatError):
        rb.read_rbmat(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
def test_rbmat_rejects_non_finite(tmp_path, token):
    path = tmp_path / "bad.rbmat"
    rb.write_rbmat(path, rb.RBMatrix.eye(2))
    lines = path.read_text().splitlines()
    lines[-1] = f"0.0 {token}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError):
        rb.read_rbmat(path)


def test_rbmat_write_non_finite_leaves_file(tmp_path):
    """A nan matrix is refused before anything is written, so the file it
    would have replaced stays byte-identical."""
    path = tmp_path / "p.rbmat"
    rb.write_rbmat(path, rb.RBMatrix.eye(2))
    before = path.read_bytes()
    bad = rb.RBMatrix([[np.nan, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]],
                      [[0.0, 0.0]])
    with pytest.raises(NonFiniteInput):
        rb.write_rbmat(path, bad)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["p.rbmat"]


def test_rbmat_missing_blank_separator(tmp_path):
    P = rb.RBMatrix.eye(1)
    path = tmp_path / "sep.rbmat"
    rb.write_rbmat(path, P)
    text = path.read_text().replace("\n\n", "\n", 1)
    path.write_text(text)
    with pytest.raises(FileFormatError):
        rb.read_rbmat(path)


def test_rbmat_write_is_atomic(tmp_path, monkeypatch):
    """A failed write leaves an existing file byte-identical and no temp
    file behind."""
    path = tmp_path / "p.rbmat"
    rb.write_rbmat(path, rb.RBMatrix.eye(2))
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        rb.write_rbmat(path, rb.RBMatrix.zeros(3, 3))
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["p.rbmat"]


def test_rbmat_write_to_missing_directory(tmp_path):
    with pytest.raises(OSError):
        rb.write_rbmat(tmp_path / "nope" / "p.rbmat", rb.RBMatrix.eye(2))
    assert list(tmp_path.iterdir()) == []
