"""Reduced biquaternion matrices.

A reduced biquaternion is a number a0 + a1*i + a2*j + a3*k whose basis
elements multiply commutatively:

    i*i = k*k = -1,   j*j = +1,
    i*j = j*i = k,    j*k = k*j = i,    k*i = i*k = -j.

Because j*j = +1 the algebra has zero divisors, e.g. (1+j)*(1-j) = 0, so
there is no division in general; everything downstream works through the
matrix representations instead.

Every reduced biquaternion splits into a pair of ordinary complex numbers,

    a0 + a1*i + a2*j + a3*k = (a0 + a1*i) + (a2 + a3*i)*j,

and the product of two such pairs (b1 + b2*j)(c1 + c2*j) is
(b1*c1 + b2*c2) + (b1*c2 + b2*c1)*j.  The one product, :func:`mat_mul`
(``@``), is computed in that pair form, which is both the cheapest route
and the one that keeps complex conjugation semantics obvious.  A single
reduced biquaternion is a 1-by-1 :class:`RBMatrix`, multiplied with ``@``;
``*`` scales a matrix by a real or complex factor only.

An m-by-n matrix over this algebra is stored component-major: four real
m-by-n arrays (components of 1, i, j, k).  It has two linear
representations, of which the solvers use only the leading block columns:

* a real 4m-by-4n block matrix whose first block column stacks the four
  components, the remaining three block columns being signed block
  permutations of the first;
* a complex 2m-by-2n block matrix [[R1, R2], [R2, R1]] built from the
  complex pair, with leading block column [R1; R2].

The Frobenius norm of the matrix equals the norm of either leading block
column, half the norm of the full real representation, and 1/sqrt(2) times
the norm of the full complex representation.
"""

from __future__ import annotations

import contextlib
import os
import secrets

import numpy as np

from .errors import DimensionMismatch, FileFormatError, NonFiniteInput

__all__ = [
    "RBMatrix",
    "mat_mul",
    "from_complex_pair",
    "to_complex_pair",
    "real_block_column",
    "complex_block_column",
    "from_real_block_column",
    "from_complex_block_column",
    "hstack",
    "vstack",
    "frobenius_norm",
    "read_rbmat",
    "write_rbmat",
    "atomic_open",
]


def _as_component(a, shape=None) -> np.ndarray:
    arr = np.array(a, dtype=np.float64, order="C")
    if arr.ndim != 2:
        raise DimensionMismatch(f"component must be 2-D, got shape {arr.shape}")
    if shape is not None and arr.shape != shape:
        raise DimensionMismatch(
            f"components disagree in shape: {arr.shape} vs {shape}")
    arr.setflags(write=False)
    return arr


class RBMatrix:
    """Matrix over the reduced biquaternions, stored as four real arrays.

    Instances are immutable: the component arrays are copied on
    construction and marked read-only, so values can be shared freely.
    """

    __slots__ = ("p0", "p1", "p2", "p3")

    def __init__(self, p0, p1, p2, p3):
        first = _as_component(p0)
        # immutability is carried by the read-only arrays
        self.p0 = first
        self.p1 = _as_component(p1, first.shape)
        self.p2 = _as_component(p2, first.shape)
        self.p3 = _as_component(p3, first.shape)

    @property
    def shape(self) -> tuple[int, int]:
        return self.p0.shape

    @property
    def rows(self) -> int:
        return self.p0.shape[0]

    @property
    def cols(self) -> int:
        return self.p0.shape[1]

    @classmethod
    def zeros(cls, m: int, n: int) -> "RBMatrix":
        z = np.zeros((m, n))
        return cls(z, z, z, z)

    @classmethod
    def eye(cls, n: int) -> "RBMatrix":
        z = np.zeros((n, n))
        return cls(np.eye(n), z, z, z)

    @classmethod
    def from_real(cls, x) -> "RBMatrix":
        """Embed a plain real matrix (components 1..3 zero)."""
        x = np.asarray(x, dtype=np.float64)
        z = np.zeros_like(x)
        return cls(x, z, z, z)

    @classmethod
    def from_complex(cls, z) -> "RBMatrix":
        """Embed a plain complex matrix Z as Z + 0*j."""
        z = np.asarray(z, dtype=np.complex128)
        zero = np.zeros(z.shape)
        return cls(z.real, z.imag, zero, zero)

    def __add__(self, other: "RBMatrix") -> "RBMatrix":
        return RBMatrix(self.p0 + other.p0, self.p1 + other.p1,
                        self.p2 + other.p2, self.p3 + other.p3)

    def __sub__(self, other: "RBMatrix") -> "RBMatrix":
        return RBMatrix(self.p0 - other.p0, self.p1 - other.p1,
                        self.p2 - other.p2, self.p3 - other.p3)

    def __neg__(self) -> "RBMatrix":
        return RBMatrix(-self.p0, -self.p1, -self.p2, -self.p3)

    def __mul__(self, zeta):
        """Scale by a real or complex factor (entrywise); a reduced
        biquaternion factor is a 1x1 RBMatrix, applied with ``@``."""
        zeta = complex(zeta)
        r1, r2 = to_complex_pair(self)
        return from_complex_pair(r1 * zeta, r2 * zeta)

    __rmul__ = __mul__

    def __matmul__(self, other: "RBMatrix") -> "RBMatrix":
        return mat_mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RBMatrix):
            return NotImplemented
        return (np.array_equal(self.p0, other.p0)
                and np.array_equal(self.p1, other.p1)
                and np.array_equal(self.p2, other.p2)
                and np.array_equal(self.p3, other.p3))

    def __hash__(self):
        return hash((self.shape, float(frobenius_norm(self))))

    def __repr__(self):
        m, n = self.shape
        return f"RBMatrix({m}x{n}, |.|_F={frobenius_norm(self):.6g})"

    def norm(self) -> float:
        return frobenius_norm(self)


def from_complex_pair(r1, r2) -> RBMatrix:
    """Build from the complex pair P = R1 + R2*j."""
    r1 = np.asarray(r1, dtype=np.complex128)
    r2 = np.asarray(r2, dtype=np.complex128)
    if r1.shape != r2.shape:
        raise DimensionMismatch(
            f"pair shapes disagree: {r1.shape} vs {r2.shape}")
    return RBMatrix(r1.real, r1.imag, r2.real, r2.imag)


def to_complex_pair(P: RBMatrix):
    """Complex pair (R1, R2) with P = R1 + R2*j; lossless."""
    return P.p0 + 1j * P.p1, P.p2 + 1j * P.p3


# ---------------------------------------------------------------------------
# Leading block columns.
#
# The full real representation is [Pc, K*Pc, L*Pc, M*Pc] where Pc stacks the
# four components, and the complex one is [Pc, N*Pc] with Pc = [R1; R2].
# The other block columns are signed block permutations of Pc and carry
# nothing new, so the solvers work on Pc alone.  The full representations
# are built only as test oracles (tests/oracles.py).  The maps take several
# row-aligned blocks, so a solver's stack [Ac, Bc] is one array written
# once.
# ---------------------------------------------------------------------------

def _blocks4(Y: np.ndarray):
    if Y.shape[0] % 4 != 0:
        raise DimensionMismatch(f"row count {Y.shape[0]} not divisible by 4")
    m = Y.shape[0] // 4
    return Y[:m], Y[m:2 * m], Y[2 * m:3 * m], Y[3 * m:]


def _row_aligned(blocks) -> tuple[int, list[int]]:
    """Common row count of ``blocks`` and the column offsets at which
    each block starts, the last entry being the total width."""
    m = blocks[0].rows
    offsets = [0]
    for B in blocks:
        if B.rows != m:
            raise DimensionMismatch(
                f"row counts disagree: {blocks[0].shape} vs {B.shape}")
        offsets.append(offsets[-1] + B.cols)
    return m, offsets


def real_block_column(P: RBMatrix, *more: RBMatrix) -> np.ndarray:
    """Leading block column of the real representation, [P0;P1;P2;P3].

    With further row-aligned blocks T, ... the result is the leading block
    columns of P, T, ... side by side, [P0 T0; P1 T1; P2 T2; P3 T3], each
    component written once into one new array (no intermediate stacks).
    """
    blocks = (P, *more)
    m, offsets = _row_aligned(blocks)
    out = np.empty((4 * m, offsets[-1]))
    for B, lo, hi in zip(blocks, offsets, offsets[1:]):
        for i, comp in enumerate((B.p0, B.p1, B.p2, B.p3)):
            out[i * m:(i + 1) * m, lo:hi] = comp
    return out


def complex_block_column(P: RBMatrix, *more: RBMatrix) -> np.ndarray:
    """Leading block column of the complex representation, [R1;R2].

    Further row-aligned blocks go side by side as in
    :func:`real_block_column`.  The components are written into the real
    and imaginary parts of one complex array, so no R1 or R2 temporary is
    formed and every component, a signed zero included, is kept as given.
    """
    blocks = (P, *more)
    m, offsets = _row_aligned(blocks)
    out = np.empty((2 * m, offsets[-1]), dtype=np.complex128)
    re, im = out.real, out.imag
    for B, lo, hi in zip(blocks, offsets, offsets[1:]):
        re[:m, lo:hi], im[:m, lo:hi] = B.p0, B.p1
        re[m:, lo:hi], im[m:, lo:hi] = B.p2, B.p3
    return out


def from_real_block_column(Y: np.ndarray) -> RBMatrix:
    """Inverse of :func:`real_block_column` (component order 0,1,2,3)."""
    y0, y1, y2, y3 = _blocks4(np.asarray(Y, dtype=np.float64))
    return RBMatrix(y0, y1, y2, y3)


def from_complex_block_column(Y: np.ndarray) -> RBMatrix:
    """Inverse of :func:`complex_block_column`."""
    Y = np.asarray(Y, dtype=np.complex128)
    if Y.shape[0] % 2 != 0:
        raise DimensionMismatch(f"row count {Y.shape[0]} not divisible by 2")
    m = Y.shape[0] // 2
    return from_complex_pair(Y[:m], Y[m:])


def mat_mul(P: RBMatrix, T: RBMatrix) -> RBMatrix:
    """Product of reduced biquaternion matrices.

    Computed in complex-pair form: with P = R1 + R2*j and T = S1 + S2*j,
    P*T = (R1@S1 + R2@S2) + (R1@S2 + R2@S1)*j.  Equivalent to multiplying
    the real representations and reading back the first block column.
    """
    if P.cols != T.rows:
        raise DimensionMismatch(
            f"inner dimensions disagree: {P.shape} @ {T.shape}")
    r1, r2 = to_complex_pair(P)
    s1, s2 = to_complex_pair(T)
    return from_complex_pair(r1 @ s1 + r2 @ s2, r1 @ s2 + r2 @ s1)


def hstack(P: RBMatrix, T: RBMatrix) -> RBMatrix:
    if P.rows != T.rows:
        raise DimensionMismatch(
            f"row counts disagree: {P.shape} vs {T.shape}")
    return RBMatrix(np.hstack([P.p0, T.p0]), np.hstack([P.p1, T.p1]),
                    np.hstack([P.p2, T.p2]), np.hstack([P.p3, T.p3]))


def vstack(P: RBMatrix, T: RBMatrix) -> RBMatrix:
    if P.cols != T.cols:
        raise DimensionMismatch(
            f"column counts disagree: {P.shape} vs {T.shape}")
    return RBMatrix(np.vstack([P.p0, T.p0]), np.vstack([P.p1, T.p1]),
                    np.vstack([P.p2, T.p2]), np.vstack([P.p3, T.p3]))


def _norm(*arrays: np.ndarray) -> float:
    """Frobenius norm of real or complex arrays taken together.

    A plain sum of squares that overflows or falls below 2**-900 is redone
    with every entry scaled by the power of two of the largest magnitude
    (exact; the LAPACK nrm2 idea), so the norm is right at any scale and
    bit-identical to the plain sum wherever that is safe.
    """
    with np.errstate(over="ignore", under="ignore"):
        total = 0.0
        for a in arrays:
            total += np.sum(a ** 2 if np.isrealobj(a) else np.abs(a) ** 2)
        if np.isfinite(total) and total >= 2.0 ** -900:
            return float(np.sqrt(total))
        parts = [c for a in arrays for c in (a.real, a.imag)]
        peak = max((np.max(np.abs(c)) for c in parts if c.size), default=0.0)
        if peak == 0.0:
            return 0.0
        e = np.frexp(peak)[1]
        total = sum(np.sum(np.ldexp(c, -e) ** 2) for c in parts)
        return float(np.ldexp(np.sqrt(total), e))


def frobenius_norm(P: RBMatrix) -> float:
    """Frobenius norm: root of the summed squared entry norms, scale-safe.

    Equals the plain Frobenius norm of either leading block column.
    """
    return _norm(P.p0, P.p1, P.p2, P.p3)


# ---------------------------------------------------------------------------
# RBMAT v1 text files.
#
# Line 1:  "RBMAT <m> <n>".  Then four blocks, components 0..3 in order,
# each m lines of n space-separated decimal floats (blank lines when
# n = 0), consecutive blocks separated by exactly one blank line.
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def atomic_open(path, **kwargs):
    """Text file handle whose content replaces ``path`` all at once.

    Writes go to a new uniquely named temp file beside ``path``, renamed
    over it when the block ends; on any failure the temp file is deleted
    and ``path`` is left as it was.  The temp file is created by plain
    exclusive ``open`` so the result gets the usual umask-derived mode.
    ``kwargs`` go to :func:`open`.
    """
    tmp = f"{os.fspath(path)}.{secrets.token_hex(8)}.tmp"
    fh = open(tmp, "x", **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_rbmat(path, P: RBMatrix) -> None:
    """Write in the RBMAT v1 format with full round-trip precision;
    atomic, as :func:`atomic_open`.  A matrix holding nan or inf raises
    NonFiniteInput before anything is written."""
    if not all(np.isfinite(c).all() for c in (P.p0, P.p1, P.p2, P.p3)):
        raise NonFiniteInput("RBMAT entries must be finite")
    m, n = P.shape
    blocks = []
    for comp in (P.p0, P.p1, P.p2, P.p3):
        blocks.append("\n".join(
            " ".join(repr(float(v)) for v in row) for row in comp))
    body = "\n\n".join(blocks)
    with atomic_open(path, encoding="ascii") as fh:
        fh.write(f"RBMAT {m} {n}\n{body}\n")


def read_rbmat(path) -> RBMatrix:
    """Read an RBMAT v1 file; malformed layout raises FileFormatError."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"non-ASCII content: {exc}") from exc
    # Python numerals such as 1_000 are not RBMAT decimals
    if "_" in text:
        raise FileFormatError("'_' in a field; numbers must be plain decimals")
    lines = text.split("\n")
    fields = lines[0].split()
    if not fields or fields[0] != "RBMAT":
        raise FileFormatError("missing RBMAT header")
    if len(fields) != 3:
        raise FileFormatError(f"bad header: {lines[0]!r}")
    try:
        m, n = int(fields[1]), int(fields[2])
    except ValueError as exc:
        raise FileFormatError(f"bad header dimensions: {lines[0]!r}") from exc
    if m < 0 or n < 0:
        raise FileFormatError(f"negative dimensions: {lines[0]!r}")

    pos = 1
    comps = []
    for block in range(4):
        if block > 0:
            if pos >= len(lines) or lines[pos].strip() != "":
                raise FileFormatError(
                    f"expected blank separator before block {block}")
            pos += 1
        rows = []
        for r in range(m):
            if pos >= len(lines):
                raise FileFormatError(
                    f"block {block} truncated at row {r} (expected {m} rows)")
            raw = lines[pos].split()
            # a row of a zero-column block is written as a blank line
            if not raw and n > 0:
                raise FileFormatError(
                    f"block {block} row {r} is blank (ragged block)")
            if len(raw) != n:
                raise FileFormatError(
                    f"block {block} row {r} has {len(raw)} fields, expected {n}")
            try:
                rows.append([float(v) for v in raw])
            except ValueError as exc:
                raise FileFormatError(
                    f"block {block} row {r}: non-numeric field") from exc
            pos += 1
        comp = np.array(rows, dtype=np.float64).reshape(m, n)
        if not np.isfinite(comp).all():
            raise FileFormatError(f"block {block}: nan or inf entry")
        comps.append(comp)
    if any(line.strip() for line in lines[pos:]):
        raise FileFormatError("trailing content after block 3")
    return RBMatrix(*comps)
