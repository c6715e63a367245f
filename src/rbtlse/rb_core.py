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
(b1*c1 + b2*c2) + (b1*c2 + b2*c1)*j.  The product of two RB matrices,
:func:`mat_mul` (``@``), is computed in that pair form, which is both the
cheapest route and the one that keeps complex conjugation semantics
obvious.  A plain real or complex matrix X is the pair (X, 0), so A X is
the one complex product ``complex_block_column(A) @ X``, read back by
:func:`from_complex_block_column`: the half of mat_mul that is not zero.
A single reduced biquaternion is a 1-by-1 :class:`RBMatrix`, multiplied
with ``@``; ``*`` scales a matrix by a real or complex factor only.

An m-by-n matrix over this algebra is stored component-major, as one
read-only real (4, m, n) array (components of 1, i, j, k).  Its two linear
representations, of which the solvers use only the leading block columns,
are read straight off that array:

* a real 4m-by-4n block matrix whose first block column stacks the four
  components, i.e. the storage seen as one 4m-by-n array, the remaining
  three block columns being signed block permutations of the first;
* a complex 2m-by-2n block matrix [[R1, R2], [R2, R1]] built from the
  complex pair, with leading block column [R1; R2]: components 0 and 2
  as real parts, 1 and 3 as imaginary parts, the one complex codec.

The Frobenius norm of the matrix equals the norm of either leading block
column, half the norm of the full real representation, and 1/sqrt(2) times
the norm of the full complex representation.
"""

from __future__ import annotations

import contextlib
import numbers
import os
import secrets

import numpy as np

from .errors import DimensionMismatch, FileFormatError, NonFiniteInput

__all__ = [
    "RBMatrix",
    "mat_mul",
    "real_block_column",
    "complex_block_column",
    "from_real_block_column",
    "from_complex_block_column",
    "frobenius_norm",
    "read_rbmat",
    "write_rbmat",
]


class RBMatrix:
    """Matrix over the reduced biquaternions, stored as one read-only
    float64 array ``components`` of shape (4, m, n), the components of 1,
    i, j, k in that order; ``p0``..``p3`` are read-only views of its four
    slices.  The constructor copies its four real m-by-n arguments into a
    new array, so values can be shared freely.
    """

    __slots__ = ("components",)

    def __init__(self, p0, p1, p2, p3):
        parts = [np.asarray(c) for c in (p0, p1, p2, p3)]
        if any(np.iscomplexobj(c) for c in parts):
            raise TypeError("components must be real; build complex data "
                            "with RBMatrix.from_complex")
        if parts[0].ndim != 2 or any(c.shape != parts[0].shape
                                     for c in parts):
            raise DimensionMismatch("components must be 2-D and of one "
                                    f"shape, got {[c.shape for c in parts]}")
        self.components = np.array(parts, dtype=np.float64)
        self.components.setflags(write=False)

    @classmethod
    def _wrap(cls, components: np.ndarray) -> "RBMatrix":
        """Matrix owning ``components``, a new float64 (4, m, n) array no
        caller holds; marked read-only, neither checked nor copied."""
        self = object.__new__(cls)
        components.setflags(write=False)
        self.components = components
        return self

    p0 = property(lambda self: self.components[0])
    p1 = property(lambda self: self.components[1])
    p2 = property(lambda self: self.components[2])
    p3 = property(lambda self: self.components[3])

    @property
    def shape(self) -> tuple[int, int]:
        return self.components.shape[1:]

    @property
    def rows(self) -> int:
        return self.components.shape[1]

    @property
    def cols(self) -> int:
        return self.components.shape[2]

    @classmethod
    def zeros(cls, m: int, n: int) -> "RBMatrix":
        return cls._wrap(np.zeros((4, m, n)))

    @classmethod
    def from_real(cls, x) -> "RBMatrix":
        """Embed a plain real matrix (components 1..3 zero)."""
        return cls(x, *[np.zeros(np.shape(x))] * 3)

    @classmethod
    def from_complex(cls, z) -> "RBMatrix":
        """Embed a plain complex matrix Z as Z + 0*j, i.e. [Z; 0]."""
        z = np.asarray(z, dtype=np.complex128)
        if z.ndim != 2:
            raise DimensionMismatch(f"need a 2-D matrix, got shape {z.shape}")
        return from_complex_block_column(np.concatenate([z, np.zeros_like(z)]))

    def _same_shape(self, other: "RBMatrix") -> np.ndarray:
        """``other``'s components, once its shape is checked to match."""
        if self.shape != other.shape:
            raise DimensionMismatch(
                f"shapes disagree: {self.shape} vs {other.shape}")
        return other.components

    def __add__(self, other: "RBMatrix") -> "RBMatrix":
        return RBMatrix._wrap(self.components + self._same_shape(other))

    def __sub__(self, other: "RBMatrix") -> "RBMatrix":
        return RBMatrix._wrap(self.components - self._same_shape(other))

    def __neg__(self) -> "RBMatrix":
        return RBMatrix._wrap(-self.components)

    def __mul__(self, zeta):
        """Scale by a real or complex factor (entrywise); a reduced
        biquaternion factor is a 1x1 RBMatrix, applied with ``@``.

        A real factor scales the component array itself, so every entry
        is the float64 product, a signed zero included; a complex factor
        scales the complex block column [R1; R2].  Any other operand, a
        string included, is not a factor."""
        if isinstance(zeta, numbers.Real):
            return RBMatrix._wrap(self.components * float(zeta))
        if not isinstance(zeta, numbers.Complex):
            return NotImplemented
        return from_complex_block_column(
            complex_block_column(self) * complex(zeta))

    __rmul__ = __mul__

    def __matmul__(self, other: "RBMatrix") -> "RBMatrix":
        return mat_mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RBMatrix):
            return NotImplemented
        return np.array_equal(self.components, other.components)

    def __hash__(self):
        return hash((self.shape, float(frobenius_norm(self))))

    def __repr__(self):
        m, n = self.shape
        return f"RBMatrix({m}x{n}, |.|_F={frobenius_norm(self):.6g})"


def _is_finite(P: RBMatrix) -> bool:
    """Whether every component entry of ``P`` is finite."""
    return bool(np.isfinite(P.components).all())


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

def _row_aligned(blocks) -> None:
    for B in blocks[1:]:
        if B.rows != blocks[0].rows:
            raise DimensionMismatch(
                f"row counts disagree: {blocks[0].shape} vs {B.shape}")


def real_block_column(P: RBMatrix, *more: RBMatrix) -> np.ndarray:
    """Leading block column of the real representation, [P0;P1;P2;P3].

    With further row-aligned blocks T, ... the result is the leading block
    columns of P, T, ... side by side, [P0 T0; P1 T1; P2 T2; P3 T3], each
    component written once into one new array (no intermediate stacks).
    """
    blocks = (P, *more)
    _row_aligned(blocks)
    out = np.concatenate([B.components for B in blocks], axis=2)
    return out.reshape(4 * out.shape[1], out.shape[2])


def complex_block_column(P: RBMatrix, *more: RBMatrix) -> np.ndarray:
    """Leading block column of the complex representation, [R1;R2].

    Further row-aligned blocks go side by side as in
    :func:`real_block_column`.  Components 0, 2 are written into the real
    and 1, 3 into the imaginary part of one complex array, so every
    component, a signed zero included, is kept as given.
    """
    blocks = (P, *more)
    _row_aligned(blocks)
    m, width = P.rows, sum(B.cols for B in blocks)
    out = np.empty((2, m, width), dtype=np.complex128)
    for part, first in ((out.real, 0), (out.imag, 1)):
        np.concatenate([B.components[first::2] for B in blocks], axis=2,
                       out=part)
    return out.reshape(2 * m, width)


def from_real_block_column(Y: np.ndarray) -> RBMatrix:
    """Inverse of :func:`real_block_column` (component order 0,1,2,3)."""
    Y = np.asarray(Y)
    if Y.ndim != 2 or Y.shape[0] % 4 != 0:
        raise DimensionMismatch(
            f"need 2-D with a row count divisible by 4, got shape {Y.shape}")
    return RBMatrix(*Y.reshape(4, Y.shape[0] // 4, Y.shape[1]))


def from_complex_block_column(Y: np.ndarray) -> RBMatrix:
    """Inverse of :func:`complex_block_column`, a signed zero included."""
    Y = np.asarray(Y, dtype=np.complex128)
    if Y.ndim != 2 or Y.shape[0] % 2 != 0:
        raise DimensionMismatch(
            f"need 2-D with a row count divisible by 2, got shape {Y.shape}")
    pair = Y.reshape(2, Y.shape[0] // 2, Y.shape[1])
    # (R1.real, R1.imag, R2.real, R2.imag) are components 0..3
    return RBMatrix._wrap(np.stack([pair.real, pair.imag], axis=1)
                          .reshape(4, *pair.shape[1:]))


def mat_mul(P: RBMatrix, T: RBMatrix) -> RBMatrix:
    """Product of reduced biquaternion matrices.

    Computed on the complex block columns [R1; R2] and [S1; S2] of
    P = R1 + R2*j and T = S1 + S2*j: P*T = (R1@S1 + R2@S2) + (R1@S2 +
    R2@S1)*j, the first block column of the product of the representations.
    """
    if P.cols != T.rows:
        raise DimensionMismatch(
            f"inner dimensions disagree: {P.shape} @ {T.shape}")
    r1, r2 = complex_block_column(P).reshape(2, *P.shape)
    s1, s2 = complex_block_column(T).reshape(2, *T.shape)
    return from_complex_block_column(
        np.concatenate([r1 @ s1 + r2 @ s2, r1 @ s2 + r2 @ s1]))


def _norm(*arrays: np.ndarray) -> float:
    """Frobenius norm of real arrays taken together.

    A plain sum of squares that overflows or falls below 2**-900 is redone
    with every entry scaled by the power of two of the largest magnitude
    (exact; the LAPACK nrm2 idea), so the norm is right at any scale and
    bit-identical to the plain sum wherever that is safe.
    """
    with np.errstate(over="ignore", under="ignore"):
        total = 0.0
        for a in arrays:
            total += np.sum(a ** 2)
        if np.isfinite(total) and total >= 2.0 ** -900:
            return float(np.sqrt(total))
        peak = max((np.max(np.abs(a)) for a in arrays if a.size), default=0.0)
        if peak == 0.0:
            return 0.0
        e = np.frexp(peak)[1]
        total = sum(np.sum(np.ldexp(a, -e) ** 2) for a in arrays)
        return float(np.ldexp(np.sqrt(total), e))


def frobenius_norm(P: RBMatrix) -> float:
    """Frobenius norm: root of the summed squared entry norms, scale-safe.

    Equals the plain Frobenius norm of either leading block column.
    """
    return _norm(*P.components)


# ---------------------------------------------------------------------------
# RBMAT v1 text files.
#
# Line 1 is "RBMAT <m> <n>", then components 0..3 as four blocks of m lines
# (blank when n = 0), one blank line between blocks.  A row is its n floats
# as Python's repr, one space apart.  The reader splits, checks and parses
# each row as it reads it, into one float buffer per block, and names the
# first bad row; nothing is sized by the header before its rows are seen.
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
    if not _is_finite(P):
        raise NonFiniteInput("RBMAT entries must be finite")
    m, n = P.shape
    rows = [" ".join(map(repr, row))
            for row in P.components.reshape(4 * m, n).tolist()]
    body = "\n\n".join("\n".join(rows[b * m:(b + 1) * m]) for b in range(4))
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
    comps = []
    for block in range(4):
        start = 1 + block * (m + 1)
        if block > 0 and (len(lines) < start or lines[start - 1].strip()):
            raise FileFormatError(
                f"expected blank separator before block {block}")
        rows = lines[start:start + m]
        values = []
        for r, line in enumerate(rows):
            fields = line.split()
            if len(fields) != n:
                raise FileFormatError(
                    f"block {block} row {r} is blank (ragged block)"
                    if not fields else
                    f"block {block} row {r} has {len(fields)} fields, "
                    f"expected {n}")
            try:
                values += map(float, fields)
            except ValueError:
                raise FileFormatError(
                    f"block {block} row {r}: non-numeric field") from None
        if len(rows) < m:
            raise FileFormatError(f"block {block} truncated at row "
                                  f"{len(rows)} (expected {m} rows)")
        comps.append(np.array(values))
        if not np.isfinite(comps[-1]).all():
            raise FileFormatError(f"block {block}: nan or inf entry")
    if any(line.strip() for line in lines[4 * (m + 1):]):
        raise FileFormatError("trailing content after block 3")
    return RBMatrix._wrap(np.concatenate(comps).reshape(4, m, n))
