"""The test suite's random inputs and its table of the two algebras.

Every test that draws reduced biquaternion data draws it here or through
``rbtlse.bench.gen_instance``, which takes the same stream: an m x n RB
matrix is its four components drawn one after the other.  A consistent
system draws A, then C, then its exact solution X, and takes B = A X and
D = C X.  The random orthogonal or unitary factors and the diagonal RB
units j and k that the invariance tests multiply the data by are built
here too.  ``ALGEBRAS`` names, per algebra, the rows of the stacks per
matrix row, the four entry points the tests call and the block-column
map and its inverse.  Unlike ``tests/oracles.py``, this module builds
on ``rbtlse``.

Import with ``from instances import ...`` (pytest puts ``tests/`` on the
path).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

import rbtlse.rb_core as rb
from rbtlse.perturbation import condition_complex, condition_real
from rbtlse.tlse import (TlseProblem, lse_solve_complex, lse_solve_real,
                         solve_complex, solve_real)


class Algebra(NamedTuple):
    q: int                   # stack rows per matrix row: 4 real, 2 complex
    solve: Callable
    condition: Callable
    lse: Callable
    column: Callable         # leading block column of the representation
    from_column: Callable


ALGEBRAS = {
    "real": Algebra(4, solve_real, condition_real, lse_solve_real,
                    rb.real_block_column, rb.from_real_block_column),
    "complex": Algebra(2, solve_complex, condition_complex,
                       lse_solve_complex, rb.complex_block_column,
                       rb.from_complex_block_column),
}


def rand_rb(rng, m, n, uniform=False) -> rb.RBMatrix:
    """An m x n RB matrix of components 0..3 drawn in turn from ``rng``,
    standard normal, or uniform on [0, 1) if ``uniform``."""
    draw = rng.random if uniform else rng.standard_normal
    return rb.RBMatrix(*(draw((m, n)) for _ in range(4)))


def solved_by(A, C, X) -> TlseProblem:
    """The problem (A, A X, C, C X), which the real or complex matrix X
    solves exactly."""
    Xrb = rb.RBMatrix.from_complex(X)
    return TlseProblem(A=A, B=A @ Xrb, C=C, D=C @ Xrb)


def consistent(kind, rng, m, n, p, d, uniform=False):
    """A consistent problem of sizes (m, n, p, d) and its exact solution X:
    A and C drawn by :func:`rand_rb`, then X standard normal, real for
    ``kind`` "real" and normal + 1j * normal for "complex"."""
    A, C = rand_rb(rng, m, n, uniform), rand_rb(rng, p, n, uniform)
    X = rng.standard_normal((n, d))
    if kind == "complex":
        X = X + 1j * rng.standard_normal((n, d))
    return solved_by(A, C, X), X


def orthogonal(kind, rng, size):
    """A random size x size real orthogonal matrix (complex unitary for
    the complex kind), the Q of a standard normal draw from ``rng``, and
    its RB embedding."""
    M = rng.standard_normal((size, size))
    if kind == "real":
        T = np.linalg.qr(M)[0]
        return T, rb.RBMatrix.from_real(T)
    T = np.linalg.qr(M + 1j * rng.standard_normal((size, size)))[0]
    return T, rb.RBMatrix.from_complex(T)


def rb_unit(name, size):
    """The size x size diagonal RB matrix of the unit j or k."""
    eye, zero = np.eye(size), np.zeros((size, size))
    return (rb.RBMatrix(zero, zero, eye, zero) if name == "j"
            else rb.RBMatrix(zero, zero, zero, eye))
