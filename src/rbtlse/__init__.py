"""Equality-constrained total least squares over reduced biquaternions.

The package models matrices over the commutative four-dimensional algebra
generated by units i, j, k (i**2 = k**2 = -1, j**2 = +1, ij = ji = k),
maps them to real or complex block representations, and solves

    min ||[E, F]||_F  subject to  (A + E) X = B + F,  C X = D

for real and complex solutions X.  Alongside the solvers it computes the
relative normwise condition number of the solution map, plus a
constrained least squares baseline and a seeded experiment harness with a
small CLI.

Each module's ``__all__`` is its public list, and the one declaration of
it: the package re-exports the lists of ``errors``, ``rb_core``, ``tlse``,
``perturbation`` and ``bench``, and its ``__all__`` is theirs joined in
that order, plus ``__version__``.
"""

from .errors import *  # noqa: F401,F403
from .rb_core import *  # noqa: F401,F403
from .tlse import *  # noqa: F401,F403
from .perturbation import *  # noqa: F401,F403
from .bench import *  # noqa: F401,F403
from . import bench, errors, perturbation, rb_core, tlse

__version__ = "0.1.0"

__all__ = [name for module in (errors, rb_core, tlse, perturbation, bench)
           for name in module.__all__] + ["__version__"]
