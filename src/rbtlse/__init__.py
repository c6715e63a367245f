"""Equality-constrained total least squares over reduced biquaternions.

The package models matrices over the commutative four-dimensional algebra
generated by units i, j, k (i**2 = k**2 = -1, j**2 = +1, ij = ji = k),
maps them to real or complex block representations, and solves

    min ||[E, F]||_F  subject to  (A + E) X = B + F,  C X = D

for real and complex solutions X.  Alongside the solvers it computes the
relative normwise condition number of the solution map, plus a
constrained least squares baseline and a seeded experiment harness with a
small CLI.
"""

from .errors import (RbtlseError, DimensionMismatch, AssumptionViolated,
                     GapConditionFailed, BlockNotInvertible,
                     DegenerateSpectrum, ConditioningUndefined,
                     FactorizationFailed, NonFiniteInput, FileFormatError)
from .rb_core import (RBMatrix, mat_mul, frobenius_norm,
                      real_block_column, complex_block_column,
                      from_real_block_column, from_complex_block_column,
                      read_rbmat, write_rbmat)
from .tlse import (TlseProblem, TlseSolution, solve_real, solve_complex,
                   residuals_real, residuals_complex,
                   LseSolution, lse_solve_real, lse_solve_complex)
from .perturbation import (PerturbationInstance, ConditionReport,
                           epsilon_n, scaled_to,
                           condition_real, condition_complex)
from .bench import (EXPERIMENTS, ExperimentConfig, ExperimentRecord,
                    accuracy_sizes, gen_instance, gen_compare_instance,
                    random_perturbation, run_experiment, write_csv)

__version__ = "0.1.0"

__all__ = [
    "RbtlseError", "DimensionMismatch", "AssumptionViolated",
    "GapConditionFailed", "BlockNotInvertible", "DegenerateSpectrum",
    "ConditioningUndefined", "FactorizationFailed", "NonFiniteInput",
    "FileFormatError",
    "RBMatrix", "mat_mul",
    "frobenius_norm", "real_block_column", "complex_block_column",
    "from_real_block_column", "from_complex_block_column",
    "read_rbmat", "write_rbmat",
    "TlseProblem", "TlseSolution", "solve_real", "solve_complex",
    "residuals_real", "residuals_complex",
    "PerturbationInstance", "ConditionReport",
    "epsilon_n", "scaled_to", "condition_real", "condition_complex",
    "LseSolution", "lse_solve_real", "lse_solve_complex",
    "EXPERIMENTS", "ExperimentConfig", "ExperimentRecord", "accuracy_sizes",
    "gen_instance", "gen_compare_instance", "random_perturbation",
    "run_experiment", "write_csv",
    "__version__",
]
