"""Seeded experiment harness: instance generation, metric loops, CSV output.

Five experiments are provided:

* accuracy-real      residual metrics of the real solver at sizes
                     m=30t, n=10t, p=2t, d=2 with standard normal data;
* accuracy-complex   complex solver at m=50t, n=6t, p=2t, d=3 with
                     uniform [0,1) components;
* bound-real         forward error against the first-order bound at each
                     perturbation magnitude in MAGNITUDES, per t;
* bound-complex      complex twin of bound-real;
* compare-lse        total least squares vs constrained least squares on
                     consistent systems with injected inconsistency, two
                     perturbation cases, averaged over trials per m.

Randomness comes from numpy's PCG64 Generator: seedable, splittable via
SeedSequence, uniform [0,1) from random(), normals from the ziggurat
standard_normal().  Bit-compatibility with other environments' generators
is a non-goal; only the distributions matter.  A config's seed fully
determines every draw: accuracy and bound runs seed each (t, trial) point
as seed + 1000*t + trial, so they take at most 1000 trials (more would
give two points one seed), and split per-magnitude delta streams off a
SeedSequence; compare runs seed each trial as seed + trial (0-based).

CSV rows carry the fixed column set
experiment,t,m,seed,trial,eps1,eps2,delta_norm,fwd_err,bound,eps_T,eps_L,error
with unused columns empty; a row has either all its metrics finite or a
nonempty error column.  :func:`run_experiment` returns the rows and
writes nothing; :func:`write_csv` writes them to a temp path and renames
it, so a crashed run never leaves a half-written report.
"""

from __future__ import annotations

import csv
import functools
import numbers
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from . import rb_core as rb
from .errors import RbtlseError
# condition_real and residuals_real serve both algebras
from .perturbation import (PerturbationInstance, condition_real,
                           epsilon_n, scaled_to)
from .tlse import (TlseProblem, lse_solve_complex, lse_solve_real,
                   residuals_real, solve_complex, solve_real)

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentRecord",
    "accuracy_sizes",
    "gen_instance",
    "gen_compare_instance",
    "random_perturbation",
    "run_experiment",
    "write_csv",
]

EXPERIMENTS = ("accuracy-real", "accuracy-complex",
               "bound-real", "bound-complex", "compare-lse")

# compare-lse geometry fixed by the comparison protocol
_CMP_N, _CMP_D, _CMP_P = 50, 35, 10

# relative perturbation sizes eps_n of the bound experiments
MAGNITUDES = (1e-11, 1e-8, 1e-5)

# accuracy and bound points are seeded seed + _POINT_STRIDE*t + trial
_POINT_STRIDE = 1000


def accuracy_sizes(kind: str, t: int) -> tuple[int, int, int, int]:
    """(m, n, p, d) for scale index t."""
    if kind == "real":
        return (30 * t, 10 * t, 2 * t, 2)
    if kind == "complex":
        return (50 * t, 6 * t, 2 * t, 3)
    raise ValueError(f"unknown kind {kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully determines one reproducible run and its rows; where they are
    written is the caller's choice (see :func:`write_csv`)."""

    experiment: str
    t_values: tuple[int, ...] = (1, 2, 3)
    m_values: tuple[int, ...] = (60, 80, 100, 120)
    case: int = 1
    variant: str = "real"
    seed: int = 0
    trials: Optional[int] = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.case not in (1, 2):
            raise ValueError("case must be 1 or 2")
        if self.variant not in ("real", "complex"):
            raise ValueError("variant must be 'real' or 'complex'")
        if not (self.t_values and self.m_values):
            raise ValueError("t_values and m_values must not be empty")
        for name in ("t_values", "m_values"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} repeats a value: {values}")
        bad = [v for v in (*self.t_values, *self.m_values, self.seed,
                           0 if self.trials is None else self.trials)
               if not isinstance(v, numbers.Integral)]
        if bad:
            raise ValueError("t_values, m_values, seed and trials must be "
                             f"integers, got {bad}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.trials is not None and self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.experiment == "compare-lse":
            bad = [m for m in self.m_values if m <= _CMP_N]
            if bad:
                raise ValueError(
                    f"compare-lse needs m > {_CMP_N}, got {bad}")
        else:
            if any(t < 1 for t in self.t_values):
                raise ValueError("t values must be >= 1")
            if self.trials is not None and self.trials > _POINT_STRIDE:
                raise ValueError(
                    f"{self.experiment} takes at most {_POINT_STRIDE} "
                    f"trials, got {self.trials}")

    @property
    def effective_trials(self) -> int:
        if self.trials is not None:
            return self.trials
        return 20 if self.experiment == "compare-lse" else 1


@dataclass(frozen=True)
class ExperimentRecord:
    """One CSV row; metric fields are filled per experiment type."""

    experiment: str
    t: Optional[int]
    m: int
    seed: int
    trial: Optional[int]
    eps1: Optional[float] = None
    eps2: Optional[float] = None
    delta_norm: Optional[float] = None
    fwd_err: Optional[float] = None
    bound: Optional[float] = None
    eps_T: Optional[float] = None
    eps_L: Optional[float] = None
    error: str = ""


CSV_COLUMNS = tuple(f.name for f in fields(ExperimentRecord))


# One (4, m, n) draw: the Generator fills in C order, so it takes the
# values and leaves the stream where four (m, n) draws of components 0..3
# would, and the drawn array is the matrix's storage, with no copy.
def _rb_randn(rng, m, n) -> rb.RBMatrix:
    return rb.RBMatrix._wrap(rng.standard_normal((4, m, n)))


def _rb_rand(rng, m, n) -> rb.RBMatrix:
    return rb.RBMatrix._wrap(rng.random((4, m, n)))


def gen_instance(kind: str, sizes: Sequence[int], seed) -> TlseProblem:
    """Random problem instance; components drawn block by block (A, B, C,
    D), components 0..3 within each block, each block as one (4, rows,
    cols) draw that is the same stream as four (rows, cols) draws.

    Real instances use standard normal components, complex instances
    uniform [0,1) for every component (i.e. uniform real and imaginary
    parts of the complex pair).  ``seed`` is anything
    ``np.random.default_rng`` takes; a Generator is used as is, so the
    draws continue its stream.
    """
    m, n, p, d = sizes
    draw = {"real": _rb_randn, "complex": _rb_rand}.get(kind)
    if draw is None:
        raise ValueError(f"unknown kind {kind!r}")
    rng = np.random.default_rng(seed)
    return TlseProblem(A=draw(rng, m, n), B=draw(rng, m, d),
                       C=draw(rng, p, n), D=draw(rng, p, d))


def random_perturbation(problem, rng, eps_target: float) -> PerturbationInstance:
    """Random direction with all components standard normal (a real
    instance of the problem's sizes drawn from the Generator ``rng``),
    rescaled so the relative perturbation size equals ``eps_target``."""
    delta = gen_instance("real", problem.sizes, rng)
    return scaled_to(PerturbationInstance(problem, delta), eps_target)


def gen_compare_instance(case: int, m: int, seed, variant: str = "real"):
    """Consistent system, its perturbed version, and the exact solution.

    Real variant: data and solution from standard normal draws; the
    right-hand sides are exact products, so the base system is consistent.
    Case 1 injects 0.01-scaled products of zero-mean normal factors into
    both the coefficient block (columns 1..50 of a shared m-by-85 product,
    replicated into all four components) and the right-hand side (columns
    51..85); Case 2 leaves the coefficients alone and perturbs only the
    right-hand side, with an m-by-35 product.  Zero-mean factors matter: a positive-mean draw makes
    the injected error nearly rank one with norm above the data's top
    singular values, which poisons the fitted subspace of the total
    solver and inverts the comparison this generator exists to support.
    Complex variant: same plan in complex-pair form, with complex normal
    solution and factors; the shared complex product is replicated into
    both pair slots.  A and C take the same draws in both variants.
    """
    if m <= _CMP_N:
        raise ValueError(f"need m > {_CMP_N}")
    if case not in (1, 2):
        raise ValueError(f"unknown case {case!r}")
    rng = np.random.default_rng(seed)
    if variant == "real":
        draw = rng.standard_normal

        def replicate(h):
            return rb.RBMatrix(h, h, h, h)
    elif variant == "complex":
        def draw(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        def replicate(h):
            return rb.from_complex_block_column(np.concatenate([h, h]))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    n, d, p = _CMP_N, _CMP_D, _CMP_P
    # four standard normal components, as a real draw or a complex pair
    A = _rb_randn(rng, m, n)
    C = _rb_randn(rng, p, n)
    X = draw((n, d))
    Xrb = rb.RBMatrix.from_complex(X)
    B = rb.mat_mul(A, Xrb)
    D = rb.mat_mul(C, Xrb)
    w = n + d if case == 1 else d
    G = draw((w, w))
    H = 0.01 * draw((m, w)) @ G
    dB = replicate(H[:, -d:])
    dA = replicate(H[:, :n]) if case == 1 else rb.RBMatrix.zeros(m, n)
    base = TlseProblem(A=A, B=B, C=C, D=D)
    pert = TlseProblem(A=A + dA, B=B + dB, C=C, D=D)
    return base, pert, X


# ---------------------------------------------------------------------------
# Experiment loops.
# ---------------------------------------------------------------------------

def _attempt(rows: list[ExperimentRecord], key: tuple, compute: Callable):
    """``compute()``, or None once the error row of the point ``key``
    (experiment, t, m, seed, trial) is appended to ``rows`` because it
    raised an RbtlseError: the harness's one path from a solver or
    conditioning failure to a row."""
    try:
        return compute()
    except RbtlseError as exc:
        rows.append(ExperimentRecord(
            *key, error=f"{type(exc).__name__}: {exc}"))
        return None


def _accuracy_point(rows, key, draw, solve) -> None:
    """Residuals of the solution of the instance drawn from the point
    seed, key[3]; the draw is outside the guard."""
    problem = draw(key[3])
    eps = _attempt(rows, key, lambda: residuals_real(problem, solve(problem)))
    if eps is not None:
        rows.append(ExperimentRecord(*key, eps1=eps[0], eps2=eps[1]))


def _bound_point(rows, key, draw, solve) -> None:
    """Forward error against kappa * eps_n at each of MAGNITUDES.  The
    point seed splits into the instance's stream and one delta stream per
    magnitude; a failed base solve or kappa gives the point one error
    row, a failed perturbed solve one row for its magnitude."""
    streams = np.random.SeedSequence(key[3]).spawn(1 + len(MAGNITUDES))

    def base():
        problem = draw(streams[0])
        solution = solve(problem)
        return problem, solution, condition_real(problem, solution).kappa

    got = _attempt(rows, key, base)
    if got is None:
        return
    problem, solution, kappa = got
    x_norm = np.linalg.norm(solution.X)
    for stream, mag in zip(streams[1:], MAGNITUDES):
        inst = random_perturbation(problem, np.random.default_rng(stream), mag)
        perturbed = _attempt(rows, key, lambda: solve(inst.perturbed()))
        if perturbed is not None:
            eps = epsilon_n(inst)
            rows.append(ExperimentRecord(
                *key, delta_norm=eps * problem.data_norm,
                fwd_err=float(np.linalg.norm(perturbed.X - solution.X)
                              / x_norm),
                bound=kappa * eps))


_POINTS = {"accuracy": _accuracy_point, "bound": _bound_point}


def _run_points(config: ExperimentConfig) -> list[ExperimentRecord]:
    """Each (t, trial) point of an accuracy or bound run, seeded
    seed + _POINT_STRIDE*t + trial, through the experiment's point
    function, which takes the rows, the point's key (experiment, t, m,
    seed, trial), a draw of the instance from a seed, and the solver."""
    stem, kind = config.experiment.split("-")
    solve = solve_real if kind == "real" else solve_complex
    rows = []
    for t in config.t_values:
        sizes = accuracy_sizes(kind, t)
        draw = functools.partial(gen_instance, kind, sizes)
        for trial in range(config.effective_trials):
            point = config.seed + _POINT_STRIDE * t + trial
            _POINTS[stem](rows, (config.experiment, t, sizes[0], point, trial),
                          draw, solve)
    return rows


def _run_compare(config: ExperimentConfig) -> tuple[list, dict]:
    """The rows of a compare-lse run and, per m, the lists of per-trial
    errors of the total and the constrained least squares solutions that
    its means average."""
    solve, lse_solve = ((solve_real, lse_solve_real)
                        if config.variant == "real"
                        else (solve_complex, lse_solve_complex))
    rows, trials = [], {}
    for m in config.m_values:
        # two lists, not one N x 2 array: np.mean over an axis sums in
        # another order and moves the last bits of the means
        errs_t, errs_l = [], []
        for trial in range(config.effective_trials):
            inst_seed = config.seed + trial
            base, pert, x_star = gen_compare_instance(
                config.case, m, inst_seed, config.variant)
            xs = _attempt(
                rows, (config.experiment, None, m, inst_seed, trial),
                lambda: (solve(pert).X,
                         lse_solve(pert.A, pert.B, pert.C, pert.D).X))
            if xs is not None:
                errs_t.append(float(np.linalg.norm(xs[0] - x_star)))
                errs_l.append(float(np.linalg.norm(xs[1] - x_star)))
        if errs_t:
            rows.append(ExperimentRecord(
                config.experiment, None, m, config.seed, None,
                eps_T=float(np.mean(errs_t)), eps_L=float(np.mean(errs_l))))
            trials[m] = (errs_t, errs_l)
    return rows, trials


def _run(config: ExperimentConfig) -> tuple[list, dict]:
    """:func:`run_experiment`'s rows and, for compare-lse, the per-trial
    errors behind each m's means (empty for the other experiments)."""
    if config.experiment == "compare-lse":
        records, trials = _run_compare(config)
    else:
        records, trials = _run_points(config), {}
    records.sort(key=lambda r: (r.t if r.t is not None else 0, r.m,
                                r.trial if r.trial is not None else -1))
    return records, trials


def run_experiment(config: ExperimentConfig) -> list[ExperimentRecord]:
    """The configured experiment's rows, sorted by t, m and trial; solver
    failures become error rows.  It writes nothing: :func:`write_csv`
    writes the rows as a CSV report."""
    return _run(config)[0]


def _cell(value) -> str:
    if value is None:
        return ""
    # repr of a numpy float is np.float64(...) under numpy 2
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, records: list[ExperimentRecord]) -> None:
    """Atomic CSV write (see :func:`rbtlse.rb_core.atomic_open`)."""
    with rb.atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(
                [_cell(getattr(rec, col)) for col in CSV_COLUMNS])
