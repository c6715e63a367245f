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
nonempty error column.  Files are written to a temp path and renamed, so
a crashed run never leaves a half-written report.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import rb_core as rb
from .errors import RbtlseError
from .lse_baseline import lse_solve_real, lse_solve_complex
# condition_real and residuals_real serve both algebras
from .perturbation import (PerturbationInstance, condition_real,
                           epsilon_n, scaled_to)
from .tlse import TlseProblem, residuals_real, solve_complex, solve_real

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentRecord",
    "CSV_COLUMNS",
    "MAGNITUDES",
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
    """Fully determines one reproducible run."""

    experiment: str
    t_values: tuple[int, ...] = (1, 2, 3)
    m_values: tuple[int, ...] = (60, 80, 100, 120)
    case: int = 1
    variant: str = "real"
    seed: int = 0
    trials: Optional[int] = None
    out: Optional[str] = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.case not in (1, 2):
            raise ValueError("case must be 1 or 2")
        if self.variant not in ("real", "complex"):
            raise ValueError("variant must be 'real' or 'complex'")
        if not (self.t_values and self.m_values):
            raise ValueError("t_values and m_values must not be empty")
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
    parts of the complex pair).
    """
    m, n, p, d = sizes
    if kind == "real":
        draw = _rb_randn
    elif kind == "complex":
        draw = _rb_rand
    else:
        raise ValueError(f"unknown kind {kind!r}")
    rng = np.random.default_rng(seed)
    return TlseProblem(A=draw(rng, m, n), B=draw(rng, m, d),
                       C=draw(rng, p, n), D=draw(rng, p, d))


def random_perturbation(problem, rng, eps_target: float) -> PerturbationInstance:
    """Random direction with all components standard normal, rescaled so
    the relative perturbation size equals ``eps_target``."""
    m, n, p, d = problem.sizes
    inst = PerturbationInstance(
        problem=problem,
        dA=_rb_randn(rng, m, n), dB=_rb_randn(rng, m, d),
        dC=_rb_randn(rng, p, n), dD=_rb_randn(rng, p, d))
    return scaled_to(inst, eps_target)


def gen_compare_instance(case: int, m: int, seed, variant: str = "real"):
    """Consistent system, its perturbed version, and the exact solution.

    Real variant: data and solution from standard normal draws; the
    right-hand sides are exact products, so the base system is consistent.
    Case 1 injects 0.01-scaled products of zero-mean normal factors into
    both the coefficient block (columns 1..50 of a shared m-by-85 product,
    replicated into all four components) and the right-hand side (columns
    51..85); Case 2 leaves the coefficients alone and perturbs only the
    right-hand side.  Zero-mean factors matter: a positive-mean draw makes
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
            return rb.from_complex_pair(h, h)
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
    if case == 1:
        G = draw((n + d, n + d))
        H = 0.01 * draw((m, n + d)) @ G
        dA, dB = replicate(H[:, :n]), replicate(H[:, n:])
    else:
        G = draw((d, d))
        H = 0.01 * draw((m, d)) @ G
        dA, dB = rb.RBMatrix.zeros(m, n), replicate(H)
    base = TlseProblem(A=A, B=B, C=C, D=D)
    pert = TlseProblem(A=A + dA, B=B + dB, C=C, D=D)
    return base, pert, X


# ---------------------------------------------------------------------------
# Experiment loops.
# ---------------------------------------------------------------------------

def _point_seed(seed: int, t: int, trial: int) -> int:
    return seed + _POINT_STRIDE * t + trial


def _error_row(experiment: str, t: Optional[int], m: int, seed: int,
               trial: int, exc: RbtlseError) -> ExperimentRecord:
    """The row of a point whose solve or conditioning raised ``exc``."""
    return ExperimentRecord(experiment, t, m, seed, trial,
                            error=f"{type(exc).__name__}: {exc}")


def _run_accuracy(config: ExperimentConfig) -> list[ExperimentRecord]:
    kind = "real" if config.experiment.endswith("real") else "complex"
    solve = solve_real if kind == "real" else solve_complex
    records = []
    for t in config.t_values:
        sizes = accuracy_sizes(kind, t)
        for trial in range(config.effective_trials):
            point = _point_seed(config.seed, t, trial)
            problem = gen_instance(kind, sizes, point)
            try:
                solution = solve(problem)
                e1, e2 = residuals_real(problem, solution)
                records.append(ExperimentRecord(
                    config.experiment, t, sizes[0], point, trial,
                    eps1=e1, eps2=e2))
            except RbtlseError as exc:
                records.append(_error_row(
                    config.experiment, t, sizes[0], point, trial, exc))
    return records


def _run_bound(config: ExperimentConfig) -> list[ExperimentRecord]:
    kind = "real" if config.experiment.endswith("real") else "complex"
    solve = solve_real if kind == "real" else solve_complex
    records = []
    for t in config.t_values:
        sizes = accuracy_sizes(kind, t)
        for trial in range(config.effective_trials):
            point = _point_seed(config.seed, t, trial)
            ss = np.random.SeedSequence(point)
            streams = ss.spawn(1 + len(MAGNITUDES))
            try:
                problem = gen_instance(kind, sizes, streams[0])
                solution = solve(problem)
                report = condition_real(problem, solution)
            except RbtlseError as exc:
                records.append(_error_row(
                    config.experiment, t, sizes[0], point, trial, exc))
                continue
            x_norm = np.linalg.norm(solution.X)
            jk_norm = problem.data_norm
            for idx, mag in enumerate(MAGNITUDES):
                rng = np.random.default_rng(streams[1 + idx])
                inst = random_perturbation(problem, rng, mag)
                try:
                    pert_solution = solve(inst.perturbed())
                except RbtlseError as exc:
                    records.append(_error_row(
                        config.experiment, t, sizes[0], point, trial, exc))
                    continue
                fwd = float(np.linalg.norm(pert_solution.X - solution.X)
                            / x_norm)
                eps = epsilon_n(inst)
                records.append(ExperimentRecord(
                    config.experiment, t, sizes[0], point, trial,
                    delta_norm=eps * jk_norm, fwd_err=fwd,
                    bound=report.kappa * eps))
    return records


def _run_compare(config: ExperimentConfig) -> list[ExperimentRecord]:
    solve, lse_solve = ((solve_real, lse_solve_real)
                        if config.variant == "real"
                        else (solve_complex, lse_solve_complex))
    records = []
    for m in config.m_values:
        errs_t, errs_l = [], []
        for trial in range(config.effective_trials):
            inst_seed = config.seed + trial
            base, pert, x_star = gen_compare_instance(
                config.case, m, inst_seed, config.variant)
            try:
                xt = solve(pert).X
                xl = lse_solve(pert.A, pert.B, pert.C, pert.D).X
            except RbtlseError as exc:
                records.append(_error_row(
                    config.experiment, None, m, inst_seed, trial, exc))
                continue
            errs_t.append(float(np.linalg.norm(xt - x_star)))
            errs_l.append(float(np.linalg.norm(xl - x_star)))
        if errs_t:
            records.append(ExperimentRecord(
                config.experiment, None, m, config.seed, None,
                eps_T=float(np.mean(errs_t)), eps_L=float(np.mean(errs_l))))
    return records


def run_experiment(config: ExperimentConfig) -> list[ExperimentRecord]:
    """Run the configured experiment; writes the CSV when config.out is
    set.  Solver failures become error rows, I/O failures propagate."""
    if config.experiment.startswith("accuracy"):
        records = _run_accuracy(config)
    elif config.experiment.startswith("bound"):
        records = _run_bound(config)
    else:
        records = _run_compare(config)
    records.sort(key=lambda r: (r.t if r.t is not None else 0, r.m,
                                r.trial if r.trial is not None else -1))
    if config.out is not None:
        write_csv(config.out, records)
    return records


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, records: list[ExperimentRecord]) -> None:
    """Atomic CSV write (see :func:`rbtlse.rb_core.atomic_open`)."""
    with rb.atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(
                [_cell(getattr(rec, col)) for col in CSV_COLUMNS])
