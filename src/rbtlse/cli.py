"""Command-line front end.

Subcommands:

* ``rbtlse run EXPERIMENT`` drives the seeded experiment harness and
  writes a CSV report;
* ``rbtlse solve-real`` / ``rbtlse solve-complex`` solve a single system
  read from RBMAT v1 files and print a labeled plain-text report.

Exit codes: 0 on success, 2 when a solver assumption is violated (rank,
gap, invertibility, sizes, non-finite data), a LAPACK factorization
fails or the condition number is undefined, 1 on I/O or file-format
failures (an RBMAT file holding nan or inf is a format failure).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

import numpy as np

from . import rb_core as rb
from .bench import EXPERIMENTS, ExperimentConfig, _run, write_csv
from .errors import FileFormatError, RbtlseError
# condition_real and residuals_real serve both algebras
from .perturbation import condition_real
from .tlse import TlseProblem, residuals_real, solve_complex, solve_real

__all__ = ["main"]


def _parse_m_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"bad --m-list {text!r}: expected comma-separated "
                         "integers") from None
    if not values:
        raise ValueError("--m-list is empty")
    return values


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="rbtlse",
        description="Equality-constrained total least squares over reduced "
                    "biquaternion matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a seeded experiment, write CSV")
    run.add_argument("experiment", choices=EXPERIMENTS)
    run.add_argument("--t-min", type=int, default=1)
    run.add_argument("--t-max", type=int, default=3)
    run.add_argument("--m-list", type=str, default="60,80,100,120",
                     help="comma-separated m values (compare-lse only)")
    run.add_argument("--case", type=int, choices=(1, 2), default=1,
                     help="perturbation case for compare-lse")
    run.add_argument("--variant", choices=("real", "complex"),
                     default="real", help="algebra variant for compare-lse")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trials", type=int, default=None,
                     help="trials per point (default 20 for compare-lse, "
                          "1 otherwise; at most 1000 for accuracy and "
                          "bound runs)")
    run.add_argument("--out", type=str, default=None,
                     help="CSV path (default <experiment>.csv)")
    run.set_defaults(func=_cmd_run)

    for name, helptext in (("solve-real", "solve one real system"),
                           ("solve-complex", "solve one complex system")):
        solve = sub.add_parser(name, help=helptext)
        for key in "abcd":
            solve.add_argument(f"--{key}", required=True,
                               help=f"RBMAT file for {key.upper()}")
        solve.add_argument("--report", type=str, default=None,
                           help="write the report here instead of stdout")
        solve.set_defaults(func=_cmd_solve,
                           flavor=name.removeprefix("solve-"))
    return parser


def _cmd_run(args) -> int:
    if args.t_min < 1 or args.t_max < args.t_min:
        raise ValueError("need 1 <= t-min <= t-max")
    config = ExperimentConfig(
        experiment=args.experiment,
        t_values=tuple(range(args.t_min, args.t_max + 1)),
        m_values=_parse_m_list(args.m_list), case=args.case,
        variant=args.variant, seed=args.seed, trials=args.trials)
    out = args.out if args.out is not None else f"{args.experiment}.csv"
    records, trials = _run(config)
    write_csv(out, records)
    ok = sum(1 for r in records if not r.error)
    failed = len(records) - ok
    print(f"{config.experiment}: {ok} rows written"
          + (f", {failed} error rows" if failed else "")
          + f" -> {out}")
    for rec in records:
        label = f"t={rec.t}" if rec.t is not None else f"m={rec.m}"
        if rec.error:
            print(f"  {label} trial={rec.trial}: {rec.error}")
        elif rec.eps1 is not None:
            print(f"  {label}: eps1={rec.eps1:.4e} eps2={rec.eps2:.4e}")
        elif rec.fwd_err is not None:
            print(f"  {label} trial={rec.trial}: fwd={rec.fwd_err:.4e} "
                  f"bound={rec.bound:.4e}")
        elif rec.eps_T is not None:
            print(f"  {label}: eps_T={rec.eps_T:.4e} eps_L={rec.eps_L:.4e}")
            print(_paired_line(*trials[rec.m]))
    return 0


def _paired_line(errs_t: list[float], errs_l: list[float]) -> str:
    """The paired mean of eps_T - eps_L over one m's trials, its standard
    error (nan for one trial) and the share of trials the total solver
    wins, so a difference of means reads as signal or noise."""
    diff = np.subtract(errs_t, errs_l)
    se = diff.std(ddof=1) / np.sqrt(diff.size) if diff.size > 1 else np.nan
    return (f"    paired eps_T-eps_L = {diff.mean():+.4f} +/- {se:.4f} "
            f"(standard error); total solver wins {np.sum(diff < 0)}/"
            f"{diff.size}")


def _cmd_solve(args) -> int:
    problem = TlseProblem(*(rb.read_rbmat(getattr(args, key))
                            for key in "abcd"))
    solve = solve_real if args.flavor == "real" else solve_complex
    solution = solve(problem)
    e1, e2 = residuals_real(problem, solution)
    report = condition_real(problem, solution)
    m, n, p, d = problem.sizes
    # relative size of the fitted correction (C and D are not corrected),
    # reused as the perturbation level in the printed first-order bound
    eps_fit = solution.residual_perturbation_norm / problem.data_norm
    lines = [
        f"solver: {args.flavor}",
        f"sizes: m={m} n={n} p={p} d={d}",
        f"X ({n} x {d}):",
        np.array2string(solution.X, precision=8, suppress_small=False,
                        max_line_width=120, separator=", "),
        f"eps1 (corrected-system residual) = {e1:.6e}",
        f"eps2 (constraint residual)       = {e2:.6e}",
        "correction norm ||[E,F]||_F       = "
        f"{solution.residual_perturbation_norm:.6e}",
        f"kappa (relative condition)        = {report.kappa:.6e}",
        f"eps_n of fitted correction        = {eps_fit:.6e}",
        f"U = kappa * eps_n                 = {report.kappa * eps_fit:.6e}"]
    text = "\n".join(lines) + "\n"
    if args.report is not None:
        with rb.atomic_open(args.report) as fh:
            fh.write(text)
        print(f"report written to {args.report}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RbtlseError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
