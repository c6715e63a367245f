"""Golden values of the seeded runs and reports, and the rules that
compare a fresh run with them.

``golden.json`` beside this file holds every cell of the eight runs
acceptance criteria 1-5 make (``RUNS``) and every number of six
``solve-*`` reports on RBMAT inputs drawn by ``gen_instance``
(``REPORTS``).  ``test_golden.py`` reruns each (a run through
:func:`run`, which the acceptance criteria share) and compares at
tolerances set by the rounding floor, so a change that only reorders
the arithmetic passes and one that moves a result does not:

* ``bound``, ``delta_norm``, ``eps_T``, ``eps_L`` and the report's kappa,
  correction norm, eps_n and U = kappa * eps_n: 1e-10 relative;
* ``fwd_err``: |change| <= 1e-13 * kappa of its point, kappa = bound / eps
  with eps the magnitude of its row (the point's rows follow
  ``MAGNITUDES``);
* eps1 and eps2, rounding-level residuals: within a factor of 10;
* the report's X: one unit in the last printed place plus
  1e-13 * kappa * max|X|;
* every other cell and report line exactly.

Regenerate the file with BLAS pinned to one thread::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden.py --write

and list the cells that moved in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import pathlib
import re
import tempfile

from rbtlse import cli
from rbtlse import rb_core as rb
from rbtlse.bench import (CSV_COLUMNS, MAGNITUDES, ExperimentConfig, _run,
                          accuracy_sizes, gen_instance)

PATH = pathlib.Path(__file__).with_name("golden.json")

RUNS = {
    **{f"accuracy-{kind}": ExperimentConfig(
        experiment=f"accuracy-{kind}", t_values=(1, 3, 5), seed=0)
       for kind in ("real", "complex")},
    **{f"bound-{kind}": ExperimentConfig(
        experiment=f"bound-{kind}", t_values=(1, 3, 5), trials=7, seed=1)
       for kind in ("real", "complex")},
    **{f"compare-lse-{variant}-case{case}": ExperimentConfig(
        experiment="compare-lse", m_values=(60, 80, 100, 120), case=case,
        variant=variant, trials=20, seed=2)
       for variant in ("real", "complex") for case in (1, 2)},
}

# (algebra, t): the report of solve-<algebra> on gen_instance(algebra,
# accuracy_sizes(algebra, t), 100 + t)
REPORTS = [(kind, t) for kind in ("real", "complex") for t in (1, 2, 3)]

_RELATIVE = ("bound", "delta_norm", "eps_T", "eps_L")
_RESIDUALS = ("eps1", "eps2")
_REPORT_RESIDUALS = ("eps1 (corrected-system residual)",
                     "eps2 (constraint residual)")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


@functools.cache
def run(config: ExperimentConfig) -> tuple:
    """The rows ``run_experiment`` gives for ``config``, as a tuple, and
    the per-trial compare-lse errors behind them, from one call of
    ``bench._run`` per process: the acceptance criteria, the golden tests
    and the CLI's paired-statistic test share the seeded runs."""
    records, trials = _run(config)
    return tuple(records), trials


def run_cells(records) -> list[dict]:
    """The rows of a run as dicts of their CSV columns, None for an empty
    cell."""
    return [{col: getattr(rec, col) for col in CSV_COLUMNS}
            for rec in records]


def report_text(kind: str, t: int, workdir) -> str:
    """The text ``solve-<kind> --report`` writes for the REPORTS entry
    (kind, t), its RBMAT inputs written under ``workdir``."""
    workdir = pathlib.Path(workdir)
    problem = gen_instance(kind, accuracy_sizes(kind, t), 100 + t)
    argv = [f"solve-{kind}"]
    for key in "abcd":
        path = workdir / f"{key}.rbmat"
        rb.write_rbmat(path, getattr(problem, key.upper()))
        argv += [f"--{key}", str(path)]
    out = workdir / "report.txt"
    # main prints where it wrote the report
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv + ["--report", str(out)])
    if status != 0:
        raise RuntimeError(f"solve-{kind} failed on the t = {t} instance")
    return out.read_text()


def parse_report(text: str) -> dict:
    """A report as its labelled values, the printed entries of X in row
    order, and its remaining lines."""
    values, X, lines = {}, [], []
    in_x = False
    for line in text.splitlines():
        if line.startswith("X ("):
            in_x = True
            lines.append(line)
        elif " = " in line:
            in_x = False
            label, value = line.rsplit("=", 1)
            values[label.strip()] = float(value)
        elif in_x:
            X += _NUMBER.findall(line)
        else:
            lines.append(line)
    return {"lines": lines, "values": values, "X": X}


def _rel_ok(new, old, rel=1e-10) -> bool:
    return abs(new - old) <= rel * abs(old)


def _factor_ok(new, old, factor=10.0) -> bool:
    if old == 0.0 or new == 0.0:
        return new == old
    return 1.0 / factor <= new / old <= factor


def _last_place(token: str) -> float:
    """One unit in the last printed place of a number token."""
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def compare_run(new: list[dict], old: list[dict]) -> list[str]:
    """The cells of a rerun ``new`` that break the module's rules against
    the golden rows ``old``; empty when the run matches."""
    if len(new) != len(old):
        return [f"{len(new)} rows, golden has {len(old)}"]
    bad = []
    place = {}
    for i, (a, b) in enumerate(zip(new, old)):
        point = (b["t"], b["trial"])
        place[point] = place.get(point, -1) + 1
        for col in CSV_COLUMNS:
            x, y = a[col], b[col]
            if x is None or y is None or col not in (
                    *_RELATIVE, *_RESIDUALS, "fwd_err"):
                ok = x == y
            elif col in _RELATIVE:
                ok = _rel_ok(x, y)
            elif col in _RESIDUALS:
                ok = _factor_ok(x, y)
            else:
                kappa = b["bound"] / MAGNITUDES[place[point]]
                ok = abs(x - y) <= 1e-13 * kappa
            if not ok:
                bad.append(f"row {i} {col}: {x!r}, golden {y!r}")
    return bad


def compare_report(new: dict, old: dict) -> list[str]:
    """The numbers and lines of a report ``new`` (as parse_report gives
    it) that break the module's rules against the golden ``old``."""
    bad = [f"line {x!r}, golden {y!r}"
           for x, y in zip(new["lines"], old["lines"]) if x != y]
    if len(new["lines"]) != len(old["lines"]):
        bad.append(f"{len(new['lines'])} lines, golden has "
                   f"{len(old['lines'])}")
    if set(new["values"]) != set(old["values"]):
        return bad + [f"labels {sorted(new['values'])}, golden "
                      f"{sorted(old['values'])}"]
    for label, y in old["values"].items():
        x = new["values"][label]
        ok = (_factor_ok(x, y) if label in _REPORT_RESIDUALS
              else _rel_ok(x, y))
        if not ok:
            bad.append(f"{label}: {x!r}, golden {y!r}")
    if len(new["X"]) != len(old["X"]):
        return bad + [f"X has {len(new['X'])} entries, golden "
                      f"{len(old['X'])}"]
    kappa = old["values"]["kappa (relative condition)"]
    scale = max((abs(float(y)) for y in old["X"]), default=0.0)
    for i, (x, y) in enumerate(zip(new["X"], old["X"])):
        tol = max(_last_place(x), _last_place(y)) + 1e-13 * kappa * scale
        if not abs(float(x) - float(y)) <= tol:
            bad.append(f"X entry {i}: {x}, golden {y}")
    return bad


def load() -> dict:
    with open(PATH) as fh:
        return json.load(fh)


def _generate() -> dict:
    runs = {name: run_cells(run(config)[0])
            for name, config in RUNS.items()}
    with tempfile.TemporaryDirectory() as workdir:
        reports = {f"{kind}-{t}": parse_report(report_text(kind, t, workdir))
                   for kind, t in REPORTS}
    # compare_run reads a bound row's magnitude off its place in the
    # point, which an error row would shift
    failed = [row for rows in runs.values() for row in rows if row["error"]]
    if failed:
        raise RuntimeError(f"golden runs must not fail: {failed}")
    return {"runs": runs, "reports": reports}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"regenerate {PATH.name}")
    args = parser.parse_args(argv)
    if not args.write:
        parser.error("nothing to do without --write")
    with rb.atomic_open(PATH) as fh:
        json.dump(_generate(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
