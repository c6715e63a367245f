"""Command-line interface tests via the in-process entry point."""

import csv

import numpy as np
import pytest

import golden
import rbtlse.bench as bench
import rbtlse.cli as cli
import rbtlse.perturbation as perturbation
import rbtlse.rb_core as rb
from instances import consistent, rand_rb
from rbtlse.bench import CSV_COLUMNS, ExperimentConfig
from rbtlse.cli import main
from rbtlse.errors import FactorizationFailed, FileFormatError, RbtlseError
from rbtlse.tlse import solve_real


def _write_consistent_system(tmp_path, seed=0, m=12, n=5, p=1, d=1,
                             kind="real"):
    """RBMAT files a.rbmat .. d.rbmat of a consistent system, and their
    paths by letter."""
    problem, _ = consistent(kind, np.random.default_rng(seed), m, n, p, d)
    paths = {}
    for name in "abcd":
        path = tmp_path / f"{name}.rbmat"
        rb.write_rbmat(path, getattr(problem, name.upper()))
        paths[name] = str(path)
    return paths


def test_run_accuracy_real(tmp_path, capsys):
    out = tmp_path / "acc.csv"
    code = main(["run", "accuracy-real", "--t-min", "1", "--t-max", "1",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "accuracy-real" in captured.out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 2
    assert float(rows[1][5]) < 1e-10


def test_run_compare_lse(tmp_path):
    out = tmp_path / "cmp.csv"
    code = main(["run", "compare-lse", "--m-list", "60", "--trials", "1",
                 "--case", "2", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2
    rec = dict(zip(CSV_COLUMNS, rows[1]))
    assert float(rec["eps_T"]) > 0 and float(rec["eps_L"]) > 0


def test_run_compare_lse_prints_paired_statistic(tmp_path, capsys,
                                                monkeypatch):
    """Under each m's means, compare-lse prints the paired mean of
    eps_T - eps_L, its standard error and the trials the total solver
    wins.  At acceptance criterion 5's complex case-1 configuration the
    m = 60 cell, where the baseline's mean is lower, is signal: 2 of 20
    wins.  The run is the criterion's, shared through golden.run."""
    monkeypatch.setattr(cli, "_run", golden.run)
    out = tmp_path / "cmp.csv"
    code = main(["run", "compare-lse", "--variant", "complex", "--case", "1",
                 "--seed", "2", "--trials", "20", "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    for m, paired in (
            (60, "+0.0365 +/- 0.0089 (standard error); "
                 "total solver wins 2/20"),
            (80, "-0.0206 +/- 0.0102 (standard error); "
                 "total solver wins 14/20")):
        at = next(i for i, line in enumerate(lines)
                  if line.startswith(f"  m={m}:"))
        assert lines[at + 1] == f"    paired eps_T-eps_L = {paired}"


def test_run_rejects_bad_t_range(capsys):
    code = main(["run", "accuracy-real", "--t-min", "3", "--t-max", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_run_rejects_zero_trials(tmp_path, capsys):
    out = tmp_path / "acc.csv"
    code = main(["run", "accuracy-real", "--trials", "0", "--out", str(out)])
    assert code == 2
    assert "trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment, seed", [
    ("accuracy-real", "-1"), ("bound-real", "-1001"), ("compare-lse", "-1")])
def test_run_rejects_negative_seed(tmp_path, capsys, experiment, seed):
    out = tmp_path / "r.csv"
    code = main(["run", experiment, "--seed", seed, "--trials", "1",
                 "--out", str(out)])
    assert code == 2
    assert f"seed must be >= 0, got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_repeated_m(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = main(["run", "compare-lse", "--m-list", "60,60", "--trials", "1",
                 "--out", str(out)])
    assert code == 2
    assert "m_values repeats a value: (60, 60)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["accuracy-real", "bound-complex"])
def test_run_rejects_more_than_1000_point_trials(tmp_path, capsys,
                                                  experiment):
    out = tmp_path / "r.csv"
    code = main(["run", experiment, "--t-min", "1", "--t-max", "2",
                 "--trials", "1001", "--out", str(out)])
    assert code == 2
    assert "at most 1000 trials, got 1001" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("m_list, message", [
    ("60,x", "bad --m-list"), (",", "--m-list is empty")])
def test_run_rejects_a_bad_m_list(tmp_path, capsys, m_list, message):
    out = tmp_path / "cmp.csv"
    code = main(["run", "compare-lse", "--m-list", m_list, "--trials", "1",
                 "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_bound_prints_one_line_per_magnitude(tmp_path, capsys):
    out = tmp_path / "bound.csv"
    code = main(["run", "bound-real", "--t-min", "1", "--t-max", "1",
                 "--trials", "1", "--out", str(out)])
    assert code == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("  t=1 trial=0: fwd=")]
    assert len(lines) == 3
    assert all(" bound=" in line for line in lines)


def test_run_prints_error_rows(tmp_path, capsys, monkeypatch):
    def fail(problem):
        raise FactorizationFailed("SVD did not converge")

    monkeypatch.setattr(bench, "solve_real", fail)
    out = tmp_path / "acc.csv"
    code = main(["run", "accuracy-real", "--t-min", "1", "--t-max", "1",
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "0 rows written, 1 error rows" in captured
    assert ("  t=1 trial=0: FactorizationFailed: SVD did not converge"
            in captured.splitlines())


def test_run_counts_ok_and_error_rows(tmp_path, capsys, monkeypatch):
    """The summary line counts the rows with metrics and the error rows
    of a run that has both: three accuracy trials, the second failing."""
    calls = []

    def fail_second(problem):
        calls.append(problem)
        if len(calls) == 2:
            raise FactorizationFailed("SVD did not converge")
        return solve_real(problem)

    monkeypatch.setattr(bench, "solve_real", fail_second)
    out = tmp_path / "acc.csv"
    code = main(["run", "accuracy-real", "--t-min", "1", "--t-max", "1",
                 "--trials", "3", "--out", str(out)])
    assert code == 0
    assert (f"accuracy-real: 2 rows written, 1 error rows -> {out}"
            in capsys.readouterr().out.splitlines())


def test_solve_real_stdout(tmp_path, capsys):
    paths = _write_consistent_system(tmp_path)
    code = main(["solve-real", "--a", paths["a"], "--b", paths["b"],
                 "--c", paths["c"], "--d", paths["d"]])
    assert code == 0
    out = capsys.readouterr().out
    assert "solver: real" in out
    assert "X (5 x 1):" in out
    assert "eps1" in out and "eps2" in out
    assert "kappa" in out and "U = kappa * eps_n" in out


def test_solve_real_report_file(tmp_path, capsys):
    paths = _write_consistent_system(tmp_path, seed=1)
    report = tmp_path / "report.txt"
    code = main(["solve-real", "--a", paths["a"], "--b", paths["b"],
                 "--c", paths["c"], "--d", paths["d"],
                 "--report", str(report)])
    assert code == 0
    text = report.read_text()
    assert "kappa" in text
    assert str(report) in capsys.readouterr().out


def test_solve_complex(tmp_path, capsys):
    paths = _write_consistent_system(tmp_path, seed=2, n=4, kind="complex")
    code = main(["solve-complex", "--a", paths["a"], "--b", paths["b"],
                 "--c", paths["c"], "--d", paths["d"]])
    assert code == 0
    assert "solver: complex" in capsys.readouterr().out


def test_solve_missing_file_is_io_error(tmp_path, capsys):
    paths = _write_consistent_system(tmp_path, seed=3)
    code = main(["solve-real", "--a", str(tmp_path / "absent.rbmat"),
                 "--b", paths["b"], "--c", paths["c"], "--d", paths["d"]])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_solve_malformed_file_is_io_error(tmp_path, capsys):
    paths = _write_consistent_system(tmp_path, seed=4)
    bad = tmp_path / "bad.rbmat"
    bad.write_text("RBMAT nonsense\n")
    code = main(["solve-real", "--a", bad.as_posix(), "--b", paths["b"],
                 "--c", paths["c"], "--d", paths["d"]])
    assert code == 1


def test_solve_dimension_mismatch_is_solver_error(tmp_path, capsys):
    paths = _write_consistent_system(tmp_path, seed=5)
    rng = np.random.default_rng(6)
    wrong = tmp_path / "wrong.rbmat"
    rb.write_rbmat(wrong, rand_rb(rng, 3, 2))   # incompatible with A
    code = main(["solve-real", "--a", paths["a"], "--b", wrong.as_posix(),
                 "--c", paths["c"], "--d", paths["d"]])
    assert code == 2
    assert "DimensionMismatch" in capsys.readouterr().err


def test_solve_assumption_violation_exit_code(tmp_path, capsys):
    # 4p = 8 > n = 5 rows of constraints: solver precondition fails
    rng = np.random.default_rng(7)
    paths = _write_consistent_system(tmp_path, seed=8, m=12, n=5, p=1, d=1)
    c2 = tmp_path / "c2.rbmat"
    rb.write_rbmat(c2, rand_rb(rng, 2, 5))
    d2 = tmp_path / "d2.rbmat"
    rb.write_rbmat(d2, rand_rb(rng, 2, 1))
    code = main(["solve-real", "--a", paths["a"], "--b", paths["b"],
                 "--c", c2.as_posix(), "--d", d2.as_posix()])
    assert code == 2
    assert "AssumptionViolated" in capsys.readouterr().err


def test_solve_non_finite_file_is_io_error(tmp_path, capsys):
    paths = _write_consistent_system(tmp_path, seed=9)
    lines = open(paths["a"]).read().splitlines()
    fields = lines[1].split()
    fields[0] = "nan"
    lines[1] = " ".join(fields)
    with open(paths["a"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    code = main(["solve-real", "--a", paths["a"], "--b", paths["b"],
                 "--c", paths["c"], "--d", paths["d"]])
    assert code == 1
    assert "nan or inf" in capsys.readouterr().err


def test_solve_non_ascii_file_is_io_error(tmp_path, capsys):
    paths = _write_consistent_system(tmp_path, seed=9)
    with open(paths["a"], "a", encoding="utf-8") as fh:
        fh.write("\u00b5\n")
    code = main(["solve-real", "--a", paths["a"], "--b", paths["b"],
                 "--c", paths["c"], "--d", paths["d"]])
    assert code == 1
    assert "non-ASCII" in capsys.readouterr().err


def test_solve_empty_rhs_is_solver_error(tmp_path, capsys):
    # zero-row files: A and C are 0 x 3, B and D are 0 x 0, so d = 0
    paths = {}
    for name, cols in (("a", 3), ("b", 0), ("c", 3), ("d", 0)):
        path = tmp_path / f"{name}.rbmat"
        rb.write_rbmat(path, rb.RBMatrix.zeros(0, cols))
        paths[name] = str(path)
    code = main(["solve-complex", "--a", paths["a"], "--b", paths["b"],
                 "--c", paths["c"], "--d", paths["d"]])
    assert code == 2
    assert "DimensionMismatch" in capsys.readouterr().err


@pytest.mark.parametrize("routine", ["svd", "qr"])
def test_solve_lapack_failure_is_solver_error(tmp_path, capsys, monkeypatch,
                                              routine):
    paths = _write_consistent_system(tmp_path, seed=10)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, routine, fail)
    code = main(["solve-real", "--a", paths["a"], "--b", paths["b"],
                 "--c", paths["c"], "--d", paths["d"]])
    assert code == 2
    assert "FactorizationFailed" in capsys.readouterr().err


@pytest.mark.parametrize("flavor", ["real", "complex"])
def test_solve_memory_error_in_kappa_is_solver_error(tmp_path, capsys,
                                                     monkeypatch, flavor):
    paths = _write_consistent_system(tmp_path, seed=10)

    def fail(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(perturbation, "_gram", fail)
    code = main([f"solve-{flavor}", "--a", paths["a"], "--b", paths["b"],
                 "--c", paths["c"], "--d", paths["d"]])
    assert code == 2
    assert "ConditioningUndefined" in capsys.readouterr().err


def _error_classes(base=RbtlseError):
    """Every subclass of ``base``, at any depth."""
    return [c for sub in base.__subclasses__()
            for c in (sub, *_error_classes(sub))]


@pytest.mark.parametrize("error", _error_classes(),
                         ids=lambda cls: cls.__name__)
def test_every_error_reaches_the_shell_with_its_exit_code(
        tmp_path, capsys, monkeypatch, error):
    """A file error exits 1 and every other RbtlseError exits 2, each
    with one ``error:`` line on stderr and no report written; a new
    error class fails here until main maps it."""
    paths = _write_consistent_system(tmp_path, seed=12)

    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, "solve_real", fail)
    report = tmp_path / "report.txt"
    code = main(["solve-real", "--a", paths["a"], "--b", paths["b"],
                 "--c", paths["c"], "--d", paths["d"],
                 "--report", str(report)])
    assert code == (1 if issubclass(error, FileFormatError) else 2)
    assert capsys.readouterr().err.startswith("error:")
    assert not report.exists()


def test_main_calls_share_no_state(tmp_path, capsys, monkeypatch):
    """main reuses one parser, yet no argument or default of one call
    reaches the next: a --report path, the solve flavor, the run options."""
    paths = _write_consistent_system(tmp_path, seed=11)
    files = ["--a", paths["a"], "--b", paths["b"], "--c", paths["c"],
             "--d", paths["d"]]
    report = tmp_path / "report.txt"
    assert main(["solve-real", "--report", str(report)] + files) == 0
    assert "solver: real" in report.read_text()
    assert capsys.readouterr().out == f"report written to {report}\n"
    report.unlink()

    assert main(["solve-complex"] + files) == 0
    assert capsys.readouterr().out.startswith("solver: complex\n")
    assert not report.exists()

    configs = []
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_run",
                        lambda config: configs.append(config) or ([], {}))
    assert main(["run", "accuracy-real"]) == 0
    assert configs == [ExperimentConfig(
        experiment="accuracy-real", t_values=(1, 2, 3),
        m_values=(60, 80, 100, 120), case=1, variant="real", seed=0,
        trials=None)]
    assert cli._build_parser() is cli._build_parser()
