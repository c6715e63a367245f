"""Experiment harness tests: generators, determinism, CSV contract."""

import csv

import numpy as np
import pytest

import rbtlse.bench as bench
import rbtlse.rb_core as rb
from rbtlse.bench import (CSV_COLUMNS, ExperimentConfig, ExperimentRecord,
                          accuracy_sizes, gen_instance, gen_compare_instance,
                          random_perturbation, run_experiment, write_csv)
from rbtlse.errors import FactorizationFailed
from rbtlse.perturbation import epsilon_n


# ---------------------------------------------------------------------------
# configuration and sizes
# ---------------------------------------------------------------------------

def test_accuracy_sizes():
    assert accuracy_sizes("real", 1) == (30, 10, 2, 2)
    assert accuracy_sizes("real", 4) == (120, 40, 8, 2)
    assert accuracy_sizes("complex", 1) == (50, 6, 2, 3)
    assert accuracy_sizes("complex", 3) == (150, 18, 6, 3)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="compare-lse", case=3)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="compare-lse", variant="quaternion")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="compare-lse", m_values=(40,))
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="accuracy-real", t_values=(0,))
    for bad in (dict(trials=0), dict(trials=-1), dict(t_values=()),
                dict(m_values=())):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="bound-real", **bad)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        ExperimentConfig(experiment="accuracy-real", seed=-1)
    # point seeds seed + 1000*t + trial would collide beyond 1000 trials
    for experiment in ("accuracy-real", "bound-complex"):
        with pytest.raises(ValueError, match="at most 1000 trials, got 1001"):
            ExperimentConfig(experiment=experiment, trials=1001)
        assert ExperimentConfig(experiment=experiment,
                                trials=1000).effective_trials == 1000
    assert ExperimentConfig(experiment="compare-lse",
                            trials=1001).effective_trials == 1001
    assert ExperimentConfig(experiment="compare-lse").effective_trials == 20
    assert ExperimentConfig(experiment="bound-real").effective_trials == 1
    assert ExperimentConfig(experiment="bound-real",
                            trials=7).effective_trials == 7


def test_config_seed_defaults_to_zero():
    """A config built without a seed runs the rows of seed=0."""
    default = ExperimentConfig(experiment="accuracy-real", t_values=(1,))
    zero = ExperimentConfig(experiment="accuracy-real", t_values=(1,), seed=0)
    assert run_experiment(default) == run_experiment(zero)


def test_compare_config_refuses_m_at_n():
    """compare-lse's unknowns number n = 50, so m = 50 is refused when the
    config is built, not mid-run, and m = 51 builds."""
    with pytest.raises(ValueError, match="needs m > 50, got \\[50\\]"):
        ExperimentConfig("compare-lse", m_values=(50,))
    assert ExperimentConfig("compare-lse", m_values=(51,)).m_values == (51,)


@pytest.mark.parametrize("repeat",[dict(t_values=(2, 2)),
                                    dict(t_values=(1, 3, 1)),
                                    dict(m_values=(60, 60))])
def test_config_refuses_repeated_scales(repeat):
    """A repeated t or m would run the same seeded points twice and write
    each of their rows twice."""
    for experiment in ("accuracy-real", "compare-lse"):
        with pytest.raises(ValueError, match="repeats a value"):
            ExperimentConfig(experiment=experiment, **repeat)


@pytest.mark.parametrize("bad", [
    dict(t_values=(1.5,)), dict(t_values=(1, 2.0)), dict(m_values=(60.0,)),
    dict(trials=1.5), dict(trials=60.0), dict(seed=0.5)],
    ids=["t", "t-whole-float", "m", "trials", "trials-whole-float", "seed"])
def test_config_refuses_non_integers(bad):
    """A non-integer scale, trial count or seed is refused when the
    config is built, not later by the seeding or the trial loop; numpy
    integers are integers."""
    for experiment in ("accuracy-real", "compare-lse"):
        with pytest.raises(ValueError, match="integer"):
            ExperimentConfig(experiment=experiment, **bad)
    config = ExperimentConfig(experiment="accuracy-real",
                              t_values=(np.int64(1),), seed=np.int64(3),
                              trials=np.int64(2))
    assert config.effective_trials == 2


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gen_instance_types_and_ranges():
    real = gen_instance("real", (10, 4, 1, 2), 0)
    assert real.sizes == (10, 4, 1, 2)
    comp = gen_instance("complex", (10, 4, 1, 2), 0)
    for block in (comp.A, comp.B, comp.C, comp.D):
        for c in (block.p0, block.p1, block.p2, block.p3):
            assert np.all(c >= 0) and np.all(c < 1)


def test_gen_instance_deterministic():
    a = gen_instance("real", (10, 4, 1, 2), 99)
    b = gen_instance("real", (10, 4, 1, 2), 99)
    assert a.A == b.A and a.D == b.D
    c = gen_instance("real", (10, 4, 1, 2), 100)
    assert a.A != c.A


@pytest.mark.parametrize("draw, method", [(bench._rb_randn, "standard_normal"),
                                          (bench._rb_rand, "random")])
@pytest.mark.parametrize("m, n", [(3, 4), (1, 1), (0, 4), (3, 0)])
def test_rb_draws_are_four_component_draws(draw, method, m, n):
    """An RB matrix draw takes the values and leaves the stream where four
    (m, n) draws of components 0..3 from a same-seeded generator would,
    bit for bit, empty shapes included."""
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    P = draw(rng, m, n)
    expected = np.stack([getattr(ref, method)((m, n)) for _ in range(4)])
    assert P.components.dtype == np.float64 and P.shape == (m, n)
    assert np.array_equal(P.components.view(np.uint64),
                          expected.view(np.uint64))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(getattr(rng, method)(9).view(np.uint64),
                          getattr(ref, method)(9).view(np.uint64))


def test_rng_statistics():
    rng = np.random.default_rng(0)
    normals = rng.standard_normal(100000)
    assert abs(normals.mean()) < 0.02
    assert abs(normals.std() - 1.0) < 0.02
    uniforms = rng.random(100000)
    assert np.all(uniforms >= 0) and np.all(uniforms < 1)
    assert abs(uniforms.mean() - 0.5) < 0.01


def test_random_perturbation_hits_target():
    prob = gen_instance("real", (10, 4, 1, 2), 1)
    inst = random_perturbation(prob, np.random.default_rng(2), 1e-8)
    assert epsilon_n(inst) == pytest.approx(1e-8, rel=1e-13)


def test_compare_instance_real_consistent_base():
    base, pert, x_star = gen_compare_instance(1, 60, 5, "real")
    assert x_star.shape == (50, 35)
    # constraints are never perturbed
    assert pert.C == base.C and pert.D == base.D


@pytest.mark.parametrize("case", [1, 2])
@pytest.mark.parametrize("variant", ["real", "complex"])
def test_compare_instance_rhs_are_rb_products(variant, case):
    """B = A X* and D = C X* are, byte for byte and signed zeros
    included, the RB products with X* embedded as X* + 0*j: the generator
    multiplies X* on the complex block column alone."""
    base, _, x_star = gen_compare_instance(case, 60, 5, variant)
    x_rb = rb.RBMatrix.from_complex(x_star)
    for M, rhs in ((base.A, base.B), (base.C, base.D)):
        assert (rhs.components.tobytes()
                == rb.mat_mul(M, x_rb).components.tobytes())


def test_compare_instance_case1_perturbs_both_sides():
    base, pert, _ = gen_compare_instance(1, 60, 5, "real")
    dA = pert.A - base.A
    dB = pert.B - base.B
    assert rb.frobenius_norm(dA) > 0
    assert rb.frobenius_norm(dB) > 0
    # one shared product replicated into all four components; recovered by
    # subtraction, so compare to rounding.  Factors are zero mean: both
    # signs must appear and the empirical mean stays near zero.
    for blk in (dA, dB):
        assert np.allclose(blk.p0, blk.p1, atol=1e-12)
        assert np.allclose(blk.p0, blk.p2, atol=1e-12)
        assert np.allclose(blk.p0, blk.p3, atol=1e-12)
        assert np.any(blk.p0 > 0) and np.any(blk.p0 < 0)
        assert abs(blk.p0.mean()) < 0.02


def test_compare_instance_case2_perturbs_rhs_only():
    base, pert, _ = gen_compare_instance(2, 60, 5, "real")
    assert pert.A == base.A      # coefficients untouched
    dB = pert.B - base.B
    assert rb.frobenius_norm(dB) > 0
    assert np.allclose(dB.p0, dB.p3, atol=1e-12)
    assert np.any(dB.p0 > 0) and np.any(dB.p0 < 0)
    assert abs(dB.p0.mean()) < 0.02


def test_compare_instance_complex():
    base, pert, x_star = gen_compare_instance(1, 60, 7, "complex")
    assert np.iscomplexobj(x_star)
    # the complex shared product lands in both pair slots
    dA = pert.A - base.A
    r1, r2 = rb.complex_block_column(dA).reshape(2, *dA.shape)
    assert np.allclose(r1, r2, atol=1e-12)
    base2, pert2, _ = gen_compare_instance(2, 60, 7, "complex")
    assert pert2.A == base2.A
    assert rb.frobenius_norm(pert2.B - base2.B) > 0


def test_compare_instance_rejects_small_m():
    with pytest.raises(ValueError):
        gen_compare_instance(1, 50, 0, "real")


@pytest.mark.parametrize("case", [0, 3])
def test_compare_instance_rejects_unknown_case(case):
    with pytest.raises(ValueError, match=f"unknown case {case}"):
        gen_compare_instance(case, 60, 0, "real")


@pytest.mark.parametrize("generate", [
    lambda kind: accuracy_sizes(kind, 1),
    lambda kind: gen_instance(kind, (10, 4, 1, 2), 0),
    lambda kind: gen_compare_instance(1, 60, 0, kind),
], ids=["accuracy_sizes", "gen_instance", "gen_compare_instance"])
def test_generators_reject_unknown_kind(generate):
    with pytest.raises(ValueError, match="unknown (kind|variant) 'quaternion'"):
        generate("quaternion")


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------

def test_accuracy_run_records():
    config = ExperimentConfig(experiment="accuracy-real", t_values=(1,),
                              seed=3)
    records = run_experiment(config)
    assert len(records) == 1
    rec = records[0]
    assert rec.experiment == "accuracy-real"
    assert rec.t == 1 and rec.m == 30
    assert rec.eps1 is not None and rec.eps1 < 1e-10
    assert rec.eps2 is not None and rec.eps2 < 1e-10
    assert rec.error == ""
    assert rec.eps_T is None and rec.fwd_err is None


def test_bound_run_records():
    config = ExperimentConfig(experiment="bound-real", t_values=(1,), seed=4)
    records = run_experiment(config)
    assert len(records) == 3   # one per magnitude
    for rec in records:
        assert rec.fwd_err is not None and rec.bound is not None
        assert rec.delta_norm is not None and rec.delta_norm > 0
        assert rec.fwd_err <= rec.bound * 1.05


def test_compare_run_records():
    config = ExperimentConfig(experiment="compare-lse", m_values=(60,),
                              trials=2, case=1, seed=5)
    records = run_experiment(config)
    assert len(records) == 1
    rec = records[0]
    assert rec.m == 60 and rec.trial is None and rec.t is None
    assert rec.eps_T is not None and rec.eps_L is not None
    assert rec.eps_T > 0 and rec.eps_L > 0


def test_lapack_failure_becomes_error_rows(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    # one error row per trial: 2 t values x 2 trials, 1 m value x 2 trials
    for experiment, rows in (("accuracy-real", 4), ("bound-real", 4),
                             ("compare-lse", 2)):
        config = ExperimentConfig(experiment=experiment, t_values=(1, 2),
                                  m_values=(60,), trials=2, seed=6)
        records = run_experiment(config)
        assert len(records) == rows
        assert all(rec.error.startswith("FactorizationFailed: ")
                   for rec in records)


@pytest.mark.parametrize("failing_call", [1, 2])
def test_bound_solve_failure_rows(monkeypatch, failing_call):
    """A failed base solve gives the point one error row; a failed
    perturbed solve gives its magnitude an error row, and the other
    magnitudes still give metric rows."""
    calls = []
    solve_real = bench.solve_real

    def solve_or_fail(problem):
        calls.append(problem)
        if len(calls) == failing_call:
            raise FactorizationFailed("SVD did not converge")
        return solve_real(problem)

    monkeypatch.setattr(bench, "solve_real", solve_or_fail)
    records = run_experiment(
        ExperimentConfig(experiment="bound-real", t_values=(1,), seed=4))
    assert [rec.error for rec in records] == (
        ["FactorizationFailed: SVD did not converge"] if failing_call == 1
        else ["FactorizationFailed: SVD did not converge", "", ""])
    assert all((rec.experiment, rec.t, rec.m, rec.seed, rec.trial)
               == ("bound-real", 1, 30, 1004, 0) for rec in records)
    assert records[0].fwd_err is None and records[0].bound is None
    for rec in records[1:]:
        assert rec.fwd_err <= rec.bound * 1.05


def test_records_sorted_by_scale():
    config = ExperimentConfig(experiment="accuracy-real", t_values=(2, 1),
                              seed=6)
    records = run_experiment(config)
    assert [r.t for r in records] == [1, 2]


def test_run_determinism_and_csv_bytes(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cfg1 = ExperimentConfig(experiment="bound-real", t_values=(1,), seed=7)
    cfg2 = ExperimentConfig(experiment="bound-real", t_values=(1,), seed=7)
    rec1 = run_experiment(cfg1)
    rec2 = run_experiment(cfg2)
    write_csv(str(out1), rec1)
    write_csv(str(out2), rec2)
    assert rec1 == rec2
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# CSV contract
# ---------------------------------------------------------------------------

def test_csv_header_is_the_documented_column_set(tmp_path):
    """The header is fixed: the 13 columns the module docstring lists,
    in that order, whatever the record type's fields become."""
    columns = ("experiment", "t", "m", "seed", "trial", "eps1", "eps2",
               "delta_norm", "fwd_err", "bound", "eps_T", "eps_L", "error")
    assert ",".join(columns) in bench.__doc__
    assert CSV_COLUMNS == columns
    path = tmp_path / "h.csv"
    write_csv(str(path), [])
    with open(path, newline="") as fh:
        assert list(csv.reader(fh)) == [list(columns)]


def test_csv_header_and_cells(tmp_path):
    path = tmp_path / "r.csv"
    records = [
        ExperimentRecord("accuracy-real", 1, 30, 0, 0,
                         eps1=1.25e-13, eps2=3.5e-15),
        ExperimentRecord("accuracy-real", 2, 60, 1, 0,
                         error="GapConditionFailed: tight spectrum"),
    ]
    write_csv(str(path), records)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    ok = rows[1]
    assert ok[0] == "accuracy-real"
    assert ok[1] == "1" and ok[2] == "30"
    assert float(ok[5]) == 1.25e-13
    assert ok[7] == "" and ok[12] == ""     # unused columns empty
    bad = rows[2]
    assert bad[5] == "" and bad[6] == ""    # no metrics on error rows
    assert bad[12].startswith("GapConditionFailed")


def test_csv_cells_of_numpy_floats(tmp_path):
    """A record holding numpy floats writes the bytes of the same record
    holding Python floats: numbers, never np.float64(...)."""
    values = dict(eps1=1.5, eps2=0.1, delta_norm=3.25e-300, fwd_err=0.25)
    paths = tmp_path / "py.csv", tmp_path / "np.csv"
    write_csv(str(paths[0]), [ExperimentRecord("bound-real", 1, 30, 0, 0,
                                               **values)])
    as_numpy = {key: np.float64(value) for key, value in values.items()}
    as_numpy["fwd_err"] = np.float32(values["fwd_err"])
    write_csv(str(paths[1]), [ExperimentRecord("bound-real", 1, 30, 0, 0,
                                               **as_numpy)])
    assert paths[1].read_bytes() == paths[0].read_bytes()


def test_csv_error_rows_are_exclusive():
    """Each row has either all its experiment metrics or an error."""
    config = ExperimentConfig(experiment="accuracy-real", t_values=(1,),
                              seed=8)
    for rec in run_experiment(config):
        has_metrics = rec.eps1 is not None and rec.eps2 is not None
        assert has_metrics != bool(rec.error)


def test_csv_write_is_atomic_on_failure(tmp_path):
    missing_dir = tmp_path / "nope" / "r.csv"
    with pytest.raises(OSError):
        write_csv(str(missing_dir), [])
    # no temp litter next to the intended target
    assert list(tmp_path.iterdir()) == []


def test_float_cells_round_trip(tmp_path):
    path = tmp_path / "f.csv"
    value = 4.623096523181193e-12
    write_csv(str(path), [ExperimentRecord("bound-real", 1, 30, 0, 0,
                                           delta_norm=1.0, fwd_err=value,
                                           bound=2 * value)])
    with open(path, newline="") as fh:
        row = list(csv.reader(fh))[1]
    assert float(row[8]) == value           # repr() round-trips float64
