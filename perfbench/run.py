"""rbtlse benchmark: seeded closed-loop workloads, one client, one process.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

NAME is one of solve, condition, compare, files, or ``all`` (each workload
in its own child process, one after the other, with a summary table).
``--seed`` (default 0) seeds every generated input.

With ``--trace 0`` the ops are timed with tracing off and the last line of
standard output is a JSON object holding the end-to-end metrics.  With
``--trace 1`` the run spends half its seconds untraced, then replays the
same ops traced, and reports the per-layer metrics of the traced ops
(per-op means) plus the tracing overhead.  Spans are kept in memory and
written to ``perfbench/out/`` when the run ends.

BLAS is pinned to one thread before numpy loads; on a small shared machine
unpinned OpenBLAS threads make small-matrix timings swing by orders of
magnitude.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

import tracer  # noqa: E402  (stdlib only; this directory is sys.path[0])

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
NAMES = ("solve", "condition", "compare", "files")
SETUP_REPS = 3
# p90 needs at least 10 samples beyond it
MIN_OPS = 100

# BENCHMARK.json metric names -> units
END_TO_END = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
              "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
PER_LAYER = (
    "perturbation.condition.self_ms", "perturbation.condition.calls",
    "perturbation.condition.failed",
    "dense_kernels.svd.self_ms", "dense_kernels.svd.calls",
    "dense_kernels.svd.entries",
    "dense_kernels.spectral_norm.entries", "dense_kernels.kron.entries",
    "dense_kernels.spectral_norm_power.self_ms",
    "dense_kernels.spectral_norm_power.calls",
    "dense_kernels.spectral_norm_power.matvecs",
    "dense_kernels.qr_full.self_ms", "dense_kernels.qr_full.calls",
    "tlse.solve.self_ms", "tlse.solve.calls", "tlse.solve.failed",
    "rb_core.block_column.self_ms", "rb_core.block_column.calls",
    "rb_core.mat_mul.self_ms", "rb_core.mat_mul.calls",
    "lse_baseline.solve.self_ms", "lse_baseline.solve.calls",
    "lse_baseline.solve.failed",
    "rb_core.read_rbmat.self_ms", "rb_core.read_rbmat.calls",
    "rb_core.read_rbmat.bytes",
    "rb_core.write_rbmat.self_ms", "rb_core.write_rbmat.bytes",
    "cli.main.self_ms", "cli.main.calls",
    "bench.gen.self_ms", "trace.op_ms", "trace.overhead_frac")
UNITS = {"self_ms": "ms", "op_ms": "ms", "calls": "count", "failed": "count",
         "matvecs": "count", "entries": "entries_computed", "bytes": "bytes",
         "overhead_frac": "ratio"}


def _import_package():
    """Import rbtlse from this checkout's src/ and nowhere else."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    import rbtlse
    src = os.path.realpath(os.path.join(ROOT, "src", "rbtlse"))
    if os.path.dirname(os.path.realpath(rbtlse.__file__)) != src:
        raise ImportError(f"rbtlse imported from {rbtlse.__file__}, "
                          f"not from {src}")
    return numpy


def environment(numpy, seed: int) -> dict:
    blas = numpy.show_config("dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "seed": seed}


class Runner:
    """Closed loop over a workload's pattern; times ops, checks outputs
    outside the timed interval, never aborts on a failing op."""

    def __init__(self, workload, spans: tracer.Tracer):
        self.w = workload
        self.spans = spans
        self.next = [0] * len(workload.groups)
        self.op_id = 0
        self.failures: Counter = Counter()

    def attempt(self, group: int, traced: bool) -> tuple[float, bool]:
        pool = self.w.pools[group]
        item = pool[self.next[group] % len(pool)]
        self.next[group] += 1
        span = self.spans.begin_op(self.op_id) if traced else None
        error = None
        t0 = time.perf_counter()
        try:
            out = self.w.op(item)
        except Exception as exc:
            error = f"{type(exc).__name__} in op"
        elapsed = time.perf_counter() - t0
        if traced:
            self.spans.end_op(span, error is not None)
        self.op_id += 1
        if error is None:
            try:
                error = self.w.check(item, out)
            except Exception as exc:
                error = f"{type(exc).__name__} in check"
        if error is not None:
            self.failures[f"{self.w.groups[group]}: {error}"] += 1
        return elapsed, error is None

    def warm_up(self) -> None:
        for group in sorted(set(self.w.pattern)):
            self.attempt(group, traced=False)
        self.failures.clear()

    def measure(self, seconds: float, traced: bool = False,
                cycles: int | None = None, min_ops: int = 0):
        """Whole pattern cycles until ``seconds`` of wall time have passed
        and ``min_ops`` ops ran (for at most 3 * ``seconds``), or exactly
        ``cycles`` cycles.  Returns op latencies (s), ok count, the op ids
        and the number of cycles."""
        latencies, ok, first, done = [], 0, self.op_id, 0
        start = time.perf_counter()

        def more():
            if cycles is not None:
                return done < cycles
            elapsed = time.perf_counter() - start
            return not done or elapsed < seconds or (
                len(latencies) < min_ops and elapsed < 3 * seconds)

        while more():
            for group in self.w.pattern:
                elapsed, good = self.attempt(group, traced)
                latencies.append(elapsed)
                ok += good
            done += 1
        return latencies, ok, set(range(first, self.op_id)), done


def setup(make, seed, workdir, spans, traced):
    """Generate inputs and warm up, SETUP_REPS times; the last set-up is
    kept.  Returns (runner, set-up seconds of each repetition)."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        spans.active = traced
        try:
            workload = make(seed, workdir)
        finally:
            spans.active = False
        runner = Runner(workload, spans)
        runner.warm_up()
        times.append(time.perf_counter() - t0)
    return runner, times


def end_to_end(latencies, ok, setup_s):
    total = sum(latencies)
    ms = [x * 1e3 for x in latencies]
    return {"ops_per_s": len(latencies) / total,
            "op_ms_p50": statistics.median(ms),
            "op_ms_p90": statistics.quantiles(
                ms, n=10, method="inclusive")[8],
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": ok / len(latencies)}


def per_layer(spans, ops, gen_s, overhead):
    """Per-op means over the traced ops, named as in BENCHMARK.json."""
    totals = tracer.layer_totals(spans, ops)
    n = len(ops)
    values = {}
    for layer, t in totals.items():
        values[f"{layer}.self_ms"] = t["self_s"] * 1e3 / n
        for key in ("calls", "failed"):
            values[f"{layer}.{key}"] = t[key] / n
        for key in ("entries", "bytes", "matvecs"):
            values[f"{layer}.{key}"] = t["work"] / n
    values.update({"bench.gen.self_ms": gen_s * 1e3,
                   "trace.op_ms": totals["op"]["wall_s"] * 1e3 / n,
                   "trace.overhead_frac": overhead})
    return {name: {"value": values[name], "unit": UNITS[name.rsplit(".", 1)[1]]}
            for name in PER_LAYER}


def run_one(args) -> int:
    try:
        numpy = _import_package()
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the benchmark or rbtlse: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    env = environment(numpy, args.seed)
    print("env " + json.dumps(env), flush=True)

    spans = tracer.Tracer()
    spans.install()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    traced = bool(args.trace)
    runner, setup_times = setup(workloads.WORKLOADS[args.workload],
                                args.seed, workdir, spans, traced)
    try:
        if not traced:
            latencies, ok, _, _ = runner.measure(args.seconds,
                                                 min_ops=MIN_OPS)
            values = end_to_end(latencies, ok,
                                import_s + statistics.median(setup_times))
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in END_TO_END.items()}
            attempted = len(latencies)
        else:
            # the traced half replays the untraced half's exact op sequence,
            # so the throughput difference is the tracing overhead
            mark = list(runner.next)
            plain, ok_plain, _, cycles = runner.measure(args.seconds / 2)
            runner.next = mark
            spans_lat, ok_traced, ops, _ = runner.measure(
                0, traced=True, cycles=cycles)
            overhead = sum(plain) / sum(spans_lat) - 1.0
            gen = tracer.layer_totals(spans.spans, {tracer.SETUP_OP})
            metrics = per_layer(spans.spans, ops,
                                gen["bench.gen"]["self_s"] / SETUP_REPS,
                                overhead)
            latencies = plain + spans_lat
            ok = ok_plain + ok_traced
            attempted = len(latencies)
            os.makedirs(OUT, exist_ok=True)
            spans.dump(os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    finally:
        runner.w.cleanup()

    failed = attempted - ok
    summary = {"workload": args.workload, "trace": args.trace, "env": env,
               "samples": attempted, "failed_frac": failed / attempted,
               "failures": dict(runner.failures),
               "setup_reps_s": setup_times, "import_s": import_s,
               "wrapped_functions": spans.wrapped, "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"samples {attempted} failed_frac {failed / attempted:.6g} (ratio)"
          f" failures {json.dumps(dict(runner.failures))}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a child process (own peak RSS), then a table."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"[{name}] attempted={res['attempted']} failed={res['failed']} "
              f"failed_frac={res['failed'] / res['attempted']:.6g} ratio")
        for metric, v in res["metrics"].items():
            print(f"  {metric:45s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
