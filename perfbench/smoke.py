"""Short smoke run of every workload, traced and untraced.

    python3 perfbench/smoke.py

Asserts that each run exits 0, checks its outputs without failure, prints
every metric named in BENCHMARK.json with that metric's unit, and that the
traced runs keep the zero-call predictions: no conditioning outside
condition/files, no LSE baseline outside compare, no RBMAT reads outside
files.  Takes about a minute; timings at this length are not meaningful.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ZERO_CALLS = {
    "perturbation.condition.calls": ("solve", "compare"),
    "lse_baseline.solve.calls": ("solve", "condition", "files"),
    "rb_core.read_rbmat.calls": ("solve", "condition", "compare"),
}


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, result
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: v["unit"] for name, v in result["metrics"].items()}
            assert got == expected, (workload, trace, got, expected)
            for name, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), (name, v)
            if trace:
                for name, where in ZERO_CALLS.items():
                    calls = result["metrics"][name]["value"]
                    assert (calls == 0) == (workload in where), \
                        (workload, name, calls)
            print(f"ok  {workload:9s} trace={trace} "
                  f"attempted={result['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
