"""Byte-level record of the package's seeded numbers, and its diff.

    python tests/same_numbers.py --record PATH
    python tests/same_numbers.py --diff OLD NEW

``--record`` pins BLAS to one thread before numpy loads, imports
``rbtlse`` from this checkout's ``src/`` and writes to PATH a JSON file of
SHA-256 digests, one per artifact, beside the environment it ran in:

* ``run/<name>``: the CSV of each ``golden.RUNS`` configuration, as
  ``bench.write_csv`` writes it;
* ``report/<kind>-<t>``: the text of each ``golden.REPORTS`` report;
* ``pool/<workload>/seed<s>``: the instance pools of the ``compare`` and
  ``condition`` workloads of ``perfbench/workloads.py`` at seeds 0 and 7;
* ``solve/<kind>-t<t>/<X|sigma|kappa>``: the bytes of X, sigma and kappa
  on the seed-0 ``gen_instance`` at the accuracy sizes of each t in
  (1, 2, 3, 5, 10).

``--diff`` names each artifact whose digest moved, or that only one
record holds, and exits 1 if any did.  Digests depend on numpy, BLAS and
the machine, so compare two records made in one environment.  This is the
byte-level check behind a claim of "same numbers"; ``test_golden.py`` is
the tolerance-level gate, and this script is not a test.

(Not ``numbers.py``: run as a script, its directory comes first on
``sys.path``, and numpy's ``import numbers`` would load it.)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
POOL_SEEDS = (0, 7)
POOL_WORKLOADS = ("compare", "condition")
SOLVE_TS = (1, 2, 3, 5, 10)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _feed(h, obj) -> None:
    """Hash ``obj``, a pool item: nested tuples and lists of strings,
    floats, arrays, RB matrices and problems, each with its type and, for
    an array, its dtype and shape."""
    import numpy as np
    from rbtlse.rb_core import RBMatrix
    from rbtlse.tlse import TlseProblem

    if isinstance(obj, TlseProblem):
        obj = (obj.A, obj.B, obj.C, obj.D)
    if isinstance(obj, RBMatrix):
        obj = obj.components
    h.update(type(obj).__name__.encode())
    if isinstance(obj, (tuple, list)):
        h.update(str(len(obj)).encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    elif isinstance(obj, str):
        h.update(obj.encode())
    else:
        raise TypeError(f"cannot digest a {type(obj).__name__}")


def _runs(workdir: pathlib.Path) -> dict:
    import golden
    from rbtlse.bench import run_experiment, write_csv

    out = {}
    for name, config in golden.RUNS.items():
        path = workdir / f"{name}.csv"
        write_csv(str(path), run_experiment(config))
        out[f"run/{name}"] = _sha(path.read_bytes())
    for kind, t in golden.REPORTS:
        text = golden.report_text(kind, t, workdir)
        out[f"report/{kind}-{t}"] = _sha(text.encode())
    return out


def _pools(workdir: pathlib.Path) -> dict:
    import workloads

    out = {}
    for name in POOL_WORKLOADS:
        for seed in POOL_SEEDS:
            h = hashlib.sha256()
            _feed(h, workloads.WORKLOADS[name](seed, str(workdir)).pools)
            out[f"pool/{name}/seed{seed}"] = h.hexdigest()
    return out


def _solves() -> dict:
    import numpy as np
    from instances import ALGEBRAS
    from rbtlse.bench import accuracy_sizes, gen_instance

    out = {}
    for kind, algebra in ALGEBRAS.items():
        for t in SOLVE_TS:
            problem = gen_instance(kind, accuracy_sizes(kind, t), 0)
            solution = algebra.solve(problem)
            kappa = algebra.condition(problem, solution).kappa
            for label, value in (("X", solution.X), ("sigma", solution.sigma),
                                 ("kappa", np.float64(kappa))):
                out[f"solve/{kind}-t{t}/{label}"] = _sha(value.tobytes())
    return out


def record(path) -> None:
    """Write the record of this checkout to ``path``."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy is loaded; BLAS can no longer be pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "perfbench")]
    import numpy as np
    import rbtlse

    src = (ROOT / "src" / "rbtlse").resolve()
    if pathlib.Path(rbtlse.__file__).resolve().parent != src:
        raise ImportError(f"rbtlse imported from {rbtlse.__file__}, "
                          f"not from {src}")
    with tempfile.TemporaryDirectory() as workdir:
        workdir = pathlib.Path(workdir)
        digests = {**_runs(workdir), **_pools(workdir), **_solves()}
    blas = np.show_config("dicts")["Build Dependencies"]["blas"]
    env = {"numpy": np.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}",
           "python": platform.python_version(),
           "threads": {var: os.environ[var] for var in THREAD_VARS}}
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"env": env, "digests": digests}, fh, indent=1)
        fh.write("\n")


def diff(old: dict, new: dict) -> list[str]:
    """One line per artifact that moved between two records, or that
    only one of them holds."""
    a, b = old["digests"], new["digests"]
    lines = [f"moved: {name}" for name in sorted(a.keys() & b.keys())
             if a[name] != b[name]]
    lines += [f"only in old: {name}" for name in sorted(a.keys() - b.keys())]
    lines += [f"only in new: {name}" for name in sorted(b.keys() - a.keys())]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--record", metavar="PATH",
                        help="write the digests of this checkout to PATH")
    action.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="name each artifact that moved from OLD to NEW")
    args = parser.parse_args(argv)
    if args.record:
        record(args.record)
        print(f"wrote {args.record}")
        return 0
    old, new = (json.loads(pathlib.Path(p).read_text()) for p in args.diff)
    if old["env"] != new["env"]:
        print(f"environments differ: {old['env']} vs {new['env']}")
    lines = diff(old, new)
    print("\n".join(lines) if lines else
          f"no artifact moved ({len(new['digests'])} compared)")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
