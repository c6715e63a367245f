"""In-memory span recorder attached to rbtlse from outside the package.

The library has no tracing of its own, so the benchmark wraps the public
functions that enter each layer.  A function is found by name anywhere in
the ``rbtlse.*`` module namespaces, and every binding of that same object
(its home module, re-exports, ``from ... import`` copies) is replaced by one
wrapper.  A function that a later refactor moves is still found; one it
deletes leaves its layer with zero calls instead of breaking the run.

Spans carry (layer, start, end, parent, op id, failed, work).  A layer's
self time is a span's duration minus the time its direct child spans cover;
a "call" is a span whose parent belongs to another layer, so an SVD helper
calling another SVD helper counts once.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# layer -> names of the public functions that enter it
LAYERS = {
    "perturbation.condition": ("condition_real", "condition_complex"),
    "tlse.solve": ("solve_real", "solve_complex"),
    "lse_baseline.solve": ("lse_solve_real", "lse_solve_complex"),
    "dense_kernels.svd": ("svd_thin", "svd_skinny"),
    "dense_kernels.spectral_norm": ("spectral_norm",),
    "dense_kernels.spectral_norm_power": ("spectral_norm_power",),
    "dense_kernels.kron": ("kron",),
    "dense_kernels.qr_full": ("qr_full",),
    "rb_core.block_column": ("real_block_column", "complex_block_column"),
    "rb_core.mat_mul": ("mat_mul",),
    "rb_core.read_rbmat": ("read_rbmat",),
    "rb_core.write_rbmat": ("write_rbmat",),
    "cli.main": ("main",),
    "bench.gen": ("gen_instance", "gen_compare_instance",
                  "random_perturbation"),
}

# span fields
NAME, START, END, PARENT, OP, FAILED, WORK = range(7)
SETUP_OP = -1


def _entries(args, kwargs):
    """Entries of the matrix argument (computed from its shape)."""
    m = args[0] if args else next(iter(kwargs.values()))
    return int(getattr(m, "size", 0))


def _kron_entries(args, kwargs):
    a, b = (list(args) + list(kwargs.values()))[:2]
    return int(getattr(a, "size", 0)) * int(getattr(b, "size", 0))


def _path_bytes(args, kwargs):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


# work counted before the call (from the inputs) or after it (from effects)
WORK_BEFORE = {"dense_kernels.svd": _entries,
               "dense_kernels.spectral_norm": _entries,
               "dense_kernels.kron": _kron_entries,
               "rb_core.read_rbmat": _path_bytes}
WORK_AFTER = {"rb_core.write_rbmat": _path_bytes}


class Tracer:
    """Records spans while ``active``; the wrappers are pass-through
    otherwise, so output checks and untraced phases leave no spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.op = SETUP_OP
        self._stack: list[int] = []
        self.wrapped: dict[str, int] = {}

    def install(self) -> None:
        """Wrap every binding of each layer's functions in rbtlse.*."""
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "rbtlse" or name.startswith("rbtlse.")]
        layer_of = {fname: layer for layer, names in LAYERS.items()
                    for fname in names}
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj)
                        and obj.__module__.startswith("rbtlse")
                        and obj.__name__ in layer_of):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(layer_of[obj.__name__], obj)
                setattr(mod, attr, wrappers[id(obj)])
        for layer in LAYERS:
            self.wrapped[layer] = sum(
                1 for w in wrappers.values() if w.layer == layer)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.op, False, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op: int) -> list:
        self.op = op
        self.active = True
        rec = self._open("op")
        rec[START] = time.perf_counter()
        return rec

    def end_op(self, rec: list, failed: bool) -> None:
        self._close(rec)
        rec[FAILED] = failed
        self.active = False

    def _wrap(self, layer: str, fn):
        before = WORK_BEFORE.get(layer)
        after = WORK_AFTER.get(layer)
        counts_matvecs = layer == "dense_kernels.spectral_norm_power"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open(layer)
            if before is not None:
                rec[WORK] = before(args, kwargs)
            if counts_matvecs:
                args = (_counted(args[0], rec), _counted(args[1], rec)) \
                    + args[2:]
            rec[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                self._close(rec)
                if after is not None and not rec[FAILED]:
                    rec[WORK] = after(args, kwargs)

        wrapper.layer = layer
        return wrapper

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (indices into this file)."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "op": rec[OP],
                    "failed": rec[FAILED], "work": rec[WORK]}) + "\n")


def _counted(fn, rec):
    """Count one operator application per call (matvec or adjoint)."""
    def apply(v):
        rec[WORK] += 1
        return fn(v)
    return apply


def layer_totals(spans: list[list], ops: set[int]) -> dict:
    """Per layer: self seconds, calls, failed calls and work over the
    spans of the given ops; the "op" entry also sums op wall seconds."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    totals = {layer: {"self_s": 0.0, "calls": 0, "failed": 0, "work": 0}
              for layer in LAYERS}
    totals["op"] = {"self_s": 0.0, "calls": 0, "failed": 0, "work": 0,
                    "wall_s": 0.0}
    for i, rec in enumerate(spans):
        if rec[OP] not in ops:
            continue
        t = totals[rec[NAME]]
        t["self_s"] += rec[END] - rec[START] - child[i]
        parent = rec[PARENT]
        if parent < 0 or spans[parent][NAME] != rec[NAME]:
            t["calls"] += 1
            t["failed"] += int(rec[FAILED])
            t["work"] += rec[WORK]
        if rec[NAME] == "op":
            t["wall_s"] += rec[END] - rec[START]
    return totals
