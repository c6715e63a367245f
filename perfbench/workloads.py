"""The four benchmark workloads.

Each workload is a set of size groups, a pool of seeded instances per group
(built by the package's own generators during set-up) and a short
``pattern`` of group indices that fixes one cycle of the closed loop.  The
pattern weights are chosen so that the median and the 90th percentile of
op latency fall inside one size group, not on the edge between two groups
of very different cost, where they would jump from run to run.

``op`` is the timed call into the library; ``check`` validates its output
afterwards and returns an error string or None.  Only public names that the
planned refactors keep are used: solve_*, condition_* with default
arguments, lse_solve_*, residuals_*, epsilon_n, the bench generators,
read_rbmat / write_rbmat and cli.main.  Every library function is looked up
on the package at call time, so the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import rbtlse
import rbtlse.cli

# distinct instances per size group; the cost of the power-iteration kappa
# path varies by instance, so each run averages over several
POOL = 8
KINDS = ("real", "complex")
EPSILONS = (1e-11, 1e-8, 1e-5)
# The tolerance of acceptance criteria 1-2, applied normwise relative
# (residual over ||A|| ||X|| + ||B||): the absolute residual of a backward
# stable solve grows with ||X||, and random real instances at t >= 10 exceed
# 1e-10 absolute while their relative residual stays below 1e-15.
RESIDUAL_TOL = 1e-10
BOUND_SLACK = 1.05     # acceptance criteria 3-4


@dataclass
class Workload:
    groups: list[str]
    pools: list[list[Any]]
    pattern: list[int]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], Any]
    cleanup: Callable[[], None] = field(default=lambda: None)


def _weighted(levels, weights):
    """Pattern of (level, kind) pairs, algebras alternating."""
    return [(level, kind) for level in levels
            for _ in range(weights[level]) for kind in KINDS]


def _solver(kind):
    return rbtlse.solve_real if kind == "real" else rbtlse.solve_complex


def _fro(M) -> float:
    return float(np.sqrt(sum(np.sum(np.abs(c) ** 2)
                             for c in (M.p0, M.p1, M.p2, M.p3))))


def _lift(X):
    if np.iscomplexobj(X):
        return rbtlse.RBMatrix.from_complex(X)
    return rbtlse.RBMatrix.from_real(X)


def _build(labels, make, seed):
    streams = iter(np.random.SeedSequence(seed).spawn(len(labels) * POOL))
    return [[make(label, next(streams)) for _ in range(POOL)]
            for label in labels]


# -- solve ---------------------------------------------------------------

def solve(seed: int, workdir: str) -> Workload:
    """One solve_* per op at accuracy sizes; never conditions."""
    labels = [(t, kind) for t in (1, 5, 10, 20) for kind in KINDS]
    pattern = [labels.index(x) for x in _weighted((1, 5, 10, 20),
                                                  {1: 3, 5: 2, 10: 1, 20: 1})]

    def make(label, stream):
        t, kind = label
        return kind, rbtlse.gen_instance(
            kind, rbtlse.accuracy_sizes(kind, t), stream)

    def op(item):
        kind, problem = item
        return _solver(kind)(problem)

    def check(item, solution):
        kind, problem = item
        residuals = (rbtlse.residuals_real if kind == "real"
                     else rbtlse.residuals_complex)
        e1, e2 = residuals(problem, solution)
        x_norm = np.linalg.norm(solution.X)
        rel1 = e1 / (_fro(problem.A) * x_norm + _fro(problem.B))
        rel2 = e2 / (_fro(problem.C) * x_norm + _fro(problem.D))
        if not (rel1 < RESIDUAL_TOL and rel2 < RESIDUAL_TOL):
            return f"relative residuals eps1={rel1:.3e} eps2={rel2:.3e}"
        return None

    return Workload([f"{k}-t{t}" for t, k in labels],
                    _build(labels, make, seed), pattern, op, check)


# -- condition -----------------------------------------------------------

def condition(seed: int, workdir: str) -> Workload:
    """One bound-protocol point per op: solve, condition_*, and three
    perturbed solves.  t <= 5 runs the dense kappa route, t = 10 the
    power-iteration route."""
    labels = [(t, kind) for t in (1, 3, 5, 10) for kind in KINDS]
    pattern = [labels.index(x) for x in _weighted((1, 3, 5, 10),
                                                  {1: 3, 3: 2, 5: 1, 10: 1})]

    def make(label, stream):
        t, kind = label
        base_stream, pert_stream = stream.spawn(2)
        problem = rbtlse.gen_instance(
            kind, rbtlse.accuracy_sizes(kind, t), base_stream)
        rng = np.random.default_rng(pert_stream)
        perturbed = []
        for eps in EPSILONS:
            inst = rbtlse.random_perturbation(problem, rng, eps)
            perturbed.append((inst.perturbed(), rbtlse.epsilon_n(inst)))
        return kind, problem, perturbed

    def op(item):
        kind, problem, perturbed = item
        solution = _solver(kind)(problem)
        condition_fn = (rbtlse.condition_real if kind == "real"
                        else rbtlse.condition_complex)
        report = condition_fn(problem, solution)
        xs = [_solver(kind)(p).X for p, _ in perturbed]
        return solution.X, report.kappa, xs

    def check(item, out):
        _, _, perturbed = item
        X, kappa, xs = out
        if not (np.isfinite(kappa) and kappa > 0):
            return f"kappa={kappa!r}"
        x_norm = np.linalg.norm(X)
        for (_, eps), x in zip(perturbed, xs):
            fwd = np.linalg.norm(x - X) / x_norm
            if not fwd <= BOUND_SLACK * kappa * eps:
                return f"forward error {fwd:.3e} > 1.05*kappa*eps at {eps:.0e}"
        return None

    return Workload([f"{k}-t{t}" for t, k in labels],
                    _build(labels, make, seed), pattern, op, check)


# -- compare -------------------------------------------------------------

def compare(seed: int, workdir: str) -> Workload:
    """One compare-lse trial per op: TLS and LSE on the perturbed system
    (d = 35 right-hand sides)."""
    labels = [(m, case, variant) for m in (60, 80, 100, 120)
              for case in (1, 2) for variant in KINDS]
    # two real to three complex trials per (m, case)
    pattern = [labels.index((m, case, v)) for m in (60, 80, 100, 120)
               for case in (1, 2)
               for v in ("real", "complex", "real", "complex", "complex")]

    def make(label, stream):
        m, case, variant = label
        _, pert, _ = rbtlse.gen_compare_instance(case, m, stream, variant)
        return variant, pert

    def op(item):
        variant, pert = item
        lse = (rbtlse.lse_solve_real if variant == "real"
               else rbtlse.lse_solve_complex)
        return (_solver(variant)(pert).X,
                lse(pert.A, pert.B, pert.C, pert.D).X)

    def check(item, out):
        _, pert = item
        d_norm = _fro(pert.D)
        for name, X in zip(("tls", "lse"), out):
            rel = _fro(pert.C @ _lift(X) - pert.D) / d_norm
            if not rel < RESIDUAL_TOL:
                return f"{name} constraint residual {rel:.3e}"
        return None

    return Workload([f"{v}-m{m}-case{c}" for m, c, v in labels],
                    _build(labels, make, seed), pattern, op, check)


# -- files ---------------------------------------------------------------

def files(seed: int, workdir: str) -> Workload:
    """Per op: write the four RBMAT files of an instance, then run the
    solve-* subcommand in-process with --report."""
    labels = [(t, kind) for t in (1, 2) for kind in KINDS]
    pattern = [labels.index(x) for x in _weighted((1, 2), {1: 2, 2: 1})]
    os.makedirs(workdir, exist_ok=True)
    paths = {key: os.path.join(workdir, f"{key}.rbmat") for key in "abcd"}
    report = os.path.join(workdir, "report.txt")

    def make(label, stream):
        t, kind = label
        problem = rbtlse.gen_instance(
            kind, rbtlse.accuracy_sizes(kind, t), stream)
        return kind, (problem.A, problem.B, problem.C, problem.D)

    def op(item):
        kind, blocks = item
        for key, block in zip("abcd", blocks):
            rbtlse.write_rbmat(paths[key], block)
        argv = [f"solve-{kind}", "--report", report]
        for key in "abcd":
            argv += [f"--{key}", paths[key]]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return rbtlse.cli.main(argv)

    def check(item, code):
        _, blocks = item
        if code != 0:
            return f"exit code {code}"
        for key, block in zip("abcd", blocks):
            back = rbtlse.read_rbmat(paths[key])
            if not all(np.array_equal(x, y) for x, y in
                       zip((back.p0, back.p1, back.p2, back.p3),
                           (block.p0, block.p1, block.p2, block.p3))):
                return f"RBMAT round trip of {key} not exact"
        with open(report) as fh:
            if "kappa" not in fh.read():
                return "report lacks kappa"
        return None

    def cleanup():
        for path in list(paths.values()) + [report]:
            if os.path.exists(path):
                os.unlink(path)
        if os.path.isdir(workdir) and not os.listdir(workdir):
            os.rmdir(workdir)

    return Workload([f"{k}-t{t}" for t, k in labels],
                    _build(labels, make, seed), pattern, op, check, cleanup)


WORKLOADS = {"solve": solve, "condition": condition,
             "compare": compare, "files": files}
