"""Acceptance gate: one criterion per test, one printed verdict line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to watch the
verdict lines stream).  Tolerances are stated inline; every criterion is
independent of the others.  Criteria 1-5 read their seeded
configurations from ``golden.RUNS`` by name and their runs from
``golden.run``, which computes each configuration once per session and
shares it with ``test_golden.py``, so the gate and the golden values
check the same runs.  Criteria 6-8 draw their data through
``tests/instances.py`` and ``gen_instance``.
"""

import numpy as np

import golden
import oracles
import rbtlse.rb_core as rb
from instances import ALGEBRAS, consistent, rand_rb, solved_by
from rbtlse.bench import gen_instance, random_perturbation
from rbtlse.tlse import solve_complex, solve_real


def _verdict(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


# ---------------------------------------------------------------------------
# 1 + 2: residual accuracy of both solvers at growing scale
# ---------------------------------------------------------------------------

def test_criterion_1_accuracy_real():
    records = golden.run(golden.RUNS["accuracy-real"])[0]
    ok = (len(records) == 3
          and all(not r.error for r in records)
          and all(r.eps1 < 1e-10 and r.eps2 < 1e-10 for r in records))
    _verdict(ok, "criterion 1: real solver residuals below 1e-10 "
                 "at t in {1,3,5}")


def test_criterion_2_accuracy_complex():
    records = golden.run(golden.RUNS["accuracy-complex"])[0]
    ok = (len(records) == 3
          and all(not r.error for r in records)
          and all(r.eps1 < 1e-10 and r.eps2 < 1e-10 for r in records))
    _verdict(ok, "criterion 2: complex solver residuals below 1e-10 "
                 "at t in {1,3,5}")


# ---------------------------------------------------------------------------
# 3 + 4: first-order bound dominates the measured forward error
# ---------------------------------------------------------------------------

def _bound_criterion(experiment: str) -> bool:
    records = golden.run(golden.RUNS[experiment])[0]
    kept = [r for r in records if not r.error]
    if len(kept) < 60:
        return False
    return all(r.fwd_err <= r.bound * 1.05 for r in kept)


def test_criterion_3_bound_real():
    _verdict(_bound_criterion("bound-real"),
             "criterion 3: real forward errors within 1.05x the bound, "
             ">=60 trials over eps in {1e-11,1e-8,1e-5}, t in {1,3,5}")


def test_criterion_4_bound_complex():
    _verdict(_bound_criterion("bound-complex"),
             "criterion 4: complex forward errors within 1.05x the bound, "
             ">=60 trials over eps in {1e-11,1e-8,1e-5}, t in {1,3,5}")


# ---------------------------------------------------------------------------
# 5: total vs constrained least squares ordering
# ---------------------------------------------------------------------------

def test_criterion_5_compare_ordering():
    bad = []
    for variant in ("real", "complex"):
        for case in (1, 2):
            records = golden.run(
                golden.RUNS[f"compare-lse-{variant}-case{case}"])[0]
            if any(r.error for r in records) or len(records) != 4:
                bad.append(f"{variant} case {case}: run errors")
                continue
            for r in records:
                wrong = r.eps_L <= r.eps_T if case == 1 else r.eps_T <= r.eps_L
                if wrong:
                    bad.append(f"{variant} case {case} m={r.m}: "
                               f"eps_T={r.eps_T:.6f} eps_L={r.eps_L:.6f}")
    for line in bad:
        print(f"       ordering violated: {line}")
    _verdict(not bad, "criterion 5: mean errors order as expected at every m "
                      "(case 1: total wins; case 2: baseline wins; both variants)")


# ---------------------------------------------------------------------------
# 6: algebra and representation invariants in bulk
# ---------------------------------------------------------------------------

def test_criterion_6_algebra_invariants():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        q = int(rng.integers(1, 5))
        P = rand_rb(rng, m, n)
        Q = rand_rb(rng, n, q)
        prod = rb.mat_mul(P, Q)
        rr = oracles.real_repr(P) @ oracles.real_repr(Q)
        scale = max(1.0, float(np.abs(rr).max()))
        if not np.allclose(oracles.real_repr(prod), rr,
                           rtol=0, atol=1e-13 * scale):
            ok = False
            break
        cc = oracles.complex_repr(P) @ oracles.complex_repr(Q)
        if not np.allclose(oracles.complex_repr(prod), cc,
                           rtol=0, atol=1e-13 * scale):
            ok = False
            break
        f = rb.frobenius_norm(P)
        checks = (np.linalg.norm(oracles.real_repr(P)) / 2,
                  np.linalg.norm(rb.real_block_column(P)),
                  np.linalg.norm(oracles.complex_repr(P)) / np.sqrt(2),
                  np.linalg.norm(rb.complex_block_column(P)))
        if any(abs(c - f) > 1e-14 * max(1.0, f) for c in checks):
            ok = False
            break
    _verdict(ok, "criterion 6: 1000 random instances satisfy the product "
                 "homomorphisms (1e-13) and the norm identities (1e-14)")


# ---------------------------------------------------------------------------
# 7: exact recovery on consistent noiseless systems
# ---------------------------------------------------------------------------

def test_criterion_7_consistent_recovery():
    rng = np.random.default_rng(4)
    ok = True
    for trial in range(50):
        n = int(rng.integers(4, 9))
        p = int(rng.integers(0, 2))
        d = int(rng.integers(1, 3))
        m = int(rng.integers(3 * n, 4 * n))
        prob, Xs = consistent("real", rng, m, n, p, d)
        sol = solve_real(prob)
        scale = rb.frobenius_norm(oracles.hstack(prob.A, prob.B))
        if np.linalg.norm(sol.X - Xs) > 1e-8 * np.linalg.norm(Xs):
            ok = False
            break
        if sol.residual_perturbation_norm > 1e-10 * scale:
            ok = False
            break
        # complex twin on the same shapes
        Zs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        cprob = solved_by(prob.A, prob.C, Zs)
        csol = solve_complex(cprob)
        cscale = rb.frobenius_norm(oracles.hstack(cprob.A, cprob.B))
        if np.linalg.norm(csol.X - Zs) > 1e-8 * np.linalg.norm(Zs):
            ok = False
            break
        if csol.residual_perturbation_norm > 1e-10 * cscale:
            ok = False
            break
    _verdict(ok, "criterion 7: 50 consistent instances per solver recover "
                 "the exact solution (1e-8) with near-zero correction (1e-10)")


# ---------------------------------------------------------------------------
# 8: directional sensitivity never beats the condition number
# ---------------------------------------------------------------------------

def _sampling_criterion(kind: str) -> bool:
    solve, condition = ALGEBRAS[kind].solve, ALGEBRAS[kind].condition
    eps = 1e-8
    rng = np.random.default_rng(5)
    sizes = (20, 8, 1, 2)
    for instance_idx in range(10):
        prob = gen_instance(kind, sizes, 100 + instance_idx)
        sol = solve(prob)
        kappa = condition(prob, sol).kappa
        xn = np.linalg.norm(sol.X)
        for _ in range(5):
            inst = random_perturbation(prob, rng, eps)
            fwd = np.linalg.norm(solve(inst.perturbed()).X - sol.X) / xn
            if fwd > kappa * eps * 1.001:
                return False
    return True


def test_criterion_8_directional_sampling():
    ok = _sampling_criterion("real") and _sampling_criterion("complex")
    _verdict(ok, "criterion 8: finite-difference sensitivity samples stay "
                 "within 0.1% of kappa at eps 1e-8, 10 instances per path")


# ---------------------------------------------------------------------------
# 9: kernel reconstruction and spectral-norm agreement
# ---------------------------------------------------------------------------

def test_criterion_9_kernels():
    rng = np.random.default_rng(6)
    ok = True
    for shape in [(50, 20), (200, 120), (400, 400)]:
        M = rng.standard_normal(shape)
        scale = float(np.abs(M).max())
        Q, R = np.linalg.qr(M, mode="complete")
        padded = np.zeros(shape)
        padded[:min(shape), :] = R[:min(shape)]
        if not np.allclose(Q @ padded, M, atol=1e-10 * scale):
            ok = False
        U, s, Vh = np.linalg.svd(M, full_matrices=False)
        if not np.allclose(U @ (s[:, None] * Vh), M, atol=1e-10 * scale):
            ok = False
    N = rng.standard_normal((40, 25))
    Np = oracles.pinv(N)
    if not np.allclose(N @ Np @ N, N, atol=1e-12 * np.abs(N).max() * 40):
        ok = False
    if not np.allclose(Np @ N @ Np, Np, atol=1e-12 * 40):
        ok = False
    big = rng.standard_normal((300, 400))
    dense = oracles.spectral_norm(big, method="dense")
    power = oracles.spectral_norm(big, method="power")
    if abs(power - dense) > 1e-8 * dense:
        ok = False
    perm = oracles.commutation_matrix(6, 7)
    X = rng.standard_normal((6, 7))
    if not np.array_equal(perm @ oracles.vec(X), oracles.vec(X.T)):
        ok = False
    _verdict(ok, "criterion 9: factorization reconstruction to 1e-10 up to "
                 "400x400, pinv identities, dense/power norms agree to 1e-8")
