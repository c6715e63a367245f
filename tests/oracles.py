"""Dense reference builds that check the library.

The library works on leading block columns, the Gram route to kappa and
the R-factor SVD; the builds here spell the same objects out densely so
the tests can compare against them.  They use numpy alone and import
nothing from ``rbtlse``, so they never share code with what they check:

* the full real and complex representations of a reduced biquaternion
  matrix, written as explicit block grids, and the side-by-side and
  stacked concatenations of two such matrices, component by component;
* the Moore-Penrose pseudoinverse, the commutation matrix and column-major
  vec/unvec that the dense condition-number formula is written in;
* stacks P = [Ac, Bc] and S = [Cc, Dc] whose reduced matrix P Q2
  has prescribed singular values, and with p = 0 a prescribed spectrum
  of the block V22 the solve inverts (randsvd in stack space);
* the constraint stack S = [Cc, Dc] of a solution's problem, rebuilt
  from the data with the representations above;
* that formula's factors H, G and Z, built densely from the stack P and
  right singular vectors a solution keeps and that rebuilt S, with their
  own SVD of S, and the matrix-free product with (H G Z)^H from the same
  pieces, with the map of its result back to a perturbation of the
  stacks;
* the spectral norm, by a dense SVD or by matrix-free power iteration;
* the brute-force condition number: the solution map's Jacobian built
  column by column with central finite differences, which calls the
  solve it checks as a black box and shares none of its formulas.

Import with ``import oracles`` (pytest puts ``tests/`` on the path).
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np


class SpectralNormDidNotConverge(Exception):
    """Power iteration hit the iteration cap.

    The best estimate reached so far is carried in ``estimate``.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def real_repr(P) -> np.ndarray:
    """Real 4m-by-4n representation, built as its 4x4 block grid."""
    p0, p1, p2, p3 = P.p0, P.p1, P.p2, P.p3
    return np.block([
        [p0, -p1, p2, -p3],
        [p1, p0, p3, p2],
        [p2, -p3, p0, -p1],
        [p3, p2, p1, p0],
    ])


def complex_repr(P) -> np.ndarray:
    """Complex 2m-by-2n representation [[R1, R2], [R2, R1]]."""
    r1 = P.p0 + 1j * P.p1
    r2 = P.p2 + 1j * P.p3
    return np.block([[r1, r2], [r2, r1]])


# The concatenations build their result with type(P), the matrix class of
# their operands, so this module still imports nothing from rbtlse; numpy
# refuses blocks that do not line up with ValueError.

def hstack(P, T):
    """[P, T] of two matrices with the same row count."""
    return type(P)(*map(np.hstack, zip(P.components, T.components)))


def vstack(P, T):
    """[P; T] of two matrices with the same column count."""
    return type(P)(*map(np.vstack, zip(P.components, T.components)))


# ---------------------------------------------------------------------------
# pseudoinverse, commutation, vec
# ---------------------------------------------------------------------------

def pinv(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the SVD truncated to the numerical
    rank: the singular values above max(r, c) * eps * sigma_1."""
    M = np.asarray(M)
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    k = (int(np.sum(s > max(M.shape) * np.finfo(np.float64).eps * s[0]))
         if s.size else 0)
    return (Vh[:k].conj().T / s[:k]) @ U[:, :k].conj().T


def commutation_matrix(d: int, n: int) -> np.ndarray:
    """Permutation matrix mapping vec(X) to vec(X^T) for d-by-n X."""
    if d < 1 or n < 1:
        raise ValueError("commutation_matrix needs d, n >= 1")
    P = np.zeros((d * n, d * n))
    i = np.repeat(np.arange(d), n)
    j = np.tile(np.arange(n), d)
    P[j + i * n, i + j * d] = 1.0
    return P


def vec(X: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return np.asarray(X).reshape(-1, order="F")


def unvec(v: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    return np.asarray(v).reshape(shape, order="F")


# ---------------------------------------------------------------------------
# stacks with a prescribed spectrum
# ---------------------------------------------------------------------------

def _normal(rng, rows: int, cols: int, complex_: bool) -> np.ndarray:
    """A standard normal rows-by-cols draw, normal + 1j * normal if
    ``complex_``."""
    M = rng.standard_normal((rows, cols))
    return M + 1j * rng.standard_normal((rows, cols)) if complex_ else M


def _orthonormal(rng, rows: int, cols: int, complex_: bool) -> np.ndarray:
    """A random rows-by-cols matrix with orthonormal columns."""
    return np.linalg.qr(_normal(rng, rows, cols, complex_))[0]


def prescribed_stacks(rng, complex_: bool, rows: int, n: int, d: int,
                      r: int, sigma, v22_sv=None):
    """Stacks P (rows x (n+d)) and S (r x (n+d)) whose reduced matrix
    P Q2 has the singular values ``sigma`` (n+d-r of them, nonincreasing),
    Q2 spanning ker(S): randsvd (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 28) in stack space.

    S is standard normal; with Q = [Q1, Q2] from the complete QR of S^H,
    P = U diag(sigma) W^H Q2^H + F Q1^H for U with orthonormal columns,
    W unitary and F standard normal, so P Q2 = U diag(sigma) W^H.  Any
    real 4m-row or complex 2m-row stack is the leading block column of
    exactly one RB matrix, so the stacks are a problem's.  With r = 0,
    ``v22_sv`` (d cosines in (0, 1]) prescribes the singular values of
    the trailing d x d block of W, the block V22 the solve inverts:
    W = diag(Ua, Ub) J diag(Va, Vb)^H with J the CS matrix
    [I, 0, 0; 0, c, -s; 0, s, c], which needs n >= d.
    """
    k = n + d - r
    S = _normal(rng, r, n + d, complex_)
    Q = np.linalg.qr(S.conj().T, mode="complete")[0]
    Q1, Q2 = Q[:, :r], Q[:, r:]
    if v22_sv is None:
        W = _orthonormal(rng, k, k, complex_)
    else:
        if r or n < d:
            raise ValueError("v22_sv needs r = 0 and n >= d")
        c = np.asarray(v22_sv, dtype=float)
        J = np.eye(n + d)
        J[n - d:n, n - d:n] = J[n:, n:] = np.diag(c)
        J[n:, n - d:n] = np.diag(np.sqrt(1.0 - c ** 2))
        J[n - d:n, n:] = -J[n:, n - d:n]
        left, right = (np.zeros((n + d, n + d), dtype=Q.dtype)
                       for _ in range(2))
        for M in (left, right):
            M[:n, :n] = _orthonormal(rng, n, n, complex_)
            M[n:, n:] = _orthonormal(rng, d, d, complex_)
        W = left @ J @ right.conj().T
    U = _orthonormal(rng, rows, k, complex_)
    F = _normal(rng, rows, r, complex_)
    P = (U * np.asarray(sigma, dtype=float)) @ W.conj().T @ Q2.conj().T
    return P + F @ Q1.conj().T, S


# ---------------------------------------------------------------------------
# the condition number's dense factors
# ---------------------------------------------------------------------------

def constraint_stack(solution) -> np.ndarray:
    """S = [Cc, Dc] of the problem ``solution`` solves, rebuilt from C
    and D: the leading n+d columns of the representation of [C, D], the
    real one for a real solve (``P`` real) and the complex one for a
    complex solve."""
    problem = solution.problem
    represent = complex_repr if np.iscomplexobj(solution.P) else real_repr
    CD = hstack(problem.C, problem.D)
    return represent(CD)[:, :CD.cols]


def dense_condition_factors(solution):
    """H, G, Z and the projection Q inside Z, as dense matrices, so that
    kappa = ||H G Z||_2 * ||[J, K]||_F / ||X||_F.

    Reads only ``P``, ``V_check``, ``sigma``, ``X`` and ``problem`` off
    the solution, rebuilds S from the problem (:func:`constraint_stack`)
    and takes its own thin SVD S = Us Ss Vs^H and pseudoinverse of S: H
    is the inverse-transpose Kronecker block of W1 = [Vs, V1] (top
    n rows) and V22 times the commutation matrix, G the diagonal resolvent
    times two diagonal Kronecker blocks, and Z the block diagonal of
    diag(mask) (x) conj(U2^H Q^H), Q = [-(P S^+)^H; I], and T2 (x) I_d,
    T2 = [I, 0; -U1^H (P S^+) Us, I].  U = P V_check / sigma; the cases
    used are noisy, so no sigma is near zero.
    """
    P, V_check, sigma = solution.P, solution.V_check, solution.sigma
    S = constraint_stack(solution)
    n, d = solution.X.shape
    r = S.shape[0]
    k = n - r
    Us, Ss, Vsh = np.linalg.svd(S, full_matrices=False)
    PS = P @ np.linalg.pinv(S)
    Q = np.vstack([-PS.conj().T, np.eye(P.shape[0])])
    W1 = np.hstack([Vsh.conj().T, V_check[:, :k]])[:n]
    V22 = V_check[n:, k:]
    H = np.kron(np.linalg.inv(V22).T, np.linalg.inv(W1).conj().T) \
        @ commutation_matrix(d, n)
    S_diag = np.concatenate([Ss, sigma[:k]])
    sig2 = sigma[k:]
    mask = np.concatenate([np.zeros(r), np.ones(k)])
    denom = (S_diag[:, None] ** 2 - mask[:, None] * sig2 ** 2).ravel()
    G = (1.0 / denom)[:, None] * np.hstack([
        np.kron(np.eye(n), np.diag(sig2)),
        np.kron(np.diag(S_diag), np.eye(d))])
    U = P @ V_check / sigma
    T2 = np.eye(n, dtype=U.dtype)
    T2[r:, :r] = -U[:, :k].conj().T @ PS @ Us
    Zb1 = np.kron(np.diag(mask), (U[:, k:].conj().T @ Q.conj().T).conj())
    Zb2 = np.kron(T2, np.eye(d))
    Z = np.zeros((2 * n * d, Zb1.shape[1] + n * d),
                 dtype=np.result_type(Zb1, Zb2))
    Z[:n * d, :Zb1.shape[1]] = Zb1
    Z[n * d:, Zb1.shape[1]:] = Zb2
    return H, G, Z, Q


def condition_adjoint(solution):
    """(adjoint, to_data): adjoint(u) = (H G Z)^H u for u of length nd,
    without forming H, G, Z or Q, and to_data(v) the perturbation
    (dS, dP) of the stacks S and P that v, a vector of the input space
    of H G Z, stands for.

    Built from what the solution keeps and the rebuilt S, with the same
    SVD of S as :func:`dense_condition_factors`.  The input space holds
    vec(conj([dS; dP] Wn)) and vec((Ub^H [dS; dP] V2)^T), with Wn = [Vs,
    V1], V2 the trailing right singular vectors and Ub the block diagonal
    of Us and U1; this map of the stacks has orthonormal rows, so
    to_data, its adjoint, keeps norms and the direction
    to_data(adjoint(u)) with u the top eigenvector of the Gram matrix
    moves X by kappa to first order.
    """
    P, V_check, sigma = solution.P, solution.V_check, solution.sigma
    S = constraint_stack(solution)
    n, d = solution.X.shape
    r, q = S.shape[0], P.shape[0]
    k = n - r
    Us, Ss, Vsh = np.linalg.svd(S, full_matrices=False)
    PS = P @ (Vsh.conj().T / Ss) @ Us.conj().T
    U = P @ V_check / sigma
    U1, U2 = U[:, :k], U[:, k:]
    Wn = np.hstack([Vsh.conj().T, V_check[:, :k]])
    W1, V2, V22 = Wn[:n], V_check[:, k:], V_check[n:, k:]
    S_diag = np.concatenate([Ss, sigma[:k]])
    sig2 = sigma[k:]
    mask = np.concatenate([np.zeros(r), np.ones(k)])
    # the (i, j) entry of D at right-hand side i, column j
    denom = S_diag ** 2 - mask * sig2[:, None] ** 2
    T2 = np.eye(n, dtype=U.dtype)
    T2[r:, :r] = -U1.conj().T @ PS @ Us

    def adjoint(u):
        # H^H: the two inverses, then the commutation back to d x n
        Y = np.linalg.solve(W1, unvec(u, (n, d)))
        Wd = np.linalg.solve(V22, Y.conj().T).conj() / denom
        # G^H, then Z^H, with conj(Q) = [-(P S^+)^T; I]
        w = U2.conj() @ (sig2[:, None] * Wd * mask)
        B1 = np.vstack([-PS.T @ w, w])
        B2 = (Wd * S_diag) @ T2.conj()
        return np.concatenate([vec(B1), vec(B2)])

    def to_data(v):
        M1 = unvec(v[:n * (r + q)], (r + q, n))
        Y2 = unvec(v[n * (r + q):], (d, n)).T
        UbY = np.vstack([Us @ Y2[:r], U1 @ Y2[r:]])
        stacks = M1.conj() @ Wn.conj().T + UbY @ V2.conj().T
        return stacks[:r], stacks[r:]

    return adjoint, to_data


# ---------------------------------------------------------------------------
# spectral norm
# ---------------------------------------------------------------------------

def spectral_norm(M: np.ndarray, method: str = "dense",
                  tol: float = 1e-10, max_iter: int = 5000) -> float:
    """Largest singular value.

    method="dense" takes numpy's singular values; method="power" runs the
    matrix-free power iteration, an answer independent of LAPACK's SVD.
    """
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    if method == "dense":
        return float(np.linalg.svd(M, compute_uv=False)[0])
    if method == "power":
        return spectral_norm_power(
            lambda v: M @ v,
            lambda w: M.conj().T @ w,
            M.shape[1],
            complex_ok=np.iscomplexobj(M),
            tol=tol, max_iter=max_iter)
    raise ValueError(f"unknown method {method!r}")


def spectral_norm_power(matvec: Callable[[np.ndarray], np.ndarray],
                        rmatvec: Callable[[np.ndarray], np.ndarray],
                        ncols: int,
                        complex_ok: bool = False,
                        tol: float = 1e-10,
                        max_iter: int = 5000,
                        seed: int = 1905) -> float:
    """Power iteration for the spectral norm of an implicitly given matrix.

    Iterates v <- M^H M v on a deterministic random start vector and reads
    the estimate off ||M v||.  Stops when consecutive estimates agree to
    ``tol`` relative; hitting ``max_iter`` raises
    SpectralNormDidNotConverge with the best estimate attached.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(ncols)
    if complex_ok:
        v = v + 1j * rng.standard_normal(ncols)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v = v / nv
    estimate = 0.0
    for _ in range(max_iter):
        w = matvec(v)
        new_estimate = float(np.linalg.norm(w))
        if new_estimate == 0.0:
            return 0.0
        z = rmatvec(w)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return new_estimate
        v = z / nz
        if abs(new_estimate - estimate) <= tol * new_estimate:
            return new_estimate
        estimate = new_estimate
    raise SpectralNormDidNotConverge(
        f"power iteration did not converge in {max_iter} iterations",
        estimate=estimate)


# ---------------------------------------------------------------------------
# condition number by finite differences
# ---------------------------------------------------------------------------

def brute_kappa(problem, solve, h: float = 1e-7):
    """(kappa, solution, Jacobian) of ``solve`` on ``problem`` by brute
    force.

    Each of the 4(mn + md + pn + pd) real data entries of A, B, C and D
    is moved by +-h, the problem solved again, and the central difference
    of X is one column of the Jacobian (complex X as its real and
    imaginary parts stacked).  Columns run over A, B, C, D in turn, then
    components 0..3, then rows, then columns.  kappa is the Jacobian's
    spectral norm times ||[J, K]||_F / ||X||_F.  ``problem`` is a
    dataclass with matrix fields A, B, C, D holding the components
    p0..p3.
    """
    sol = solve(problem)
    m, n, p, d = problem.sizes
    blocks = {"A": (m, n), "B": (m, d), "C": (p, n), "D": (p, d)}
    mats = {name: getattr(problem, name) for name in blocks}
    jk = np.sqrt(sum(np.sum(c ** 2) for M in mats.values()
                     for c in (M.p0, M.p1, M.p2, M.p3)))
    cols = []
    for name, (r, c) in blocks.items():
        M = mats[name]
        for comp in range(4):
            for i in range(r):
                for j in range(c):
                    deltas = [np.zeros((r, c)) for _ in range(4)]
                    deltas[comp][i, j] = h
                    dM = type(M)(*deltas)
                    xp = solve(dataclasses.replace(problem,
                                                   **{name: M + dM})).X
                    xm = solve(dataclasses.replace(problem,
                                                   **{name: M - dM})).X
                    cols.append(((xp - xm) / (2 * h)).ravel(order="F"))
    J = np.column_stack(cols)
    if np.iscomplexobj(J):
        J = np.vstack([J.real, J.imag])
    op = np.linalg.svd(J, compute_uv=False)[0]
    return op * jk / np.linalg.norm(sol.X), sol, J
