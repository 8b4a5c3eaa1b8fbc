"""Integer least-squares ambiguity resolution (LAMBDA method).

Decorrelates the float ambiguity covariance with a unimodular Z-transform
(integer Gauss eliminations plus symmetric permutations), then finds the
best and second-best integer candidates with a depth-first bounded search.
The decorrelation may start from any unimodular Z, since every such Z
gives the same integer least-squares answer (Chang, Yang & Zhou 2005):
one that decorrelated a similar problem leaves only a few permutations
to do. The answer is checked in the original space before it is
returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AmbiguityCheckFailed, NotPositiveDefinite,
                     SearchLimitExceeded)

SEARCH_STEPS = 200_000      # step budget of one integer search


@dataclass
class AmbiguityProblem:
    """Float double-difference ambiguities and their covariance (cycles).

    `basis` is a unimodular Z to start the decorrelation from; None is
    the identity. `lambda_resolve` replaces it with the Z it ended with,
    so a caller can start the next problem of the same layout there.
    """

    float_values: np.ndarray
    covariance: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self):
        self.float_values = np.asarray(self.float_values, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        if self.covariance.shape != (self.float_values.size,) * 2:
            raise ValueError("covariance shape mismatch")
        if self.basis is not None:
            self.basis = np.asarray(self.basis, dtype=float)
            if self.basis.shape != self.covariance.shape:
                raise ValueError("basis shape mismatch")


def _ltdl(Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor Q = L.T @ diag(d) @ L with L unit lower triangular.

    Only the lower triangle of Q is read. Runs on Python floats, like
    `_reduction`.
    """
    n = Q.shape[0]
    A = Q.tolist()
    L = [[0.0] * n for _ in range(n)]
    d = [0.0] * n
    for i in range(n - 1, -1, -1):
        di = A[i][i]
        if di <= 0.0:
            raise NotPositiveDefinite("ambiguity covariance not positive definite")
        d[i] = di
        a = math.sqrt(di)
        row = [x / a for x in A[i][: i + 1]]
        for j in range(i):
            lij = row[j]
            A[j][: j + 1] = [x - r * lij for x, r in zip(A[j][: j + 1], row)]
        lii = row[i]
        L[i][: i + 1] = [x / lii for x in row]
    return np.array(L), np.array(d)


def _reduction(L: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Decorrelate in place: return unimodular Z with Z' Q Z = L' diag(d) L.

    Integer Gauss eliminations and symmetric permutations are applied to
    `L` and `d` until the conditional variances are ordered. The loop
    runs on Python floats and lists: at these sizes (n of about 20)
    numpy's per-call overhead would cost more than the arithmetic.
    """
    n = len(d)
    Lr = L.tolist()                                   # rows of L
    dl = d.tolist()
    Zc = [[float(r == c) for r in range(n)] for c in range(n)]   # columns of Z
    j = n - 2
    k = n - 2
    while j >= 0:
        if j <= k:
            for i in range(j + 1, n):                 # integer Gauss step
                mu = round(Lr[i][j])
                if mu != 0:
                    for row in Lr[i:]:
                        row[j] -= mu * row[i]
                    Zc[j] = [zj - mu * zi for zj, zi in zip(Zc[j], Zc[i])]
        l10 = Lr[j + 1][j]
        delta = dl[j] + l10 ** 2 * dl[j + 1]
        if delta + 1e-6 < dl[j + 1]:                  # symmetric permutation
            eta = dl[j] / delta
            lam = dl[j + 1] * l10 / delta
            dl[j] = eta * dl[j + 1]
            dl[j + 1] = delta
            a0 = Lr[j][:j]
            a1 = Lr[j + 1][:j]
            Lr[j][:j] = [-l10 * x0 + x1 for x0, x1 in zip(a0, a1)]
            Lr[j + 1][:j] = [eta * x0 + lam * x1 for x0, x1 in zip(a0, a1)]
            Lr[j + 1][j] = lam
            for row in Lr[j + 2:]:
                row[j], row[j + 1] = row[j + 1], row[j]
            Zc[j], Zc[j + 1] = Zc[j + 1], Zc[j]
            k = j
            j = n - 2
        else:
            j -= 1
    L[:] = Lr
    d[:] = dl
    return np.array(Zc).T


def _search(L: np.ndarray, d: np.ndarray, zs: np.ndarray, m: int = 2,
            max_steps: int = SEARCH_STEPS) -> tuple[np.ndarray, np.ndarray]:
    """Depth-first shrinking-ellipsoid search for the m best candidates.

    Runs on Python floats and lists, like `_reduction`. Raises
    `SearchLimitExceeded` rather than return a partial candidate set
    when `max_steps` steps do not finish the search.
    """
    n = len(d)
    Lr = L.tolist()
    dl = d.tolist()
    zsl = zs.tolist()
    S = [[0.0] * n for _ in range(n)]
    dist = [0.0] * n
    zb = [0.0] * n
    z = [0.0] * n
    step = [0.0] * n
    zn = []                               # candidates, in order found
    s = []                                # their distances

    def sgn(x):
        return -1.0 if x <= 0.0 else 1.0

    maxdist = 1e18
    k = n - 1
    zb[k] = zsl[k]
    z[k] = float(round(zb[k]))
    y = zb[k] - z[k]
    step[k] = sgn(y)
    imax = 0
    for _ in range(max_steps):
        newdist = dist[k] + y * y / dl[k]
        if newdist < maxdist:
            if k != 0:
                k -= 1
                dist[k] = newdist
                c = z[k + 1] - zb[k + 1]
                S[k][: k + 1] = [sv + c * lv for sv, lv
                                 in zip(S[k + 1][: k + 1], Lr[k + 1])]
                zb[k] = zsl[k] + S[k][k]
                z[k] = float(round(zb[k]))
                y = zb[k] - z[k]
                step[k] = sgn(y)
            else:
                if len(s) < m:
                    if not s or newdist > s[imax]:
                        imax = len(s)
                    zn.append(z[:])
                    s.append(newdist)
                else:
                    if newdist < s[imax]:
                        zn[imax] = z[:]
                        s[imax] = newdist
                        imax = max(range(m), key=s.__getitem__)
                    maxdist = s[imax]
                z[0] += step[0]
                y = zb[0] - z[0]
                step[0] = -step[0] - sgn(step[0])
        else:
            if k == n - 1:
                break
            k += 1
            z[k] += step[k]
            y = zb[k] - z[k]
            step[k] = -step[k] - sgn(step[k])
    else:
        raise SearchLimitExceeded(
            f"integer search unfinished after {max_steps} steps")
    order = sorted(range(len(s)), key=s.__getitem__)
    return np.array([zn[i] for i in order]).T, np.array([s[i] for i in order])


def _original_integers(Z: np.ndarray, problem: AmbiguityProblem,
                       candidates: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """Map the candidates back through Z, checking the whole answer.

    Z must be an integer matrix with an integer inverse (|det Z| = 1),
    and each candidate's quadratic form in the original space must equal
    the distance the search reported; otherwise `AmbiguityCheckFailed`.
    """
    try:
        W = np.round(np.linalg.inv(Z))
    except np.linalg.LinAlgError:
        W = np.zeros_like(Z)
    if not (np.array_equal(Z, np.round(Z))
            and np.array_equal(Z @ W, np.eye(len(Z)))):
        raise AmbiguityCheckFailed("decorrelating transform is not unimodular")
    integers = W.T @ candidates                      # exact: integer products
    residual = problem.float_values[:, None] - integers
    q = np.einsum("ij,ij->j", residual,
                  np.linalg.solve(problem.covariance, residual))
    if np.any(np.abs(q - dists) > 1e-6 * np.maximum(dists, 1.0)):
        raise AmbiguityCheckFailed(
            f"candidate distances {q} in the original space, "
            f"{dists} reported by the search")
    return integers


def lambda_resolve(problem: AmbiguityProblem,
                   ratio_threshold: float = 3.0) -> tuple[np.ndarray, float, bool]:
    """Integer minimizer of (a - float)' Q^-1 (a - float) plus ratio test.

    Returns (integers, ratio, accepted) where ratio = q2/q1 of the two best
    candidates and accepted means ratio >= ratio_threshold. The
    decorrelation starts from `problem.basis` and leaves its final Z
    there. Raises `NotPositiveDefinite`, `SearchLimitExceeded` or
    `AmbiguityCheckFailed` instead of returning an unchecked answer.
    """
    a = problem.float_values
    n = a.size
    if n < 1:
        raise ValueError("empty ambiguity problem")
    start = np.eye(n) if problem.basis is None else problem.basis
    L, d = _ltdl(start.T @ problem.covariance @ start)
    Z = start @ _reduction(L, d)
    candidates, dists = _search(L, d, Z.T @ a, m=2)
    best = _original_integers(Z, problem, candidates, dists)[:, 0].astype(int)
    problem.basis = Z
    if len(dists) < 2:
        ratio = np.inf
    elif dists[0] < 1e-12:
        ratio = np.inf
    else:
        ratio = float(dists[1] / dists[0])
    return best, ratio, ratio >= ratio_threshold
