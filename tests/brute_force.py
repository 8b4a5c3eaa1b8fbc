"""Exhaustive integer search, the oracle of the LAMBDA tests."""

import numpy as np


def brute_force_minimizer(float_values, covariance, box=8):
    """The integer vector z within +-box of the rounded float a (per
    axis) that minimizes (z - a)^T W (z - a), W = inv(covariance), with
    its cost and the second smallest cost of the box.

    The costs are broadcast one axis at a time, never as a list of grid
    points. With d_j the offsets z_j - a_j along axis j, the cost is
    sum_j d_j (W_jj d_j + sum_{k<j} (W_jk + W_kj) d_k), the same sum as
    sum_jk d_j W_jk d_k; term j spans only axes 0..j, so only the last
    one fills the whole box."""
    n = len(float_values)
    center = np.round(float_values).astype(int)
    w = np.linalg.inv(covariance)
    both = w + w.T
    steps = np.arange(-box, box + 1)
    d = [(center[j] + steps - float_values[j]).reshape(
        (-1,) + (1,) * (n - 1 - j)) for j in range(n)]
    cost = sum(d[j] * (w[j, j] * d[j]
                       + sum(both[j, k] * d[k] for k in range(j)))
               for j in range(n))
    flat = cost.ravel()
    best = np.argmin(flat)
    lowest = flat[best]
    flat[best] = np.inf
    index = np.unravel_index(best, cost.shape)
    return center - box + np.array(index), lowest, flat.min()
