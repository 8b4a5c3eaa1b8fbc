"""Brute-force oracles: an exhaustive integer search for the LAMBDA
tests, a dense solve of one TR-RTK pair for the kernel's tests, the
dense normal equations of a factor graph for the optimizer's tests and
the loop-closure lattice one epoch at a time."""

from bisect import bisect_left

import numpy as np
from scipy.stats import chi2

from gnssgraph.coords import line_of_sight
from gnssgraph.graph import STATE_DIM


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


def dense_pair_solve(s, located, past, current, dds, config, iterate=True):
    """One TR-RTK pair of the session arrays `s` solved the long way: the
    double differences `dds`, (satellite column, reference column) pairs,
    formed from the raw arrays, their covariance D Sigma D^T from the
    per-satellite variances and the differencing matrix D, and
    Gauss-Newton on [baseline, anchor error] with np.linalg.solve on that
    dense matrix. Each linearization takes its lines of sight from the
    satellite positions of `located`, the geometry `s` was scattered
    from, at the receiver positions of `s` moved by the estimate. It
    iterates until a baseline step below 1 um, or with `iterate` False
    stops after the first step, linearized where `s` is. Returns the
    baseline, and at the last linearization its covariance, the weighted
    sum of the residuals left by the last step and their chi-squared
    p-value on 3m - 3 degrees of freedom, from scipy."""
    sat = np.array([k for k, _ in dds])
    ref = np.array([r for _, r in dds])
    used = np.unique(np.concatenate([sat, ref]))
    # one column per undifferenced satellite: +1 its DDs, -1 its reference's
    diff = (sat[:, None] == used).astype(float) - (ref[:, None] == used)
    sin_p, sin_c = (np.sin(s.elevation[e, used]) for e in (past, current))
    variances = [config.phase_sigma ** 2 * (sin_p ** -2 + sin_c ** -2),
                 config.code_sigma ** 2 * sin_p ** -2,
                 config.code_sigma ** 2 * sin_c ** -2]
    m = len(dds)
    cov = np.zeros((3 * m, 3 * m))
    for k, variance in enumerate(variances):
        cov[k * m:(k + 1) * m, k * m:(k + 1) * m] = (diff * variance) @ diff.T
    phase = (s.wavelength[current, used]
             * (s.phase[current, used] - s.phase[past, used])
             + s.iono[current, used] - s.iono[past, used]
             - s.tropo[current, used] + s.tropo[past, used])
    observed = np.concatenate([diff @ phase, diff @ s.code[past, used],
                               diff @ s.code[current, used]])
    prior = np.eye(3) / config.position_prior_sigma ** 2

    def sat_positions(epoch):
        """The positions in `located` of the satellites `used` at `epoch`."""
        rows = np.arange(located.start[epoch], located.start[epoch + 1])
        keys = located.sats[rows].tolist()
        return located.sat_position[[rows[keys.index(s.sats[k].key)]
                                     for k in used]]

    sats = {epoch: sat_positions(epoch) for epoch in (past, current)}
    start = s.receiver[current] - s.receiver[past]

    def model(x):
        """DD ranges and their gradients (m, 3) at the past and at the
        current receiver position."""
        out = []
        for epoch, position in ((past, s.receiver[past] + x[3:]),
                                (current,
                                 s.receiver[current] + x[3:] + x[:3] - start)):
            unit, ranges = line_of_sight(position, sats[epoch])
            out += [diff @ ranges, -(diff @ unit)]
        return out

    x = np.concatenate([start, np.zeros(3)])
    for _ in range(10 if iterate else 1):
        g_past, d_past, g_cur, d_cur = model(x)
        zero = np.zeros_like(d_past)
        jac = np.block([[d_cur, d_cur - d_past], [zero, d_past],
                        [d_cur, d_cur]])
        residual = observed - np.concatenate([g_cur - g_past, g_past, g_cur])
        normal = jac.T @ np.linalg.solve(cov, jac)
        normal[3:, 3:] += prior
        rhs = jac.T @ np.linalg.solve(cov, residual)
        rhs[3:] -= prior @ x[3:]
        step = np.linalg.solve(normal, rhs)
        x += step
        if np.linalg.norm(step[:3]) < 1e-6:
            break
    # the linearized residuals after the last step
    residual -= jac @ step
    omega = (residual @ np.linalg.solve(cov, residual)
             + x[3:] @ prior @ x[3:])
    return (x[:3], np.linalg.inv(normal)[:3, :3], omega,
            chi2.sf(omega, 3 * m - 3))


def lattice_pairs_loop(times, offsets, interval):
    """The loop-closure lattice of `pipeline.lattice_pairs` one current
    epoch at a time: per offset a bisection for the epoch nearest
    round(offset / interval) steps before, kept if within interval/2 and
    not found by an earlier offset of the same epoch."""
    seconds = [t - times[0] for t in times]
    pairs = []
    for j, now in enumerate(seconds):
        found = set()
        for offset in offsets:
            target = now - round(offset / interval) * interval
            i = bisect_left(seconds, target - interval / 2, 0, j)
            if (i < j and abs(seconds[i] - target) <= interval / 2
                    and i not in found):
                found.add(i)
                pairs.append((i, j))
    return pairs


def dense_normal_equations(graph, states):
    """The full normal matrix N (7n, 7n), gradient g (7n,) and cost of
    `graph` at `states` (n, 7), summed one factor at a time, each
    residual formed here from row k of its table: a factor with residual
    e, information Omega and Jacobian blocks J_a on its nodes a adds
    J_a^T Omega J_b to block (a, b) of N, J_a^T Omega e to block a of g
    and e^T Omega e to the cost."""
    size = states.size
    normal = np.zeros((size, size))
    gradient = np.zeros(size)
    cost = 0.0

    def add(blocks, e, info):
        nonlocal cost
        for a, jac_a in blocks:
            gradient[STATE_DIM * a:STATE_DIM * (a + 1)] += jac_a.T @ info @ e
            for b, jac_b in blocks:
                normal[STATE_DIM * a:STATE_DIM * (a + 1),
                       STATE_DIM * b:STATE_DIM * (b + 1)] += (
                    jac_a.T @ info @ jac_b)
        cost += e @ info @ e

    pos = np.zeros((3, STATE_DIM))
    pos[:, :3] = np.eye(3)
    vel = graph.velocity_factors
    for k, (i, j) in enumerate(vel.nodes):
        e = (states[j, :3] - states[i, :3]) - vel.velocity[k] * vel.dt[k]
        add([(i, -pos), (j, pos)], e, vel.information[k])
    tr = graph.trrtk_factors
    for k, (i, j) in enumerate(tr.nodes):
        e = (states[j, :3] - states[i, :3]) - tr.baseline[k]
        add([(i, -pos), (j, pos)], e, tr.information[k])
    pr = graph.pseudorange_factors
    for k, node in enumerate(pr.node):
        e = pr.row[k] @ states[node] - pr.constant[k]
        add([(node, pr.row[k][None, :])], np.array([e]),
            np.array([[pr.information[k]]]))
    priors = graph.priors
    for rows in np.split(np.arange(len(priors.node)), priors.start[1:]):
        node, index = priors.node[rows[0]], priors.index[rows]
        assert (priors.node[rows] == node).all()
        sel = np.zeros((len(rows), STATE_DIM))
        sel[np.arange(len(rows)), index] = 1.0
        add([(node, sel)], states[node, index] - priors.value[rows],
            np.diag(priors.information[rows]))
    return normal, gradient, cost


def dense_gauss_newton_step(graph, states):
    """The Gauss-Newton step (7n,) of `graph` at `states`: the dense
    normal equations N s = -g solved by np.linalg.solve."""
    normal, gradient, _ = dense_normal_equations(graph, states)
    return np.linalg.solve(normal, -gradient)
