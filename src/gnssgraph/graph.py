"""Trajectory factor graph and Dogleg optimizer.

Each epoch contributes one node in SPP's layout (`pointpos.STATE_DIM`):
the 3D position offset from the reference (start) position plus one
absolute receiver clock in meters per CONSTELLATIONS slot. Velocity
factors chain consecutive nodes, time-relative baseline factors close
loops, and pseudorange factors anchor the absolute position and clocks.

The graph stores each factor type as one table of arrays, row k of
every array belonging to factor k, and the optimizer works on those
arrays themselves: the cost, the block normal equations and the
relinearization of moved pseudorange rows (in place) read the tables,
and `export_graph_json` writes them.

A node's clocks enter only its own rows, so each Gauss-Newton step
eliminates them node by node and solves the positions, which the
between factors tie within a band, by banded Cholesky.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass, field
from functools import cache
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)

import numpy as np

from .coords import line_of_sight
from .errors import EmptyInput, MissingVelocity, SingularNormalEquations
from .geometry import EpochGeometry
from .pointpos import (STATE_DIM, SolverConfig, SppSolution,
                       VelocitySolution, grouped_normals, pseudorange_rows,
                       pseudorange_variance, singular_pivots, solve_normals)
from .trrtk import TrRtkPairs

# priors, relinearization and Dogleg stopping rules
NODE0_PRIOR_SIGMA = 2.0        # first node's position [m]
CLOCK_PRIOR_SIGMA = 100.0      # unobserved clock slots [m]
RELINEARIZE_THRESHOLD = 10.0   # node motion that relinearizes its rows [m]
MAX_ITERATIONS = 100
COST_TOLERANCE = 1e-8          # relative cost change
GRADIENT_TOLERANCE = 1e-6      # infinity norm
INITIAL_RADIUS = 100.0         # trust region [m]


class _Table:
    """Factors of one type as equal-length arrays, `len` of them."""

    def __len__(self) -> int:
        return len(self.information)


@dataclass
class VelocityFactors(_Table):
    """Doppler velocity edges: node `nodes[k, 1]` = `nodes[k, 0]` + 1 lies
    `velocity[k] * dt[k]` from it."""

    nodes: np.ndarray                  # (v, 2)
    velocity: np.ndarray               # (v, 3) [m/s]
    dt: np.ndarray                     # (v,) [s]
    information: np.ndarray            # (v, 3, 3) [1/m^2]


@dataclass
class TrRtkFactors(_Table):
    """Loop closures: node `nodes[k, 1]` lies `baseline[k]` from node
    `nodes[k, 0]`, `time_difference[k]` later."""

    nodes: np.ndarray                  # (t, 2) past, current
    baseline: np.ndarray               # (t, 3) past -> current [m]
    time_difference: np.ndarray        # (t,) [s]
    information: np.ndarray            # (t, 3, 3) [1/m^2]


@dataclass
class PseudorangeFactors(_Table):
    """Pseudorange rows `row` . x[node] = `constant`, linearized at the
    position offset `lin_offset` from the corrected pseudorange
    `measured` (rho + c*dT_sat less the modeled atmosphere) of satellite
    `sat` at `sat_position`; `slot` is its constellation's clock column.
    The rows come in node order, which the optimizer's per-node Gram
    product needs."""

    node: np.ndarray                   # (p,)
    sat: np.ndarray                    # (p,) SatelliteId.key
    sat_position: np.ndarray           # (p, 3) [m]
    slot: np.ndarray                   # (p,) CONSTELLATION_INDEX
    measured: np.ndarray               # (p,) [m]
    row: np.ndarray                    # (p, 7) H
    constant: np.ndarray               # (p,) [m], consistent with `row`
    information: np.ndarray            # (p,) [1/m^2]
    lin_offset: np.ndarray             # (p, 3) [m]


@dataclass
class Priors(_Table):
    """Prior rows x[node, index] = value; the rows from `start[e]` to the
    next start form prior edge e, all on one node."""

    node: np.ndarray                   # (q,)
    index: np.ndarray                  # (q,) state component
    value: np.ndarray                  # (q,) [m]
    information: np.ndarray            # (q,) [1/m^2]
    start: np.ndarray                  # (e,) first row of each edge

    def __len__(self) -> int:
        return len(self.start)


@dataclass
class Graph:
    reference_position: np.ndarray
    initial_states: np.ndarray         # (n, 7)
    velocity_factors: VelocityFactors
    trrtk_factors: TrRtkFactors
    pseudorange_factors: PseudorangeFactors
    priors: Priors


@dataclass
class OptimizerReport:
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    costs: list = field(default_factory=list)   # accepted-iteration costs


def build_graph(geometry: EpochGeometry, velocities: VelocitySolution,
                spp: SppSolution, trrtk: TrRtkPairs,
                solver: SolverConfig | None = None,
                use_pseudorange: bool = True) -> Graph:
    """Assemble the trajectory graph, one node per epoch of the session
    geometry `geometry`, located as SPP located it last (`spp.geometry`),
    from the stage tables of the session.

    Rows k < n - 1 of `velocities` give the velocity factors between
    consecutive nodes, and the fixed rows of the pair table `trrtk` the
    loop closures. Node positions start at the epoch-0 point solution
    plus accumulated velocity increments, node clocks at the SPP clocks
    (`spp.clock`), and a prior holds each clock slot that none of its
    node's rows observes. The pseudorange factors are the geometry's
    `usable` rows at `solver`'s elevation mask, linearized
    (`pointpos.pseudorange_rows`) and corrected with its delay models
    where each epoch is located, and weighted as `solver` weights the
    point solutions; the earliest of its `range_faults` is raised.
    Without `use_pseudorange` there are none. The optimizer
    relinearizes a row once its node lies RELINEARIZE_THRESHOLD from
    that point.
    """
    solver = solver or SolverConfig()
    n = len(geometry.times)
    if n == 0:
        raise EmptyInput("no epochs")
    if len(velocities.velocity) < n - 1:
        raise MissingVelocity(
            f"{len(velocities.velocity)} velocity solutions for {n} epochs")

    dt = np.array([b - a for a, b in zip(geometry.times, geometry.times[1:])],
                  dtype=float)
    velocity = velocities.velocity[:n - 1]
    reference = spp.position[0]
    states = np.zeros((n, STATE_DIM))
    states[1:, :3] = np.cumsum(velocity * dt[:, None], axis=0)
    states[:, 3:] = spp.clock

    span = dt[:, None, None]
    cov = velocities.covariance[:n - 1] * span * span
    # V_k*dt is a left-endpoint rule; inflate by the acceleration term
    # it drops so corners do not bias the solution (each norm a dot
    # product, as np.linalg.norm takes one vector's)
    change = velocity[np.minimum(np.arange(1, n), n - 2)] - velocity
    disc = 0.5 * np.sqrt(change[:, None, :] @ change[:, :, None])[:, 0, 0] * dt
    cov = cov + (disc * disc)[:, None, None] * np.eye(3)
    velocity_factors = VelocityFactors(
        nodes=np.column_stack([np.arange(n - 1), np.arange(1, n)]),
        velocity=velocity, dt=dt, information=solve_normals(cov)[0])

    fixed = trrtk.fixed
    trrtk_factors = TrRtkFactors(
        nodes=trrtk.pairs[fixed], baseline=trrtk.baseline[fixed],
        time_difference=trrtk.time_difference[fixed],
        information=solve_normals(trrtk.covariance[fixed])[0])

    rows = geometry.usable(solver.elevation_mask) & use_pseudorange
    faults = geometry.range_faults(solver.elevation_mask)
    if faults and use_pseudorange:
        raise faults[min(faults)]
    node, slot = geometry.epoch[rows], geometry.slot[rows]
    offsets = (geometry.position - reference)[node]
    measured = geometry.corrected_code[rows]
    jacobian, constants = pseudorange_rows(
        geometry.unit[rows], geometry.range[rows], slot, measured, offsets)
    pseudorange_factors = PseudorangeFactors(
        node=node, sat=geometry.sats[rows],
        sat_position=geometry.sat_position[rows], slot=slot,
        measured=measured, row=jacobian, constant=constants,
        information=1.0 / pseudorange_variance(geometry.elevation[rows],
                                               config=solver),
        lin_offset=offsets)
    observed = np.zeros((n, 4), dtype=bool)
    observed[node, slot] = True

    # the first node's position, then per node its unobserved clock slots
    free_node, free_slot = np.nonzero(~observed)
    prior_node = np.concatenate([np.zeros(3, dtype=int), free_node])
    prior_index = np.concatenate([np.arange(3), 3 + free_slot])
    priors = Priors(
        node=prior_node, index=prior_index,
        value=states[prior_node, prior_index],
        information=np.concatenate([
            np.full(3, 1.0 / NODE0_PRIOR_SIGMA ** 2),
            np.full(len(free_node), 1.0 / CLOCK_PRIOR_SIGMA ** 2)]),
        start=np.concatenate([
            [0], 3 + np.flatnonzero(np.diff(free_node, prepend=-1))]))

    return Graph(reference, states, velocity_factors, trrtk_factors,
                 pseudorange_factors, priors)


def _residuals(graph: Graph, states: np.ndarray):
    """The between factors (velocity, then TR-RTK) as position changes:
    their nodes (b, 2) and information (b, 3, 3); then the residuals of
    the between, pseudorange and prior rows."""
    vel, tr = graph.velocity_factors, graph.trrtk_factors
    pr, priors = graph.pseudorange_factors, graph.priors
    nodes = np.concatenate([vel.nodes, tr.nodes])
    information = np.concatenate([vel.information, tr.information])
    measured = np.concatenate([vel.velocity * vel.dt[:, None], tr.baseline])
    between = (states[nodes[:, 1], :3] - states[nodes[:, 0], :3]) - measured
    pseudorange = (np.einsum("ij,ij->i", pr.row, states[pr.node])
                   - pr.constant)
    prior = states[priors.node, priors.index] - priors.value
    return nodes, information, between, pseudorange, prior


def evaluate_cost(graph: Graph, states) -> float:
    """Sum of e^T Omega e over all factors and priors."""
    _, information, between, pseudorange, prior = _residuals(
        graph, np.asarray(states))
    return float(
        np.einsum("ni,nij,nj->", between, information, between)
        + graph.pseudorange_factors.information @ (pseudorange * pseudorange)
        + graph.priors.information @ (prior * prior))


def _sums(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Per k in 0..n-1, the sum of the rows of `values` whose `index` is
    k, added in row order (floats, also of no rows)."""
    width = int(np.prod(values.shape[1:]))
    flat = (index[:, None] * width + np.arange(width)).ravel()
    return np.bincount(flat, values.ravel(), minlength=n * width).astype(
        float, copy=False).reshape((n,) + values.shape[1:])


def _normal_equations(graph: Graph, states: np.ndarray):
    """The Gauss-Newton normal equations N s = -g of the whitened
    factors at `states`: the gradient g (7n,), and N in blocks, per
    node the 7x7 block of its pseudorange and prior rows (n, 7, 7), then
    the between factors (velocity, then TR-RTK) as nodes (b, 2) and
    information (b, 3, 3), each adding Omega to its two nodes' position
    blocks and -Omega between them. A node's pseudorange block and
    gradient come from one padded Gram product, the other terms are
    summed in table order."""
    nodes, information, between, pseudorange, prior = _residuals(graph,
                                                                 states)
    pr, priors = graph.pseudorange_factors, graph.priors
    n = len(states)
    entry = STATE_DIM * priors.node + priors.index
    blocks, gradient = grouped_normals(pr.node, n, pr.row, pr.information,
                                       pseudorange)
    diagonal = np.arange(STATE_DIM)
    blocks[:, diagonal, diagonal] += _sums(
        entry, priors.information, states.size).reshape(n, STATE_DIM)
    gradient += _sums(entry, priors.information * prior,
                      states.size).reshape(n, STATE_DIM)
    pull = np.matmul(information, between[:, :, None])[:, :, 0]
    gradient[:, :3] += _sums(nodes[:, 1], pull, n) - _sums(nodes[:, 0], pull,
                                                           n)
    return gradient.ravel(), (blocks, nodes, information)


def _quadratic(system, v: np.ndarray) -> float:
    """v^T N v of the normal matrix N in blocks `system`, for v (7n,)."""
    blocks, nodes, information = system
    v = v.reshape(len(blocks), STATE_DIM)
    change = v[nodes[:, 1], :3] - v[nodes[:, 0], :3]
    return float(np.einsum("ki,kij,kj->", v, blocks, v)
                 + np.einsum("bi,bij,bj->", change, information, change))


def _position_band(reduced: np.ndarray, nodes: np.ndarray,
                   information: np.ndarray) -> np.ndarray:
    """The lower band (w + 1, 3n) of the position system whose 3x3
    diagonal blocks are `reduced` (n, 3, 3) and which has -Omega between
    the nodes of each between factor: entry (r, c), r >= c, in row
    r - c of column c, so w = 3 max|j - i| + 2. One bincount sums the
    entries, the between factors in table order."""
    n = len(reduced)
    gap = np.abs(nodes[:, 1] - nodes[:, 0])
    rows = 3 * gap.max(initial=0) + 3
    lower, upper = np.tril_indices(3)
    diagonal = (3 * np.arange(n)[:, None] + upper) * rows + lower - upper
    row, col = np.divmod(np.arange(9), 3)
    between = ((3 * nodes.min(axis=1)[:, None] + col) * rows
               + 3 * gap[:, None] + row - col)
    cells = np.bincount(
        np.concatenate([diagonal.ravel(), between.ravel()]),
        np.concatenate([reduced[:, lower, upper].ravel(),
                        -information.reshape(-1, 9).ravel()]),
        minlength=3 * n * rows)
    return cells.reshape(3 * n, rows).T


@cache
def _banded_cholesky():
    """LAPACK's banded Cholesky factor and solve, dpbtrf and dpbtrs, from
    scipy's compiled f2py module `scipy.linalg._flapack`, where
    `scipy.linalg.lapack` takes them from. Importing scipy.linalg loads
    some 300 modules and takes longer than a square takes to solve, so
    the module is loaded from its file, which runs no scipy package, and
    registered under its name: a later `import scipy.linalg` takes this
    module, and one it loaded first is taken here."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        directory = os.path.join(importlib.util.find_spec(
            "scipy").submodule_search_locations[0], "linalg")
        spec = FileFinder(directory, (ExtensionFileLoader,
                                      EXTENSION_SUFFIXES)).find_spec(name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.dpbtrf, module.dpbtrs


def _gauss_newton_step(system, gradient: np.ndarray) -> np.ndarray:
    """The step s (7n,) that solves N s = -g, for the normal matrix N in
    blocks `system` and the gradient g (7n,): each node's four clock
    states are eliminated by the Schur complement of its 4x4 clock block
    C, C^-1 [B^T, g_clock] solved by `pointpos.solve_normals`, the 3n
    positions are solved by LAPACK's banded Cholesky (`_banded_cholesky`,
    called as `scipy.linalg.cholesky_banded` and `cho_solve_banded` call
    it), and the clocks follow from them. A clock block or position
    system singular by `pointpos.singular_pivots` (a Cholesky pivot
    squared at most 1e-12 of its diagonal entry, or a refused factor)
    raises SingularNormalEquations."""
    blocks, nodes, information = system
    n = len(blocks)
    gradient = gradient.reshape(n, STATE_DIM)
    coupling, clock = blocks[:, :3, 3:], blocks[:, 3:, 3:]
    # per node C^-1 [B^T, g_clock], and B times it
    solved, singular = solve_normals(clock, np.concatenate(
        [coupling.transpose(0, 2, 1), gradient[:, 3:, None]], axis=2))
    if singular.any():
        raise SingularNormalEquations("a clock block is singular")
    cross = coupling @ solved
    reduced = (blocks[:, :3, :3] - cross[:, :, :3]
               + _sums(nodes[:, 0], information, n)
               + _sums(nodes[:, 1], information, n))
    rhs = cross[:, :, 3] - gradient[:, :3]
    # Fortran-ordered, so dpbtrf factors it in place
    band = _position_band(reduced, nodes, information)
    pbtrf, pbtrs = _banded_cholesky()
    diagonal = band[0].copy()
    band, info = pbtrf(band, lower=1, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"dpbtrf: illegal argument {-info}")
    if info > 0:
        band[0] = np.nan
    if singular_pivots(band[0], diagonal):
        raise SingularNormalEquations("the position system is singular")
    position, info = pbtrs(band, rhs.ravel(), lower=1)
    if info < 0:
        raise ValueError(f"dpbtrs: illegal argument {-info}")
    position = position.reshape(n, 3)
    clocks = -(solved[:, :, 3] + (solved[:, :, :3] @ position[:, :, None])[
        :, :, 0])
    return np.concatenate([position, clocks], axis=1).ravel()


def _moved_rows(graph: Graph, states: np.ndarray,
                threshold: float) -> np.ndarray:
    """The pseudorange rows whose node lies more than `threshold` from
    their linearization point."""
    pr = graph.pseudorange_factors
    return np.flatnonzero(np.linalg.norm(states[pr.node, :3] - pr.lin_offset,
                                         axis=1) > threshold)


def _relinearize(graph: Graph, states: np.ndarray, threshold: float) -> bool:
    """Relinearize in place the pseudorange rows whose node moved more
    than `threshold` from their linearization point; report whether any
    did."""
    pr = graph.pseudorange_factors
    moved = _moved_rows(graph, states, threshold)
    if len(moved) == 0:
        return False
    offsets = states[pr.node[moved], :3]
    unit, ranges = line_of_sight(graph.reference_position + offsets,
                                 pr.sat_position[moved])
    pr.row[moved], pr.constant[moved] = pseudorange_rows(
        unit, ranges, pr.slot[moved], pr.measured[moved], offsets)
    pr.lin_offset[moved] = offsets
    return True


def optimize(graph: Graph):
    """Powell's Dogleg trust region on the block normal equations.

    Returns (states, OptimizerReport); states is an (n, 7) array.
    Deterministic: fixed factor order; each Gauss-Newton step eliminates
    every node's clocks and solves the positions by banded Cholesky
    (`_gauss_newton_step`), and the steepest-descent scale and predicted
    reduction take N's quadratic form from the same blocks.
    """
    states = graph.initial_states.copy()
    cost = evaluate_cost(graph, states)
    report = OptimizerReport(initial_cost=cost, final_cost=cost,
                             iterations=0, converged=False, costs=[cost])
    radius = INITIAL_RADIUS

    for iteration in range(1, MAX_ITERATIONS + 1):
        gradient, system = _normal_equations(graph, states)
        if np.linalg.norm(gradient, np.inf) < GRADIENT_TOLERANCE:
            report.converged = True
            break

        gn_step = _gauss_newton_step(system, gradient)
        if not np.all(np.isfinite(gn_step)):
            raise SingularNormalEquations("non-finite Gauss-Newton step")

        sd_scale = (gradient @ gradient) / _quadratic(system, gradient)
        sd_step = -sd_scale * gradient

        # a step that relinearizes no row lands where the quadratic model
        # is the cost itself: widen the radius to try it whole
        if not _moved_rows(graph, states + gn_step.reshape(states.shape),
                           RELINEARIZE_THRESHOLD).size:
            radius = max(radius, np.linalg.norm(gn_step))
        accepted = False
        while radius > 1e-12:
            step = _dogleg_step(gn_step, sd_step, radius)
            trial = states + step.reshape(states.shape)
            new_cost = evaluate_cost(graph, trial)
            # predicted reduction of the quadratic model
            predicted = -(2.0 * gradient @ step + _quadratic(system, step))
            gain = (cost - new_cost) / predicted if predicted > 0 else -1.0
            if new_cost <= cost and gain > 0:
                states = trial
                previous = cost
                cost = new_cost
                report.costs.append(cost)
                if gain > 0.75:
                    radius = min(max(radius, 2.0 * np.linalg.norm(step)), 1e7)
                accepted = True
                break
            radius *= 0.25
        report.iterations = iteration
        if not accepted:
            break
        converged = (previous > 0
                     and (previous - cost) / max(previous, 1e-30)
                     < COST_TOLERANCE)
        if _relinearize(graph, states, RELINEARIZE_THRESHOLD):
            cost = evaluate_cost(graph, states)
        if converged:
            report.converged = True
            break

    report.final_cost = cost
    return states, report


def _dogleg_step(gn_step: np.ndarray, sd_step: np.ndarray,
                 radius: float) -> np.ndarray:
    """Classic dogleg path: GN inside the region, else blend with descent."""
    if np.linalg.norm(gn_step) <= radius:
        return gn_step
    norm_sd = np.linalg.norm(sd_step)
    if norm_sd >= radius:
        return sd_step * (radius / norm_sd)
    diff = gn_step - sd_step
    a = diff @ diff
    b = 2.0 * sd_step @ diff
    c = sd_step @ sd_step - radius * radius
    beta = (-b + np.sqrt(b * b - 4 * a * c)) / (2 * a)
    return sd_step + beta * diff
