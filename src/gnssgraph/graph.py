"""Trajectory factor graph and sparse Dogleg optimizer.

Each epoch contributes one 7-dimensional node: the 3D position offset
from the reference (start) position plus four receiver clock terms in
meters -- the GPS clock and three inter-system biases. Velocity factors
chain consecutive nodes, time-relative baseline factors close loops,
and pseudorange factors anchor the absolute position and clocks.

The graph stores each factor type as one table of arrays, row k of
every array belonging to factor k, and the optimizer works on those
arrays themselves: the cost, the whitened system and the
relinearization of moved pseudorange rows (in place) read the tables,
and `export_graph_json` writes them. `table[k]` is a view of factor k,
which the per-factor `residual_*` reference functions take.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coords import lines_of_sight
from .errors import EmptyInput, MissingVelocity, SingularNormalEquations
from .geometry import EpochGeometry
from .pointpos import (SolverConfig, SppSolution, VelocitySolution,
                       pseudorange_variance)
from .trrtk import TrRtkPairs

STATE_DIM = 7

# priors, relinearization and Dogleg stopping rules
NODE0_PRIOR_SIGMA = 2.0        # first node's position [m]
CLOCK_PRIOR_SIGMA = 100.0      # unobserved clock slots [m]
RELINEARIZE_THRESHOLD = 10.0   # node motion that relinearizes its rows [m]
MAX_ITERATIONS = 100
COST_TOLERANCE = 1e-8          # relative cost change
GRADIENT_TOLERANCE = 1e-6      # infinity norm
INITIAL_RADIUS = 100.0         # trust region [m]


class _Table:
    """Factors of one type as equal-length arrays: `len` is the factor
    count, and `table[k]` a view whose attributes are row k of each
    (iterating a table visits the views in order)."""

    def __len__(self) -> int:
        return len(self.information)

    def __getitem__(self, k: int) -> SimpleNamespace:
        return SimpleNamespace(**{f.name: getattr(self, f.name)[k]
                                  for f in fields(self)})


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
    `sat` at `sat_position`; `slot` is its constellation's clock column."""

    node: np.ndarray                   # (p,)
    sat: np.ndarray                    # (p,) SatelliteId.key
    sat_position: np.ndarray           # (p, 3) [m]
    slot: np.ndarray                   # (p,) CONSTELLATION_INDEX
    measured: np.ndarray               # (p,) [m]
    row: np.ndarray                    # (p, 7) H
    constant: np.ndarray               # (p,) [m], consistent with `row`
    information: np.ndarray            # (p,) [1/m^2]
    lin_offset: np.ndarray             # (p, 3) [m]

    @classmethod
    def empty(cls) -> "PseudorangeFactors":
        return cls(node=np.zeros(0, dtype=int), sat=np.zeros(0, dtype=int),
                   sat_position=np.zeros((0, 3)), slot=np.zeros(0, dtype=int),
                   measured=np.zeros(0), row=np.zeros((0, STATE_DIM)),
                   constant=np.zeros(0), information=np.zeros(0),
                   lin_offset=np.zeros((0, 3)))


@dataclass
class Priors(_Table):
    """Prior rows x[node, index] = value; the rows from `start[e]` to the
    next start form prior edge e, whose view has arrays for all but
    `node`."""

    node: np.ndarray                   # (q,)
    index: np.ndarray                  # (q,) state component
    value: np.ndarray                  # (q,) [m]
    information: np.ndarray            # (q,) [1/m^2]
    start: np.ndarray                  # (e,) first row of each edge

    def __len__(self) -> int:
        return len(self.start)

    def __getitem__(self, e: int) -> SimpleNamespace:
        end = self.start[e + 1] if e + 1 < len(self.start) else len(self.node)
        rows = slice(self.start[e], end)
        return SimpleNamespace(node=self.node[rows.start],
                               index=self.index[rows],
                               value=self.value[rows],
                               information=self.information[rows])


def _linearization(unit, ranges, slots, measured, offsets):
    """Rows H and constants of pseudorange factors linearized at the
    position offsets `offsets` (one row each), where the satellites have
    unit vectors `unit`, ranges `ranges`, constellation slots `slots`
    and corrected pseudoranges `measured`."""
    rows = np.zeros((len(unit), STATE_DIM))
    rows[:, :3] = -unit
    rows[:, 3] = 1.0                   # GPS clock
    rows[np.arange(len(unit)), 3 + slots] = 1.0    # inter-system bias
    constants = measured - ranges - np.einsum("ij,ij->i", unit, offsets)
    return rows, constants


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
    """Assemble the trajectory graph, one node per epoch of the unlocated
    session geometry `geometry`, from the stage tables of the session.

    Rows k < n - 1 of `velocities` give the velocity factors between
    consecutive nodes, and the fixed rows of the pair table `trrtk` the
    loop closures. Node positions start at the epoch-0 point solution
    plus accumulated velocity increments, node clocks at the SPP clocks
    (GPS, then each observed system's bias to it). The geometry is
    located once at the node positions for the pseudorange factors,
    which are corrected with its delay models and weighted, above its
    elevation mask, as `solver` weights the point solutions; without
    `use_pseudorange` there are none.
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
    states[:, 3:] = np.where(spp.used > 0, spp.clock - spp.clock[:, :1], 0.0)
    states[:, 3] = spp.clock[:, 0]

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
        velocity=velocity, dt=dt, information=np.linalg.inv(cov))

    fixed = trrtk.fixed
    trrtk_factors = TrRtkFactors(
        nodes=trrtk.pairs[fixed], baseline=trrtk.baseline[fixed],
        time_difference=trrtk.time_difference[fixed],
        information=np.linalg.inv(trrtk.covariance[fixed]))

    observed = np.zeros((n, 4), dtype=bool)
    pseudorange_factors = PseudorangeFactors.empty()
    if use_pseudorange:
        located = geometry.at(reference + states[:, :3])
        rows = located.above(solver.elevation_mask)
        failed = located.failures(rows, (located.require_delays,
                                         located.require_ranges))
        if failed:
            raise failed[min(failed)]
        node, slot = geometry.epoch[rows], geometry.slot[rows]
        offsets = states[node, :3]
        measured = located.corrected_code[rows]
        jacobian, constants = _linearization(
            located.unit[rows], located.range[rows], slot, measured, offsets)
        pseudorange_factors = PseudorangeFactors(
            node=node, sat=geometry.sats[rows],
            sat_position=geometry.sat_position[rows], slot=slot,
            measured=measured, row=jacobian, constant=constants,
            information=1.0 / pseudorange_variance(located.elevation[rows],
                                                   config=solver),
            lin_offset=offsets)
        observed[node, 0] = True
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


def residual_velocity(f, xi, xj) -> np.ndarray:
    xi = np.asarray(xi)
    xj = np.asarray(xj)
    return (xj[:3] - xi[:3]) - f.velocity * f.dt


def residual_trrtk(f, x_past, x_cur) -> np.ndarray:
    x_past = np.asarray(x_past)
    x_cur = np.asarray(x_cur)
    return (x_cur[:3] - x_past[:3]) - f.baseline


def residual_pseudorange(f, x) -> float:
    return float(f.row @ np.asarray(x) - f.constant)


def residual_prior(f, x) -> np.ndarray:
    return np.asarray(x)[f.index] - f.value


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


def _whitened_system(graph: Graph, states: np.ndarray):
    """Whitened residual vector and sparse Jacobian of the full problem.

    Rows come in the order of the factor tables: three per between
    factor (velocity, then TR-RTK), one per pseudorange factor, one per
    prior row.
    """
    nodes, information, between, pseudorange, prior = _residuals(graph,
                                                                 states)
    pr, priors = graph.pseudorange_factors, graph.priors
    sqrt = np.linalg.cholesky(information).transpose(0, 2, 1)
    n_between, n_pr = len(between), len(pseudorange)
    w_pr = np.sqrt(pr.information)
    w_prior = np.sqrt(priors.information)
    residual = np.concatenate([
        np.matmul(sqrt, between[:, :, None])[:, :, 0].ravel(),
        w_pr * pseudorange, w_prior * prior])

    # between block: -sqrt on the first node's position, +sqrt on the
    # second's, entry [f, r, c] in row 3f + r and column 7 node + c
    row_b = np.broadcast_to(np.arange(3 * n_between).reshape(-1, 3, 1),
                            sqrt.shape)
    col_b = STATE_DIM * nodes[:, :, None, None] + np.arange(3)
    col_b = np.broadcast_to(col_b, (n_between, 2, 3, 3))
    pr_base = 3 * n_between
    row_pr = np.broadcast_to(pr_base + np.arange(n_pr)[:, None],
                             pr.row.shape)
    col_pr = STATE_DIM * pr.node[:, None] + np.arange(STATE_DIM)
    prior_base = pr_base + n_pr
    rows = np.concatenate([row_b.ravel(), row_b.ravel(), row_pr.ravel(),
                           prior_base + np.arange(len(prior))])
    cols = np.concatenate([
        col_b[:, 0].ravel(), col_b[:, 1].ravel(), col_pr.ravel(),
        STATE_DIM * priors.node + priors.index])
    data = np.concatenate([-sqrt.ravel(), sqrt.ravel(),
                           (w_pr[:, None] * pr.row).ravel(), w_prior])
    keep = data != 0.0
    jacobian = sp.csr_matrix(
        (data[keep], (rows[keep], cols[keep])),
        shape=(len(residual), states.size))
    return residual, jacobian


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
    unit, ranges = lines_of_sight(graph.reference_position + offsets,
                                  pr.sat_position[moved])
    pr.row[moved], pr.constant[moved] = _linearization(
        unit, ranges, pr.slot[moved], pr.measured[moved], offsets)
    pr.lin_offset[moved] = offsets
    return True


def optimize(graph: Graph):
    """Powell's Dogleg trust region on the sparse whitened normal equations.

    Returns (states, OptimizerReport); states is an (n, 7) array.
    Deterministic: fixed factor order, direct sparse solve.
    """
    states = graph.initial_states.copy()
    cost = evaluate_cost(graph, states)
    report = OptimizerReport(initial_cost=cost, final_cost=cost,
                             iterations=0, converged=False, costs=[cost])
    radius = INITIAL_RADIUS

    for iteration in range(1, MAX_ITERATIONS + 1):
        residual, jacobian = _whitened_system(graph, states)
        gradient = jacobian.T @ residual
        if np.linalg.norm(gradient, np.inf) < GRADIENT_TOLERANCE:
            report.converged = True
            break

        normal = (jacobian.T @ jacobian).tocsc()
        try:
            gn_step = spla.spsolve(normal, -gradient)
        except Exception as exc:
            raise SingularNormalEquations(str(exc)) from exc
        if not np.all(np.isfinite(gn_step)):
            raise SingularNormalEquations("non-finite Gauss-Newton step")

        jg = jacobian @ gradient
        sd_scale = (gradient @ gradient) / (jg @ jg)
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
            predicted = -(2.0 * residual @ (jacobian @ step)
                          + step @ (normal @ step))
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
