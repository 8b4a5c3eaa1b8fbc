"""Trajectory factor graph and sparse Dogleg optimizer.

Each epoch contributes one 7-dimensional node: the 3D position offset
from the reference (start) position plus four receiver clock terms in
meters -- the GPS clock and three inter-system biases. Velocity factors
chain consecutive nodes, time-relative baseline factors close loops,
and pseudorange factors anchor the absolute position and clocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .atmosphere import KlobucharParams, TropoModel
from .coords import lines_of_sight
from .errors import EmptyInput, MissingVelocity, SingularNormalEquations
from .geometry import EpochGeometry
from .pointpos import SolverConfig, pseudorange_variance
from .trrtk import BaselineStatus
from .types import CONSTELLATION_INDEX, Constellation

STATE_DIM = 7


@dataclass
class VelocityFactor:
    node_i: int
    node_j: int                        # j = i + 1
    measured_velocity: np.ndarray      # [m/s]
    dt: float                          # [s]
    information: np.ndarray            # 3x3 [1/m^2]


@dataclass
class TrRtkFactor:
    node_past: int
    node_current: int
    baseline: np.ndarray               # past -> current [m]
    information: np.ndarray            # 3x3
    time_difference: float             # [s]


@dataclass
class PseudorangeFactor:
    """Linearized pseudorange row; relinearizable around a new offset."""

    node: int
    sat: object
    row: np.ndarray                    # 7-vector H
    corrected_measurement: float       # [m], consistent with `row`
    information: float                 # scalar 1/m^2
    sat_state: object = None
    measured_corr: float = 0.0         # rho + c*dT_sat - iono - tropo
    lin_offset: np.ndarray | None = None

    def relinearize(self, offset: np.ndarray, reference: np.ndarray) -> None:
        """Rebuild the row and constant around a new position offset."""
        _relinearize_factors([self], np.array(offset, dtype=float)[None],
                             reference)


def _linearization(unit, ranges, slots, measured, offsets):
    """Rows H and constants of pseudorange factors linearized at the
    position offsets `offsets` (one row each), where the satellites have
    unit vectors `unit`, ranges `ranges`, constellation slots `slots`
    and corrected pseudoranges `measured` (`measured_corr`)."""
    rows = np.zeros((len(unit), STATE_DIM))
    rows[:, :3] = -unit
    rows[:, 3] = 1.0                   # GPS clock
    rows[np.arange(len(unit)), 3 + slots] = 1.0    # inter-system bias
    constants = measured - ranges - np.einsum("ij,ij->i", unit, offsets)
    return rows, constants


def _relinearize_factors(factors: list, offsets: np.ndarray,
                         reference: np.ndarray) -> None:
    """Relinearize pseudorange factors, each at its row of `offsets`."""
    unit, ranges = lines_of_sight(
        reference + offsets,
        np.array([f.sat_state.position for f in factors]))
    rows, constants = _linearization(
        unit, ranges,
        np.array([CONSTELLATION_INDEX[f.sat.constellation] for f in factors]),
        np.array([f.measured_corr for f in factors]), offsets)
    for f, row, constant, offset in zip(factors, rows, constants.tolist(),
                                        offsets):
        f.row = row
        f.corrected_measurement = constant
        f.lin_offset = offset


@dataclass
class PriorFactor:
    node: int
    indices: np.ndarray                # state components constrained
    values: np.ndarray                 # [m]
    information: np.ndarray            # diagonal entries [1/m^2]


@dataclass
class Graph:
    reference_position: np.ndarray
    initial_states: np.ndarray         # (n, 7)
    velocity_factors: list
    trrtk_factors: list
    pseudorange_factors: list
    priors: list


@dataclass
class OptimizerReport:
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    costs: list = field(default_factory=list)   # accepted-iteration costs


@dataclass
class GraphConfig:
    use_pseudorange: bool = True
    node0_prior_sigma: float = 2.0     # [m]
    clock_prior_sigma: float = 100.0   # [m]
    relinearize_threshold: float = 10.0  # [m]
    max_iterations: int = 100
    cost_tolerance: float = 1e-8       # relative cost change
    gradient_tolerance: float = 1e-6   # infinity norm
    initial_radius: float = 100.0      # trust region [m]


def build_graph(epochs, sat_states, velocities, spp_solutions, trrtk_results,
                iono: KlobucharParams | None = None,
                tropo: TropoModel | None = None,
                solver: SolverConfig | None = None,
                config: GraphConfig | None = None) -> Graph:
    """Assemble the trajectory graph.

    `velocities` holds one VelocitySolution per consecutive pair,
    `trrtk_results` holds (past_index, current_index, TrRtkResult)
    triples; only Fixed results become factors. Node positions start at
    the epoch-0 point solution plus accumulated velocity increments.
    Pseudorange factors are corrected with the delay models `iono` and
    `tropo` and weighted, above its elevation mask, as `solver` weights
    the point solutions.
    """
    solver = solver or SolverConfig()
    config = config or GraphConfig()
    n = len(epochs)
    if n == 0:
        raise EmptyInput("no epochs")
    if len(velocities) < n - 1:
        raise MissingVelocity(
            f"{len(velocities)} velocity solutions for {n} epochs")

    reference = np.asarray(spp_solutions[0].position, dtype=float)
    states = np.zeros((n, STATE_DIM))
    for k in range(1, n):
        dt = epochs[k].time - epochs[k - 1].time
        states[k, :3] = states[k - 1, :3] + velocities[k - 1].velocity * dt
    for k, spp in enumerate(spp_solutions):
        biases = spp.clock_biases
        gps = biases.get(Constellation.GPS, 0.0)
        states[k, 3] = gps
        for const, bias in biases.items():
            slot = CONSTELLATION_INDEX[const]
            if slot:
                states[k, 3 + slot] = bias - gps

    velocity_factors = []
    for k in range(n - 1):
        dt = epochs[k + 1].time - epochs[k].time
        cov = velocities[k].covariance * dt * dt
        # V_k*dt is a left-endpoint rule; inflate by the acceleration term
        # it drops so corners do not bias the solution
        nxt = velocities[min(k + 1, n - 2)].velocity
        disc = 0.5 * np.linalg.norm(nxt - velocities[k].velocity) * dt
        cov = cov + disc * disc * np.eye(3)
        velocity_factors.append(VelocityFactor(
            k, k + 1, velocities[k].velocity.copy(), dt, np.linalg.inv(cov)))

    trrtk_factors = []
    for past, current, result in trrtk_results:
        if result.status is not BaselineStatus.FIXED:
            continue
        trrtk_factors.append(TrRtkFactor(
            past, current, result.baseline.copy(),
            np.linalg.inv(result.covariance), result.time_difference))

    pseudorange_factors = []
    observed = np.zeros((n, 4), dtype=bool)
    if config.use_pseudorange:
        for k, epoch in enumerate(epochs):
            offset = states[k, :3]
            geometry = EpochGeometry(epoch, sat_states[k], iono,
                                     tropo).at(reference + offset)
            rows = geometry.above(solver.elevation_mask)
            geometry.require_delays(rows)
            geometry.require_ranges(rows)
            information = 1.0 / pseudorange_variance(
                geometry.elevation[rows], config=solver)
            measured = geometry.corrected_code[rows]
            offsets = np.tile(offset, (len(rows), 1))
            jac_rows, constants = _linearization(
                geometry.unit[rows], geometry.range[rows],
                geometry.slot[rows], measured, offsets)
            pseudorange_factors += [
                PseudorangeFactor(
                    node=k, sat=geometry.sats[r], row=row,
                    corrected_measurement=constant, information=info,
                    sat_state=geometry.states[r], measured_corr=corr,
                    lin_offset=lin)
                for r, row, constant, info, corr, lin in zip(
                    rows.tolist(), jac_rows, constants.tolist(),
                    information.tolist(), measured.tolist(), offsets)]
            observed[k, 0] = len(rows) > 0
            observed[k, geometry.slot[rows]] = True

    priors = [PriorFactor(
        node=0, indices=np.arange(3), values=states[0, :3].copy(),
        information=np.full(3, 1.0 / config.node0_prior_sigma ** 2))]
    info_clock = 1.0 / config.clock_prior_sigma ** 2
    for k in range(n):
        free = [3 + slot for slot in range(4) if not observed[k, slot]]
        if free:
            priors.append(PriorFactor(
                node=k, indices=np.array(free),
                values=states[k, free].copy(),
                information=np.full(len(free), info_clock)))

    return Graph(reference, states, velocity_factors, trrtk_factors,
                 pseudorange_factors, priors)


def residual_velocity(f: VelocityFactor, xi, xj) -> np.ndarray:
    xi = np.asarray(xi)
    xj = np.asarray(xj)
    return (xj[:3] - xi[:3]) - f.measured_velocity * f.dt


def residual_trrtk(f: TrRtkFactor, x_past, x_cur) -> np.ndarray:
    x_past = np.asarray(x_past)
    x_cur = np.asarray(x_cur)
    return (x_cur[:3] - x_past[:3]) - f.baseline


def residual_pseudorange(f: PseudorangeFactor, x) -> float:
    return float(f.row @ np.asarray(x) - f.corrected_measurement)


def residual_prior(f: PriorFactor, x) -> np.ndarray:
    return np.asarray(x)[f.indices] - f.values


@dataclass(frozen=True)
class _Stacked:
    """A graph's factors as arrays, in the order of its factor lists.

    Velocity and TR-RTK factors have one form, "between" factors: the
    position change from node `between_nodes[:, 0]` to node
    `between_nodes[:, 1]` minus `between_measured`, with information
    `between_information` = `between_sqrt`^T `between_sqrt`. Pseudorange
    factors are rows `pr_row` with constants `pr_constant`. Priors have
    one row per constrained state component.
    """

    between_nodes: np.ndarray          # (b, 2)
    between_measured: np.ndarray       # (b, 3) [m]
    between_information: np.ndarray    # (b, 3, 3)
    between_sqrt: np.ndarray           # (b, 3, 3) upper triangular
    pr_node: np.ndarray                # (p,)
    pr_row: np.ndarray                 # (p, 7)
    pr_constant: np.ndarray            # (p,) [m]
    pr_information: np.ndarray         # (p,)
    pr_lin_offset: np.ndarray          # (p, 3) [m]
    prior_node: np.ndarray             # (q,)
    prior_index: np.ndarray            # (q,) state component
    prior_value: np.ndarray            # (q,)
    prior_information: np.ndarray      # (q,)


def _stack(graph: Graph) -> _Stacked:
    """Stack the graph's factor lists as they are now."""
    vel, tr = graph.velocity_factors, graph.trrtk_factors
    prs, priors = graph.pseudorange_factors, graph.priors
    information = np.array([f.information for f in vel]
                           + [f.information for f in tr],
                           dtype=float).reshape(-1, 3, 3)
    return _Stacked(
        between_nodes=np.array([(f.node_i, f.node_j) for f in vel]
                               + [(f.node_past, f.node_current) for f in tr],
                               dtype=int).reshape(-1, 2),
        between_measured=np.array([f.measured_velocity * f.dt for f in vel]
                                  + [f.baseline for f in tr],
                                  dtype=float).reshape(-1, 3),
        between_information=information,
        between_sqrt=np.linalg.cholesky(information).transpose(0, 2, 1),
        pr_node=np.array([f.node for f in prs], dtype=int),
        pr_row=np.array([f.row for f in prs],
                        dtype=float).reshape(-1, STATE_DIM),
        pr_constant=np.array([f.corrected_measurement for f in prs],
                             dtype=float),
        pr_information=np.array([f.information for f in prs], dtype=float),
        pr_lin_offset=np.array([f.lin_offset for f in prs],
                               dtype=float).reshape(-1, 3),
        prior_node=np.array([f.node for f in priors for _ in f.indices],
                            dtype=int),
        prior_index=np.array([i for f in priors for i in f.indices],
                             dtype=int),
        prior_value=np.array([v for f in priors for v in f.values],
                             dtype=float),
        prior_information=np.array([w for f in priors
                                    for w in f.information], dtype=float))


def _residuals(stacked: _Stacked, states: np.ndarray):
    """Residuals of the between, pseudorange and prior rows."""
    nodes = stacked.between_nodes
    between = ((states[nodes[:, 1], :3] - states[nodes[:, 0], :3])
               - stacked.between_measured)
    pseudorange = (np.einsum("ij,ij->i", stacked.pr_row,
                             states[stacked.pr_node])
                   - stacked.pr_constant)
    prior = (states[stacked.prior_node, stacked.prior_index]
             - stacked.prior_value)
    return between, pseudorange, prior


def evaluate_cost(graph: Graph, states, stacked: _Stacked | None = None
                  ) -> float:
    """Sum of e^T Omega e over all factors and priors.

    `stacked` is the optimizer's `_stack(graph)` of the current
    linearization; without it the graph's lists are stacked here.
    """
    stacked = _stack(graph) if stacked is None else stacked
    between, pseudorange, prior = _residuals(stacked, np.asarray(states))
    return float(
        np.einsum("ni,nij,nj->", between, stacked.between_information,
                  between)
        + stacked.pr_information @ (pseudorange * pseudorange)
        + stacked.prior_information @ (prior * prior))


def _whitened_system(stacked: _Stacked, states: np.ndarray):
    """Whitened residual vector and sparse Jacobian of the full problem.

    Rows come in the order of the factor lists: three per between
    factor, one per pseudorange factor, one per prior component.
    """
    between, pseudorange, prior = _residuals(stacked, states)
    sqrt = stacked.between_sqrt
    n_between, n_pr = len(between), len(pseudorange)
    w_pr = np.sqrt(stacked.pr_information)
    w_prior = np.sqrt(stacked.prior_information)
    residual = np.concatenate([
        np.matmul(sqrt, between[:, :, None])[:, :, 0].ravel(),
        w_pr * pseudorange, w_prior * prior])

    # between block: -sqrt on the first node's position, +sqrt on the
    # second's, entry [f, r, c] in row 3f + r and column 7 node + c
    row_b = np.broadcast_to(np.arange(3 * n_between).reshape(-1, 3, 1),
                            sqrt.shape)
    col_b = (STATE_DIM * stacked.between_nodes[:, :, None, None]
             + np.arange(3))
    col_b = np.broadcast_to(col_b, (n_between, 2, 3, 3))
    pr_base = 3 * n_between
    row_pr = np.broadcast_to(pr_base + np.arange(n_pr)[:, None],
                             stacked.pr_row.shape)
    col_pr = STATE_DIM * stacked.pr_node[:, None] + np.arange(STATE_DIM)
    prior_base = pr_base + n_pr
    rows = np.concatenate([row_b.ravel(), row_b.ravel(), row_pr.ravel(),
                           prior_base + np.arange(len(prior))])
    cols = np.concatenate([
        col_b[:, 0].ravel(), col_b[:, 1].ravel(), col_pr.ravel(),
        STATE_DIM * stacked.prior_node + stacked.prior_index])
    data = np.concatenate([-sqrt.ravel(), sqrt.ravel(),
                           (w_pr[:, None] * stacked.pr_row).ravel(),
                           w_prior])
    keep = data != 0.0
    jacobian = sp.csr_matrix(
        (data[keep], (rows[keep], cols[keep])),
        shape=(len(residual), states.size))
    return residual, jacobian


def _relinearize(graph: Graph, stacked: _Stacked, states: np.ndarray,
                 threshold: float) -> bool:
    """Relinearize the pseudorange factors whose node moved more than
    `threshold` from its linearization point; report whether any did."""
    offsets = states[stacked.pr_node, :3]
    moved = np.flatnonzero(
        np.linalg.norm(offsets - stacked.pr_lin_offset, axis=1) > threshold)
    if len(moved) == 0:
        return False
    _relinearize_factors([graph.pseudorange_factors[k] for k in moved],
                         offsets[moved], graph.reference_position)
    return True


def optimize(graph: Graph, config: GraphConfig | None = None):
    """Powell's Dogleg trust region on the sparse whitened normal equations.

    Returns (states, OptimizerReport); states is an (n, 7) array.
    Deterministic: fixed factor order, direct sparse solve.
    """
    config = config or GraphConfig()
    states = graph.initial_states.copy()
    n_var = states.size

    stacked = _stack(graph)
    cost = evaluate_cost(graph, states, stacked)
    report = OptimizerReport(initial_cost=cost, final_cost=cost,
                             iterations=0, converged=False, costs=[cost])
    radius = config.initial_radius

    for iteration in range(1, config.max_iterations + 1):
        residual, jacobian = _whitened_system(stacked, states)
        gradient = jacobian.T @ residual
        if np.linalg.norm(gradient, np.inf) < config.gradient_tolerance:
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

        accepted = False
        while radius > 1e-12:
            step = _dogleg_step(gn_step, sd_step, radius)
            trial = states + step.reshape(states.shape)
            new_cost = evaluate_cost(graph, trial, stacked)
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
                     < config.cost_tolerance)
        if _relinearize(graph, stacked, states,
                        config.relinearize_threshold):
            stacked = _stack(graph)
            cost = evaluate_cost(graph, states, stacked)
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
