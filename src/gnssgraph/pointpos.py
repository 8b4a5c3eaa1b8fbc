"""Epoch-wise point positioning and Doppler velocity estimation.

Both solutions seed the factor graph: the position fix initializes the
linearization and the clock biases, the velocity feeds the relative
constraints between consecutive nodes.

Both solve every epoch of a session geometry at once. An epoch's rows
sit in a padded (epoch, row) array, its normal equations are formed by
`einsum` and solved in a stack of small systems, so no sum or LAPACK
call spans two epochs and an epoch gets the same bits in any session.
An epoch's error is its outcome, in its place, and stops no other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import CLIGHT
from .coords import ecef_to_geodetic
from .errors import (InsufficientSatellites, NearSingular, NoConvergence,
                     SingularGeometry)
from .geometry import EpochGeometry
from .types import CONSTELLATIONS, Constellation

# position and one clock slot per constellation
UNKNOWNS = 3 + len(CONSTELLATIONS)


@dataclass(slots=True)
class SolverConfig:
    """Tunables shared by the epoch-wise estimators."""

    elevation_mask: float = np.radians(15.0)
    sigma_a: float = 0.3           # pseudorange variance floor term [m]
    sigma_b: float = 0.3           # pseudorange elevation term [m]
    doppler_sigma: float = 0.05    # range-rate sigma at zenith [m/s]
    velocity_sigma_floor: float = 0.01  # per-axis floor on velocity sigma [m/s]
    max_iterations: int = 10
    convergence: float = 1e-4      # position update threshold [m]


@dataclass
class SppSolution:
    position: np.ndarray
    clock_biases: dict[Constellation, float]   # [m]
    covariance: np.ndarray                     # 7x7, position + 4 clock slots
    used_satellites: dict[Constellation, int]


@dataclass
class VelocitySolution:
    velocity: np.ndarray           # [m/s]
    clock_drift: float             # receiver clock drift [m/s]
    covariance: np.ndarray         # 3x3 [m^2/s^2]


def pseudorange_variance(elevation, config: SolverConfig | None = None):
    """Elevation-dependent pseudorange variance a^2 + b^2/sin^2(el), of
    one elevation or an array of them."""
    config = config or SolverConfig()
    el = np.asarray(elevation)
    if not ((0.0 < el) & (el <= np.pi / 2)).all():
        raise ValueError(f"elevation out of range: {elevation}")
    s = np.sin(el)
    return config.sigma_a ** 2 + config.sigma_b ** 2 / (s * s)


def _solve(normal, rhs, ok, errors: dict, message: str):
    """Solve the stacked normal equations of the epochs `ok`. An epoch
    whose symmetric normal matrix has a 2-norm condition number,
    lambda_max / lambda_min, above 1e12 (lambda_min <= 0 counted as
    singular) gets SingularGeometry(message) in `errors` instead.
    Returns the solutions, the epochs solved and the normal matrices,
    identities standing in for those of the epochs not solved."""
    eye = np.eye(normal.shape[-1])
    normal = np.where(ok[:, None, None], normal, eye)
    eig = np.linalg.eigvalsh(normal)
    singular = ok & ((eig[:, 0] <= 0.0) | (eig[:, -1] > 1e12 * eig[:, 0]))
    for e in np.flatnonzero(singular).tolist():
        errors[e] = SingularGeometry(message)
    ok = ok & ~singular
    normal[singular] = eye
    return np.linalg.solve(normal, rhs[..., None])[..., 0], ok, normal


def _normals(geometry: EpochGeometry, rows, a, weights, y):
    """Per epoch, the normal matrix and right-hand side of its rows
    among `rows` (bool), whose design rows are `a`, weights `weights`
    and observations `y`: each epoch's rows go from index 0 of a padded
    (epoch, row) array, zeros after them, so the sums of one epoch take
    its own rows in their order and the same bits in any session."""
    epoch = geometry.epoch[rows]
    index = np.arange(len(epoch)) - np.searchsorted(epoch, epoch)
    shape = (len(geometry.times), index.max(initial=-1) + 1)
    padded_a, padded_w, padded_y = (np.zeros(shape + np.shape(v)[1:])
                                    for v in (a, weights, y))
    padded_a[epoch, index] = a
    padded_w[epoch, index] = weights
    padded_y[epoch, index] = y
    aw = padded_a * padded_w[..., None]
    return (np.einsum("ewi,ewj->eij", aw, padded_a),
            np.einsum("ewi,ew->ei", aw, padded_y))


def _marked(n: int, errors: dict) -> np.ndarray:
    """Bool per epoch: it has an entry in `errors`."""
    marked = np.zeros(n, dtype=bool)
    marked[list(errors)] = True
    return marked


def solve_spp(geometry: EpochGeometry,
              config: SolverConfig | None = None) -> list:
    """Iterated weighted least-squares single point positioning of every
    epoch of the unlocated session geometry `geometry`.

    Unknowns per epoch are the 3D position plus one clock bias per
    constellation it observes (GPS always). Each epoch starts from its
    own closed-form bootstrap. The iterations run in lockstep: each
    locates the geometry at the current positions, so the atmosphere is
    corrected with its delay models, and an epoch stops once its
    position update is below `config.convergence`. Returns one outcome
    per epoch: its SppSolution, or the error it raised
    (InsufficientSatellites, SingularGeometry, NoConvergence, or what
    the geometry raises for its satellites), in its place.
    """
    config = config or SolverConfig()
    n = len(geometry.times)
    position, errors = _bootstrap_positions(geometry)
    normal = np.zeros((n, UNKNOWNS, UNKNOWNS))
    delta = np.zeros((n, UNKNOWNS))
    count = np.zeros((n, len(CONSTELLATIONS)), dtype=int)
    active = ~_marked(n, errors)
    for _ in range(config.max_iterations + 1):
        # an iterate near the earth's center has no geodetic position
        near = active & (np.linalg.norm(position, axis=1) < 2e6)
        for e in np.flatnonzero(near).tolist():
            try:
                ecef_to_geodetic(position[e])
            except NearSingular as exc:
                errors[e] = exc
        ok = active & ~_marked(n, errors)
        # the other epochs are not located: their rows are NaN, below
        # any mask
        located = geometry.at(np.where(ok[:, None], position, np.nan))
        used = located.above(config.elevation_mask)
        epoch, slot = geometry.epoch[used], geometry.slot[used]
        used_count = np.bincount(
            epoch * len(CONSTELLATIONS) + slot,
            minlength=n * len(CONSTELLATIONS)).reshape(n, -1)
        observed = used_count > 0
        systems = observed.sum(axis=1)
        short = ok & ((used_count.sum(axis=1) < 3 + systems)
                      | ~observed[:, 0])
        for e in np.flatnonzero(short).tolist():
            names = [CONSTELLATIONS[k].name
                     for k in np.flatnonzero(observed[e])]
            errors[e] = InsufficientSatellites(
                f"{used_count[e].sum()} usable satellites, systems {names}")
        errors.update(located.failures(
            used & ~short[geometry.epoch],
            (located.require_ranges, located.require_delays)))
        ok &= ~_marked(n, errors)
        rows = used & ok[geometry.epoch]

        # one clock column per constellation; the clock biases stay
        # inside the residual, so the joint solve returns them as
        # absolute values at the current linearization
        a = np.zeros((np.count_nonzero(rows), UNKNOWNS))
        a[:, :3] = -located.unit[rows]
        a[np.arange(len(a)), 3 + geometry.slot[rows]] = 1.0
        weights = 1.0 / pseudorange_variance(located.elevation[rows],
                                             config=config)
        step_normal, rhs = _normals(
            geometry, rows, a, weights,
            located.corrected_code[rows] - located.range[rows])
        # an unobserved clock slot gets the observed block's mean
        # eigenvalue, which leaves lambda_min and lambda_max as they are
        free_epoch, free_slot = np.nonzero(~observed)
        step_normal[free_epoch, 3 + free_slot, 3 + free_slot] = (
            np.trace(step_normal, axis1=1, axis2=2)
            / (3 + systems))[free_epoch]
        step, ok, step_normal = _solve(
            step_normal, rhs, ok, errors,
            "normal matrix condition number > 1e12")
        position[ok] += step[ok, :3]
        normal[ok], delta[ok], count[ok] = (step_normal[ok], step[ok],
                                            used_count[ok])
        active = ok & ~(np.linalg.norm(step[:, :3], axis=1)
                        < config.convergence)
        if not active.any():
            break
    for e in np.flatnonzero(active).tolist():
        errors[e] = NoConvergence(
            "SPP did not converge within iteration budget")

    solved = ~_marked(n, errors)
    observed = count > 0
    cov = np.zeros_like(normal)
    cov[solved] = np.linalg.inv(normal[solved])
    kept = np.concatenate([np.ones((n, 3), dtype=bool), observed], axis=1)
    cov = np.where(kept[:, :, None] & kept[:, None, :], cov, 0.0)
    outcomes = []
    for e, (seen, clocks, in_use) in enumerate(zip(
            observed.tolist(), delta[:, 3:].tolist(), count.tolist())):
        if e in errors:
            outcomes.append(errors[e])
            continue
        present = [k for k, s in enumerate(seen) if s]
        outcomes.append(SppSolution(
            position[e], {CONSTELLATIONS[k]: clocks[k] for k in present},
            cov[e], {CONSTELLATIONS[k]: in_use[k] for k in present}))
    return outcomes


def _bootstrap_positions(geometry: EpochGeometry):
    """Coarse unweighted fixes of every epoch, started at the earth's
    center, with no elevation mask and one clock for all its satellites
    with a known state: (epochs, 3) positions, NaN for the epochs that
    get none, and those epochs' errors."""
    n = len(geometry.times)
    known = np.diff(geometry.start)
    errors = {e: InsufficientSatellites(
                  f"{known[e]} satellites with known state")
              for e in np.flatnonzero(known < 4).tolist()}
    position = np.zeros((n, 3))
    bias = np.zeros(n)
    moving = known >= 4
    for _ in range(12):
        rows = moving[geometry.epoch]
        epoch = geometry.epoch[rows]
        delta = geometry.sat_position[rows] - position[epoch]
        rng = np.linalg.norm(delta, axis=1)
        a = np.ones((len(rng), 4))
        a[:, :3] = -delta / rng[:, None]
        resid = (geometry.code[rows] - rng
                 + CLIGHT * geometry.clock_bias[rows] - bias[epoch])
        normal, rhs = _normals(geometry, rows, a, np.ones(len(rng)), resid)
        step, moving, _ = _solve(normal, rhs, moving, errors,
                                 "bootstrap geometry singular")
        position[moving] += step[moving, :3]
        bias[moving] += step[moving, 3]
        moving &= ~(np.linalg.norm(step[:, :3], axis=1) < 1.0)
        if not moving.any():
            break
    position[_marked(n, errors)] = np.nan
    return position, errors


def solve_doppler_velocity(geometry: EpochGeometry,
                           config: SolverConfig | None = None) -> list:
    """Least squares velocity from Doppler range rates of every epoch of
    `geometry`, each epoch's satellites seen from its receiver position.

    Measured range rate is -wavelength * doppler; the model is
    (v_sat - v_user) . u + drift_rcv_m - c * drift_sat. No delay model
    enters, so the geometry's models do not matter. Returns one outcome
    per epoch: its VelocitySolution, or the error it raised
    (InsufficientSatellites, DegenerateGeometry, SingularGeometry), in
    its place.
    """
    config = config or SolverConfig()
    n = len(geometry.times)
    used = geometry.above(config.elevation_mask)
    count = np.bincount(geometry.epoch[used], minlength=n)
    errors = {e: InsufficientSatellites(
                  f"{count[e]} usable satellites for velocity")
              for e in np.flatnonzero(count < 4).tolist()}
    errors.update(geometry.failures(used & (count >= 4)[geometry.epoch],
                                    (geometry.require_ranges,)))
    ok = ~_marked(n, errors)
    rows = used & ok[geometry.epoch]

    unit = geometry.unit[rows]
    a = np.column_stack([-unit, np.ones(len(unit))])
    measured = -geometry.wavelength[rows] * geometry.doppler[rows]
    y = (measured - np.einsum("ij,ij->i", geometry.sat_velocity[rows], unit)
         + CLIGHT * geometry.clock_drift[rows])
    sigma = config.doppler_sigma / np.sin(geometry.elevation[rows])
    normal, rhs = _normals(geometry, rows, a, 1.0 / (sigma * sigma), y)
    sol, _, normal = _solve(normal, rhs, ok, errors,
                            "velocity geometry singular")
    cov = np.linalg.inv(normal)[:, :3, :3]
    diagonal = np.arange(3)
    cov[:, diagonal, diagonal] = np.maximum(cov[:, diagonal, diagonal],
                                            config.velocity_sigma_floor ** 2)
    return [errors[e] if e in errors
            else VelocitySolution(sol[e, :3], float(sol[e, 3]), cov[e])
            for e in range(n)]
