"""Epoch-wise point positioning and Doppler velocity estimation.

Both solutions seed the factor graph: the position fix initializes the
linearization and the clock biases, the velocity feeds the relative
constraints between consecutive nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import CLIGHT
from .errors import InsufficientSatellites, NoConvergence, SingularGeometry
from .geometry import EpochGeometry
from .types import CONSTELLATIONS, Constellation


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


def _check_condition(normal: np.ndarray, message: str) -> None:
    """Raise SingularGeometry if the symmetric normal matrix has a 2-norm
    condition number above 1e12: lambda_max / lambda_min, with
    lambda_min <= 0 counted as singular."""
    eig = np.linalg.eigvalsh(normal)
    if eig[0] <= 0.0 or eig[-1] > 1e12 * eig[0]:
        raise SingularGeometry(message)


def solve_spp(satellites: EpochGeometry,
              config: SolverConfig | None = None,
              initial_position: np.ndarray | None = None) -> SppSolution:
    """Iterated weighted least-squares single point positioning.

    Unknowns are the 3D position plus one clock bias per constellation
    observed in this epoch (GPS slot always first). Each iteration
    evaluates the epoch's unlocated geometry `satellites` at the current
    position, so the atmosphere is corrected with its delay models.
    """
    config = config or SolverConfig()
    position = (np.array(initial_position, dtype=float)
                if initial_position is not None
                else _bootstrap_position(satellites))

    for _ in range(config.max_iterations + 1):
        geometry = satellites.at(position)
        rows = geometry.above(config.elevation_mask)
        slots = geometry.slot[rows]
        systems = np.unique(slots)     # constellation slots, GPS is 0
        if len(rows) < 3 + len(systems) or 0 not in systems:
            names = [CONSTELLATIONS[slot].name for slot in systems]
            raise InsufficientSatellites(
                f"{len(rows)} usable satellites, systems {names}")
        geometry.require_ranges(rows)
        geometry.require_delays(rows)
        # one clock-bias column per observed constellation
        a = np.zeros((len(rows), 3 + len(systems)))
        a[:, :3] = -geometry.unit[rows]
        a[np.arange(len(rows)), 3 + np.searchsorted(systems, slots)] = 1.0
        # the clock biases stay inside the residual, so the joint solve
        # returns them as absolute values at the current linearization
        resid = geometry.corrected_code[rows] - geometry.range[rows]
        weights = 1.0 / pseudorange_variance(geometry.elevation[rows],
                                             config=config)
        aw = a * weights[:, None]
        normal = a.T @ aw
        _check_condition(normal, "normal matrix condition number > 1e12")
        delta = np.linalg.solve(normal, aw.T @ resid)
        position = position + delta[:3]
        if np.linalg.norm(delta[:3]) < config.convergence:
            break
    else:
        raise NoConvergence("SPP did not converge within iteration budget")

    constellations = [CONSTELLATIONS[slot] for slot in systems]
    clock_biases = {c: float(delta[3 + k])
                    for k, c in enumerate(constellations)}
    cov = np.zeros((7, 7))
    index = np.r_[0:3, 3 + systems]
    cov[np.ix_(index, index)] = np.linalg.inv(normal)
    counts = np.bincount(slots)[systems]
    used = {c: int(count) for c, count in zip(constellations, counts)}
    return SppSolution(position, clock_biases, cov, used)


def _bootstrap_position(satellites: EpochGeometry) -> np.ndarray:
    """Coarse unweighted fix from scratch, no elevation mask, one clock
    for every satellite with a known state."""
    n = len(satellites.sats)
    if n < 4:
        raise InsufficientSatellites(f"{n} satellites with known state")
    position = np.zeros(3)
    bias = 0.0
    a = np.ones((n, 4))
    for _ in range(12):
        delta = satellites.sat_position - position
        rng = np.linalg.norm(delta, axis=1)
        a[:, :3] = -delta / rng[:, None]
        resid = (satellites.code - rng + CLIGHT * satellites.clock_bias
                 - bias)
        try:
            step, *_ = np.linalg.lstsq(a, resid, rcond=None)
        except np.linalg.LinAlgError as exc:
            raise SingularGeometry("bootstrap geometry singular") from exc
        position = position + step[:3]
        bias += step[3]
        if np.linalg.norm(step[:3]) < 1.0:
            break
    return position


def solve_doppler_velocity(geometry: EpochGeometry,
                           config: SolverConfig | None = None
                           ) -> VelocitySolution:
    """Least squares velocity from Doppler range rates, with the epoch's
    satellites seen from the receiver position of `geometry`.

    Measured range rate is -wavelength * doppler; the model is
    (v_sat - v_user) . u + drift_rcv_m - c * drift_sat. No delay model
    enters, so the geometry's models do not matter.
    """
    config = config or SolverConfig()
    rows = geometry.above(config.elevation_mask)
    if len(rows) < 4:
        raise InsufficientSatellites(f"{len(rows)} usable satellites for velocity")
    geometry.require_ranges(rows)

    unit = geometry.unit[rows]
    a = np.column_stack([-unit, np.ones(len(rows))])
    measured = -geometry.wavelength[rows] * geometry.doppler[rows]
    y = (measured - np.einsum("ij,ij->i", geometry.sat_velocity[rows], unit)
         + CLIGHT * geometry.clock_drift[rows])
    sigma = config.doppler_sigma / np.sin(geometry.elevation[rows])
    weights = 1.0 / (sigma * sigma)

    aw = a * weights[:, None]
    normal = a.T @ aw
    _check_condition(normal, "velocity geometry singular")
    sol = np.linalg.solve(normal, aw.T @ y)
    cov = np.linalg.inv(normal)[:3, :3]
    np.fill_diagonal(cov, np.maximum(np.diag(cov),
                                     config.velocity_sigma_floor ** 2))
    return VelocitySolution(sol[:3], float(sol[3]), cov)
