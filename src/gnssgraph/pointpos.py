"""Epoch-wise point positioning and Doppler velocity estimation.

Both solutions seed the factor graph: the position fix initializes the
linearization and the clock biases, the velocity feeds the relative
constraints between consecutive nodes.

Both solve every epoch of a session geometry at once. An epoch's rows
sit in a padded (epoch, row) array, its normal equations are formed by
one stacked `matmul` and solved in a stack of small systems, so no sum
or LAPACK call spans two epochs and an epoch gets the same bits in any
session. SPP starts every epoch from Bancroft's closed-form fix, one
more such stacked solve. Each returns one table, a row per epoch; an
epoch's error goes into the table's `errors` under its index and
stops no other.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .constants import CLIGHT
from .coords import ecef_to_geodetic
from .errors import (InsufficientSatellites, NearSingular, NoConvergence,
                     SingularGeometry)
from .geometry import EpochGeometry
from .types import CONSTELLATIONS

# position and one clock slot per constellation
UNKNOWNS = 3 + len(CONSTELLATIONS)


class PositiveSigmas:
    """A config dataclass whose `*_sigma` fields must be finite and
    positive (ValueError): a negative one would enter squared."""

    __slots__ = ()

    def __post_init__(self) -> None:
        for f in fields(self):
            sigma = getattr(self, f.name)
            if f.name.endswith("_sigma") and not 0.0 < sigma < np.inf:
                raise ValueError(f"{f.name} must be finite and positive, "
                                 f"not {sigma!r}")


@dataclass(slots=True)
class SolverConfig(PositiveSigmas):
    """Tunables shared by the epoch-wise estimators."""

    elevation_mask: float = np.radians(15.0)
    sigma_a: float = 0.3           # pseudorange variance floor term [m]
    sigma_b: float = 0.3           # pseudorange elevation term [m]
    doppler_sigma: float = 0.05    # range-rate sigma at zenith [m/s]
    velocity_sigma_floor: float = 0.01  # per-axis floor on velocity sigma [m/s]
    max_iterations: int = 10
    convergence: float = 1e-4      # position update threshold [m]

    def __post_init__(self) -> None:
        PositiveSigmas.__post_init__(self)
        # either term alone is a model; both 0 make every weight infinite
        terms = (self.sigma_a, self.sigma_b)
        if not (all(0.0 <= term < np.inf for term in terms) and any(terms)):
            raise ValueError(f"sigma_a and sigma_b must be finite and "
                             f"non-negative and not both 0: {terms!r}")


@dataclass
class SppSolution:
    """A session's SPP fixes, row e of each array epoch e's."""

    position: np.ndarray           # (n, 3) [m ECEF]
    clock: np.ndarray              # (n, 4) [m] per slot, 0 if unobserved
    covariance: np.ndarray         # (n, 7, 7), position + 4 clock slots
    used: np.ndarray               # (n, 4) satellites per slot, 0 if none
    errors: dict                   # epoch -> the GnssError it raised


@dataclass
class VelocitySolution:
    """A session's Doppler velocities, row e of each array epoch e's."""

    velocity: np.ndarray           # (n, 3) [m/s]
    clock_drift: np.ndarray        # (n,) receiver clock drift [m/s]
    covariance: np.ndarray         # (n, 3, 3) [m^2/s^2]
    errors: dict                   # epoch -> the GnssError it raised


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
    """Solve the stacked normal equations of the epochs `ok`, with one
    right-hand side per epoch (epochs, unknowns) or several (epochs,
    unknowns, columns). An epoch whose symmetric normal matrix has a
    2-norm condition number, lambda_max / lambda_min, above 1e12
    (lambda_min <= 0 counted as singular) gets SingularGeometry(message)
    in `errors` instead. Returns the solutions, the epochs solved and
    the normal matrices, identities standing in for those of the epochs
    not solved."""
    eye = np.eye(normal.shape[-1])
    normal = np.where(ok[:, None, None], normal, eye)
    eig = np.linalg.eigvalsh(normal)
    singular = ok & ((eig[:, 0] <= 0.0) | (eig[:, -1] > 1e12 * eig[:, 0]))
    for e in np.flatnonzero(singular).tolist():
        errors[e] = SingularGeometry(message)
    ok = ok & ~singular
    normal[singular] = eye
    columns = rhs.reshape(len(rhs), len(eye), -1)
    return (np.linalg.solve(normal, columns).reshape(rhs.shape), ok,
            normal)


def grouped_normals(group, groups: int, a, weights, y):
    """Per group 0..groups-1, the normal matrix A^T W A and right-hand
    side A^T W y of its rows, whose group indexes `group` ascend, with
    design rows `a`, weights `weights` and observations `y`, one per
    row or one row of columns each. Each group's rows go from index 0
    of a padded (group, row) array, zeros after them, its index taken
    from the group's first row, so the sums of one group take its own
    rows in their order and the same bits in any session. [a, y,
    weights] go into the padded array in one scatter, and one stacked
    matmul forms the matrix and the right-hand side together."""
    count = np.bincount(group, minlength=groups)
    start = np.cumsum(count) - count
    index = np.arange(len(group)) - start[group]
    columns = np.column_stack([a, y, weights])
    padded = np.zeros((groups, count.max(initial=0)) + columns.shape[1:])
    padded[group, index] = columns
    unknowns = a.shape[1]
    aw = padded[..., :unknowns] * padded[..., -1:]
    product = np.matmul(aw.transpose(0, 2, 1), padded[..., :-1])
    return (product[..., :unknowns], product[..., unknowns:].reshape(
        product.shape[:2] + np.shape(y)[1:]))


def _normals(geometry: EpochGeometry, rows, a, weights, y):
    """`grouped_normals` of the rows `rows` (bool) of `geometry`, one
    group per epoch."""
    return grouped_normals(geometry.epoch[rows], len(geometry.times), a,
                           weights, y)


def _marked(n: int, errors: dict) -> np.ndarray:
    """Bool per epoch: it has an entry in `errors`."""
    marked = np.zeros(n, dtype=bool)
    marked[list(errors)] = True
    return marked


def solve_spp(geometry: EpochGeometry,
              config: SolverConfig | None = None) -> SppSolution:
    """Iterated weighted least-squares single point positioning of every
    epoch of the unlocated session geometry `geometry`.

    Unknowns per epoch are the 3D position plus one clock bias per
    constellation it observes (GPS always). Each epoch starts from
    Bancroft's closed-form fix of its own rows (see `_bancroft`), with
    no mask, atmosphere or weights and one clock; an epoch with fewer
    than 4 satellites of known state gets InsufficientSatellites, and
    one whose fix is singular SingularGeometry. The iterations run in
    lockstep: each locates the geometry at the current positions, so
    the atmosphere is corrected with its delay models, and an epoch
    stops once its position update is below `config.convergence`.
    Returns the SppSolution table; the rows of an epoch in its `errors`
    hold no fix, and those errors are InsufficientSatellites,
    SingularGeometry, NoConvergence, or what the geometry raises for
    the epoch's satellites.
    """
    config = config or SolverConfig()
    n = len(geometry.times)
    position, _, errors = _bancroft(geometry)
    # the last solved step's normal matrix and clocks of each epoch
    normal = np.tile(np.eye(UNKNOWNS), (n, 1, 1))
    clock = np.zeros((n, len(CONSTELLATIONS)))
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
        normal[ok], clock[ok], count[ok] = (step_normal[ok], step[ok, 3:],
                                            used_count[ok])
        active = ok & ~(np.linalg.norm(step[:, :3], axis=1)
                        < config.convergence)
        if not active.any():
            break
    for e in np.flatnonzero(active).tolist():
        errors[e] = NoConvergence(
            "SPP did not converge within iteration budget")

    observed = count > 0
    kept = np.concatenate([np.ones((n, 3), dtype=bool), observed], axis=1)
    cov = np.where(kept[:, :, None] & kept[:, None, :],
                   np.linalg.inv(normal), 0.0)
    return SppSolution(position, np.where(observed, clock, 0.0), cov, count,
                       errors)


def _lorentz(p, q):
    """The Lorentz product of the 4-vectors along the last axes: the
    product of the position parts less that of the clock parts."""
    return (np.einsum("...i,...i->...", p[..., :3], q[..., :3])
            - p[..., 3] * q[..., 3])


def _bancroft(geometry: EpochGeometry):
    """Bancroft's closed-form fix (Bancroft 1985, IEEE Trans. AES 21(1))
    of every epoch from all its satellites with a known state, with no
    elevation mask, atmosphere or Sagnac term, unweighted and one clock
    for all: (epochs, 3) positions and (epochs,) clocks [m], NaN for the
    epochs that get none, and those epochs' errors.

    A satellite's row b = [s, rho], rho its code plus its own clock
    term, and the fix r = [x, -clock], clock the receiver's, meet
    b . r = <b, b> / 2 + L, where . is the Euclidean product, <p, q>
    the Lorentz one and L = <r, r> / 2, since |s - x| = rho - clock.
    So the least-squares r is L u + v, where u and v solve
    B^T B u = B^T 1 and B^T B v = B^T <b, b> / 2, and L is a root of
    <u, u> L^2 + 2 (<u, v> - 1) L + <v, v> = 0 (a negative
    discriminant counted as 0). Of the two roots, the one whose fix
    leaves the smaller sum of squared range residuals is kept.
    """
    n = len(geometry.times)
    known = np.diff(geometry.start)
    errors = {e: InsufficientSatellites(
                  f"{known[e]} satellites with known state")
              for e in np.flatnonzero(known < 4).tolist()}
    rows = (known >= 4)[geometry.epoch]
    epoch, sat = geometry.epoch[rows], geometry.sat_position[rows]
    rho = geometry.code[rows] + CLIGHT * geometry.clock_bias[rows]
    b = np.column_stack([sat, rho])
    normal, rhs = _normals(geometry, rows, b, np.ones(len(b)),
                           np.column_stack([np.ones(len(b)),
                                            0.5 * _lorentz(b, b)]))
    uv, ok, _ = _solve(normal, rhs, known >= 4, errors,
                       "bootstrap geometry singular")
    u, v = uv[..., 0], uv[..., 1]
    uu = np.where(ok, _lorentz(u, u), 1.0)
    half = _lorentz(u, v) - 1.0
    root = np.sqrt(np.maximum(half * half - uu * _lorentz(v, v), 0.0))
    scale = (-half + np.array([[-1.0], [1.0]]) * root) / uu
    fixes = scale[..., None] * u + v
    resid = (rho - np.linalg.norm(sat - fixes[:, epoch, :3], axis=2)
             + fixes[:, epoch, 3])
    cost = [np.bincount(epoch, weights=r * r, minlength=n) for r in resid]
    fix = np.where((cost[1] < cost[0])[:, None], fixes[1], fixes[0])
    fix[~ok] = np.nan
    return fix[:, :3], -fix[:, 3], errors


def solve_doppler_velocity(geometry: EpochGeometry,
                           config: SolverConfig | None = None
                           ) -> VelocitySolution:
    """Least squares velocity from Doppler range rates of every epoch of
    `geometry`, each epoch's satellites seen from its receiver position.

    Measured range rate is -wavelength * doppler; the model is
    (v_sat - v_user) . u + drift_rcv_m - c * drift_sat. No delay model
    enters, so the geometry's models do not matter. Returns the
    VelocitySolution table; the rows of an epoch in its `errors`
    (InsufficientSatellites, DegenerateGeometry, SingularGeometry) hold
    no velocity.
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
    return VelocitySolution(sol[:, :3], sol[:, 3], cov, errors)
