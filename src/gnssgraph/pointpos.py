"""Epoch-wise point positioning and Doppler velocity estimation.

Both solutions seed the factor graph: the position fix initializes the
linearization and the clock biases, the velocity feeds the relative
constraints between consecutive nodes.

Both solve every epoch of a session geometry at once. An epoch's rows
sit in a padded (epoch, row) array, its normal equations are formed by
one stacked `matmul` and solved by `solve_normals`, the one Cholesky
kernel and singularity rule of every stacked solve here, in TR-RTK and
in the graph; no sum or LAPACK call spans two epochs, so an epoch gets
the same bits in any session. SPP starts every epoch from Bancroft's
closed-form fix, one more such stacked solve. Each returns one table, a
row per epoch; an epoch's error goes into its `errors` and stops no
other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import CLIGHT
from .coords import ecef_to_geodetic
from .errors import (InsufficientSatellites, NearSingular, NoConvergence,
                     SingularGeometry)
from .geometry import EpochGeometry
from .types import CONSTELLATIONS, Checked, setting

# an epoch's state, of SPP and of a graph node: its position and one
# absolute receiver clock per CONSTELLATIONS slot [m]
STATE_DIM = 3 + len(CONSTELLATIONS)


@dataclass(slots=True)
class SolverConfig(Checked):
    """Tunables shared by the epoch-wise estimators; `elevation_mask` is
    the one mask of a solve, of every stage (`EpochGeometry.usable`)."""

    elevation_mask: float = setting(np.radians(15.0), 0.0, np.pi / 2)
    sigma_a: float = 0.3           # pseudorange variance floor term [m]
    sigma_b: float = 0.3           # pseudorange elevation term [m]
    doppler_sigma: float = setting(0.05, above=0.0)  # zenith [m/s]
    # per-axis floor on velocity sigma [m/s]
    velocity_sigma_floor: float = setting(0.01, 0.0)
    max_iterations: int = setting(10, 0)
    convergence: float = setting(1e-4, above=0.0)  # position step [m]

    def __post_init__(self) -> None:
        # zero-argument super() misses a slots dataclass's new class
        Checked.__post_init__(self)
        # either term alone is a model; both 0 make every weight infinite
        terms = (self.sigma_a, self.sigma_b)
        if not (all(0.0 <= term < np.inf for term in terms) and any(terms)):
            raise ValueError(f"sigma_a and sigma_b must be finite and "
                             f"non-negative and not both 0: {terms!r}")


@dataclass
class SppSolution:
    """A session's SPP fixes, row e of each array epoch e's, and the
    session `geometry` that SPP located at its last iterate: each epoch
    seen from where its last step was computed, or from its fix if it
    stopped earlier (NaN rows if it erred before). `clock` is a graph
    node's clock states: one absolute receiver clock per slot."""

    position: np.ndarray           # (n, 3) [m ECEF]
    clock: np.ndarray              # (n, 4) [m] per slot, 0 if unobserved
    used: np.ndarray               # (n, 4) satellites per slot, 0 if none
    errors: dict                   # epoch -> the GnssError it raised
    geometry: EpochGeometry | None = None


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


def pseudorange_rows(unit, ranges, slots, measured, offsets):
    """Design rows (p, STATE_DIM) and constants (p,) of the corrected
    pseudoranges `measured` seen from the position offsets `offsets` from
    a reference, where the satellites have unit vectors `unit`, ranges
    `ranges` and clock slots `slots`: -unit on the position, 1 on the
    row's own clock slot."""
    rows = np.zeros((len(unit), STATE_DIM))
    rows[:, :3] = -unit
    rows[np.arange(len(unit)), 3 + slots] = 1.0
    constants = measured - ranges - np.einsum("ij,ij->i", unit, offsets)
    return rows, constants


def _solve(normal, rhs, ok, errors: dict, message: str):
    """`solve_normals` of the epochs `ok`, identities for the others; a
    singular epoch gets SingularGeometry(message) in `errors`. Returns
    the solutions and the epochs solved."""
    normal = np.where(ok[:, None, None], normal, np.eye(normal.shape[-1]))
    x, singular = solve_normals(normal, rhs)
    for e in np.flatnonzero(singular).tolist():
        errors[e] = SingularGeometry(message)
    return x, ok & ~singular


def singular_pivots(pivots, diagonal):
    """Whether a Cholesky pivot of `pivots` (..., k) squared is at most
    1e-12 of its matrix's diagonal entry in `diagonal`, or NaN (refused):
    the round-off of a zero pivot, in any units of the unknowns."""
    return ~np.all(pivots * pivots > 1e-12 * diagonal, axis=-1)


def solve_normals(normal, rhs=None):
    """x solving normal x = rhs per matrix of the symmetric stack `normal`
    (n, k, k) and right-hand side, (n, k) or (n, k, m); without `rhs`,
    the inverses. Returns x, NaN for a singular matrix, and the mask (n,)
    of those: each matrix's Cholesky factor, `singular_pivots` of it.
    numpy refuses a whole stack for one matrix that is not positive
    definite: only then is each factored alone, NaN if refused."""
    eye = np.eye(normal.shape[-1])
    try:
        factor = np.linalg.cholesky(normal)
    except np.linalg.LinAlgError:
        factor = np.full(normal.shape, np.nan)
        for e, matrix in enumerate(normal):
            try:
                factor[e] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                pass
    singular = singular_pivots(np.diagonal(factor, axis1=1, axis2=2),
                               np.diagonal(normal, axis1=1, axis2=2))
    factor[singular] = eye
    rhs = np.broadcast_to(eye, normal.shape) if rhs is None else rhs
    x = rhs if rhs.ndim == 3 else rhs[..., None]
    # L y = rhs from the first row, then L^T x = y from the last; each
    # entry subtracts its terms one by one, elementwise over the stack,
    # so a system gets the same bits in any stack
    for matrix, order in ((factor, range(len(eye))),
                          (factor.transpose(0, 2, 1), range(len(eye))[::-1])):
        y, x = x, np.empty(x.shape)
        for done, i in enumerate(order):
            row = y[:, i]
            for j in order[:done]:
                row = row - matrix[:, i, j, None] * x[:, j]
            x[:, i] = row / matrix[:, i, i, None]
    x[singular] = np.nan
    return x.reshape(rhs.shape), singular


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

    Unknowns per epoch are the 3D position plus one absolute clock per
    constellation it observes, from the rows
    `EpochGeometry.usable` gives at `config.elevation_mask`. Each epoch
    starts from Bancroft's closed-form fix of its own rows (see
    `_bancroft`), with no mask, atmosphere or weights and one clock; an
    epoch with fewer than 4 satellites of known state gets
    InsufficientSatellites, and one whose fix is singular
    SingularGeometry. The iterations run in lockstep: each locates the
    geometry afresh at the current position of every epoch without an
    error, so the atmosphere is corrected with its delay models, and
    steps the epochs still iterating, each until its position update is
    below `config.convergence`. Returns the SppSolution table, whose
    geometry is the last iterate's; the rows of an epoch in its `errors`
    hold no fix, and those errors are InsufficientSatellites,
    SingularGeometry, NoConvergence, or the epoch's range fault
    (`EpochGeometry.range_faults`).
    """
    config = config or SolverConfig()
    n = len(geometry.times)
    position, _, errors = _bancroft(geometry)
    # the last solved step's clocks and satellite counts of each epoch
    clock = np.zeros((n, len(CONSTELLATIONS)))
    count = np.zeros((n, len(CONSTELLATIONS)), dtype=int)
    active = ~_marked(n, errors)
    for _ in range(config.max_iterations + 1):
        # an iterate near the earth's center has no geodetic position
        near = ~_marked(n, errors) & (np.linalg.norm(position, axis=1) < 2e6)
        for e in np.flatnonzero(near).tolist():
            try:
                ecef_to_geodetic(position[e])
            except NearSingular as exc:
                errors[e] = exc
        alive = ~_marked(n, errors)
        # every epoch without an error is seen from where it is now, one
        # that has stopped from its fix (an erring one has NaN rows);
        # locating a row costs the same whether it is used or not; the
        # previous iterate's geometry is freed before this one is made
        located = None
        located = geometry.at(np.where(alive[:, None], position, np.nan))
        ok = active & alive
        used = located.usable(config.elevation_mask) & ok[geometry.epoch]
        epoch, slot = geometry.epoch[used], geometry.slot[used]
        used_count = np.bincount(
            epoch * len(CONSTELLATIONS) + slot,
            minlength=n * len(CONSTELLATIONS)).reshape(n, -1)
        observed = used_count > 0
        short = ok & (used_count.sum(axis=1) < 3 + observed.sum(axis=1))
        for e in np.flatnonzero(short).tolist():
            names = [CONSTELLATIONS[k].name
                     for k in np.flatnonzero(observed[e])]
            errors[e] = InsufficientSatellites(
                f"{used_count[e].sum()} usable satellites, systems {names}")
        errors.update((e, fault) for e, fault in located.range_faults(
            config.elevation_mask).items() if ok[e] and not short[e])
        ok &= ~_marked(n, errors)
        rows = used & ok[geometry.epoch]

        # linearized where each epoch is located (zero offsets); the clocks
        # stay in the residual, so the solve returns them as absolute values
        a, y = pseudorange_rows(
            located.unit[rows], located.range[rows], geometry.slot[rows],
            located.corrected_code[rows], np.zeros((rows.sum(), 3)))
        weights = 1.0 / pseudorange_variance(located.elevation[rows],
                                             config=config)
        normal, rhs = _normals(geometry, rows, a, weights, y)
        # an unobserved clock slot has no row: a unit diagonal entry
        # keeps its step 0, and any positive one passes the pivot rule
        free_epoch, free_slot = np.nonzero(~observed)
        normal[free_epoch, 3 + free_slot, 3 + free_slot] = 1.0
        step, ok = _solve(normal, rhs, ok, errors,
                          "normal matrix singular")
        position[ok] += step[ok, :3]
        clock[ok], count[ok] = step[ok, 3:], used_count[ok]
        active = ok & ~(np.linalg.norm(step[:, :3], axis=1)
                        < config.convergence)
        if not active.any():
            break
    for e in np.flatnonzero(active).tolist():
        errors[e] = NoConvergence(
            "SPP did not converge within iteration budget")

    return SppSolution(position, np.where(count > 0, clock, 0.0), count,
                       errors, located)


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
    uv, ok = _solve(normal, rhs, known >= 4, errors,
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
    (v_sat - v_user) . u + drift_rcv_m - c * drift_sat, over the rows
    `EpochGeometry.usable` gives at `config.elevation_mask`; no delay
    model enters otherwise. Returns the
    VelocitySolution table; the rows of an epoch in its `errors`
    (InsufficientSatellites, DegenerateGeometry, SingularGeometry) hold
    no velocity.
    """
    config = config or SolverConfig()
    n = len(geometry.times)
    used = geometry.usable(config.elevation_mask)
    count = np.bincount(geometry.epoch[used], minlength=n)
    # an epoch short of satellites keeps that error, not its range fault
    errors = geometry.range_faults(config.elevation_mask) | {
        e: InsufficientSatellites(f"{count[e]} usable satellites for velocity")
        for e in np.flatnonzero(count < 4).tolist()}
    ok = ~_marked(n, errors)
    rows = used & ok[geometry.epoch]

    unit = geometry.unit[rows]
    a = np.column_stack([-unit, np.ones(len(unit))])
    measured = -geometry.wavelength[rows] * geometry.doppler[rows]
    y = (measured - np.einsum("ij,ij->i", geometry.sat_velocity[rows], unit)
         + CLIGHT * geometry.clock_drift[rows])
    sigma = config.doppler_sigma / np.sin(geometry.elevation[rows])
    normal, rhs = _normals(geometry, rows, a, 1.0 / (sigma * sigma), y)
    # one solve of [rhs | I], of I only the velocity's three columns: the
    # velocities and their covariances
    solved, _ = _solve(normal, np.dstack([rhs, np.broadcast_to(
        np.eye(4)[:, :3], (len(normal), 4, 3))]), ok, errors,
        "velocity geometry singular")
    sol, cov = solved[..., 0], solved[:, :3, 1:4]
    diagonal = np.arange(3)
    cov[:, diagonal, diagonal] = np.maximum(cov[:, diagonal, diagonal],
                                            config.velocity_sigma_floor ** 2)
    return VelocitySolution(sol[:, :3], sol[:, 3], cov, errors)
