"""Synthetic GNSS world: constellations, truth trajectories, raw measurements.

Replaces real flight data as the verification oracle. Measurement models
mirror the conventions of the estimators exactly (same line-of-sight,
atmosphere, and sign conventions), so zero-noise runs close to machine
precision. Trajectories and measurements are computed on arrays, bit for
bit as the per-sample loops of tests/sim_reference.py compute them.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .atmosphere import KlobucharParams, TropoModel, klobuchar_delay, saastamoinen_delay
from .constants import CLIGHT, GM_EARTH, OMGE
from .coords import (ecef_to_geodetic, elevation_azimuth, enu_rotation,
                     geodetic_to_ecef, line_of_sight, scalar_pow)
from .errors import InvalidWaypoints
from .gnsstime import GpsTime
from .rinex import carrier_wavelength, glonass_channel
from .types import (Checked, Constellation, Epoch, GeodeticPosition,
                    SatelliteId, setting)

# nominal circular-orbit shells: semi-major axis [m], inclination [rad], planes
ORBIT_SHELLS = {
    Constellation.GPS: (26560e3, np.radians(55.0), 6),
    Constellation.GLO: (25510e3, np.radians(64.8), 3),
    Constellation.GAL: (29600e3, np.radians(56.0), 3),
    Constellation.BDS: (27906e3, np.radians(55.0), 3),
}

VISIBILITY_MASK = np.radians(5.0)

# epochs simulated at a time, which bounds the (epoch, satellite) arrays
BLOCK_EPOCHS = 128


class OrbitElements(NamedTuple):
    """Circular Keplerian orbit; a list of them reads as (n, 4) rows."""

    semi_major: float          # [m]
    inclination: float         # [rad]
    raan: float                # right ascension of ascending node [rad]
    arg_lat0: float            # argument of latitude at reference time [rad]


@dataclass
class NoiseConfig(Checked):
    # a zero sigma simulates that measurement without noise
    pseudorange_sigma: float = setting(0.5, 0.0)   # [m] at zenith
    phase_sigma: float = setting(0.003, 0.0)       # [m] at zenith
    doppler_sigma: float = setting(0.02, 0.0)      # [m/s], flat in elevation


@dataclass
class ReceiverClockConfig(Checked):
    bias0: float = setting(1e-4)     # [s]
    drift: float = setting(2e-9)     # [s/s]


@dataclass
class TrajectoryConfig(Checked):
    kind: str = "static"             # static | line | circle | waypoints
    speed: float = setting(1.0, above=0.0)       # [m/s]
    radius: float = setting(30.0, above=0.0)     # circle radius [m]
    waypoints: list = field(default_factory=list)  # ENU [m] relative to origin
    blend: float = setting(2.0, 0.0)             # corner blend duration [s]

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in ("static", "line", "circle", "waypoints"):
            raise ValueError(f"unknown trajectory kind: {self.kind}")


@dataclass
class ScenarioConfig(Checked):
    duration: float = setting(200.0, above=0.0)  # [s]
    rate: float = setting(1.0, above=0.0)        # [Hz]
    start_time: GpsTime = field(default_factory=lambda: GpsTime(2200, 259200.0))
    origin: GeodeticPosition = field(
        default_factory=lambda: GeodeticPosition(np.radians(35.7),
                                                 np.radians(139.8), 50.0))
    trajectory: TrajectoryConfig = field(default_factory=TrajectoryConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    receiver_clock: ReceiverClockConfig = field(default_factory=ReceiverClockConfig)
    satellite_clock_bias_sigma: float = setting(1e-4, 0.0)    # [s]
    satellite_clock_drift_sigma: float = setting(1e-13, 0.0)  # [s/s]
    counts: dict = field(default_factory=lambda: {Constellation.GPS: 31,
                                                  Constellation.GAL: 24,
                                                  Constellation.BDS: 24})
    cycle_slips: list = field(default_factory=list)  # [(SatelliteId, seconds), ...]
    iono: KlobucharParams | None = field(default_factory=KlobucharParams.typical)
    tropo: TropoModel | None = field(default_factory=TropoModel)
    seed: int = setting(1, 0)

    def __post_init__(self):
        super().__post_init__()
        week = self.start_time.week
        if isinstance(week, bool) or not isinstance(week, Integral):
            raise ValueError(f"start_time week must be an integer, "
                             f"not {week!r}")
        for const, n in self.counts.items():
            if (isinstance(n, bool) or not isinstance(n, Integral)
                    or not 0 <= n <= 64):
                raise ValueError(f"{const.name} satellite count must be an "
                                 f"integer in 0-64, not {n!r}")
        for sat, _ in self.cycle_slips:
            if sat.prn > self.counts.get(sat.constellation, 0):
                raise ValueError(f"cycle slip on {sat}, which the scenario "
                                 "does not have")


@dataclass(frozen=True)
class TruthRecord:
    time: GpsTime
    position: np.ndarray
    velocity: np.ndarray


def generate_constellation(seed: int, counts: dict) -> dict[SatelliteId, OrbitElements]:
    """Deterministic nominal constellation, one entry per satellite."""
    rng = np.random.default_rng(seed)
    elements = {}
    for const in sorted(counts, key=lambda c: c.value):
        n = counts[const]
        a, incl, planes = ORBIT_SHELLS[const]
        jitter = rng.uniform(-0.15, 0.15, size=max(n, 1))
        slots_per_plane = -(-n // planes)
        for k in range(n):
            plane = k % planes
            slot = k // planes
            elements[SatelliteId(const, k + 1)] = OrbitElements(
                semi_major=a,
                inclination=incl,
                raan=2 * np.pi * plane / planes + jitter[k] * 0.1,
                # even in-plane spacing, staggered between planes, small jitter
                arg_lat0=(2 * np.pi * slot / slots_per_plane
                          + 2 * np.pi * plane / (planes * slots_per_plane)
                          + jitter[k]) % (2 * np.pi),
            )
    return elements


def propagate(orbits, dt) -> np.ndarray:
    """ECEF positions and velocities of `orbits` at each of the (m,) times
    `dt` [s] after the reference time: (m, n, 6), one row per orbit."""
    dt = np.asarray(dt, dtype=float)
    a, incl, raan, arg_lat0 = np.reshape(orbits, (-1, 4)).T
    n = np.sqrt(GM_EARTH / scalar_pow(a, 3))
    u = arg_lat0[:, None] + n[:, None] * dt
    cos_u, sin_u, zero = np.cos(u), np.sin(u), np.zeros_like(u)
    p_orb = a[:, None, None] * np.stack([cos_u, sin_u, zero], -1)
    v_orb = (a * n)[:, None, None] * np.stack([-sin_u, cos_u, zero], -1)

    ci, si = np.cos(incl), np.sin(incl)
    co, so = np.cos(raan), np.sin(raan)
    rot = np.moveaxis(np.array([
        [co, -so * ci, so * si],
        [so, co * ci, -co * si],
        [np.zeros_like(si), si, ci],
    ]), -1, 0)
    p_eci = _rotate(p_orb, rot).swapaxes(0, 1)
    v_eci = _rotate(v_orb, rot).swapaxes(0, 1)

    theta = OMGE * dt
    c, s = np.cos(theta), np.sin(theta)
    zero, one = np.zeros_like(c), np.ones_like(c)
    frame, dframe = (np.moveaxis(m, -1, 0) for m in (
        np.array([[c, s, zero], [-s, c, zero], [zero, zero, one]]),
        OMGE * np.array([[-s, c, zero], [-c, -s, zero], [zero, zero, zero]])))
    return np.concatenate([
        _rotate(p_eci, frame),
        _rotate(v_eci, frame) + _rotate(p_eci, dframe)], -1)


def _rotate(rows: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """Each (r, 3) matrix of the (k, r, 3) `rows` rotated by its 3x3 of
    the (k, 3, 3) `rotations`, as (k, r, 3) rows.

    Each rotation row meets the matrix in one BLAS gemv, which rounds a
    row as the one-vector `rotation @ p` does; a stacked product of the
    rotations would round differently, and a satellite's state must not
    depend on the times and satellites that share the call.
    """
    turned = np.ascontiguousarray(rows)[:, None] @ rotations[..., None]
    return turned[..., 0].swapaxes(1, 2)


def generate_trajectory(config: ScenarioConfig) -> list[TruthRecord]:
    """Truth positions/velocities at the observation rate, C1 continuous,
    on arrays over the epochs; each ECEF row takes one gemv, as a lone
    `to_ecef @ p` does, so it rounds alike in any session."""
    dt = 1.0 / config.rate
    steps = int(round(config.duration * config.rate))
    times = [config.start_time.add(k * dt) for k in range(steps + 1)]
    origin_ecef = geodetic_to_ecef(config.origin)
    to_ecef = enu_rotation(config.origin).T

    traj = config.trajectory
    k = np.arange(steps + 1)
    zero = np.zeros(steps + 1)
    if traj.kind == "static":
        p = v = np.zeros((steps + 1, 3))
    elif traj.kind == "line":
        p = np.stack([traj.speed * k * dt, zero, zero], -1)
        v = np.stack([np.full_like(zero, traj.speed), zero, zero], -1)
    elif traj.kind == "circle":
        wt = traj.speed / traj.radius * (k * dt)
        p = traj.radius * np.stack([np.sin(wt), 1.0 - np.cos(wt), zero], -1)
        v = traj.speed * np.stack([np.cos(wt), np.sin(wt), zero], -1)
    else:
        p, v = _waypoint_profile(traj, k * dt)

    positions = origin_ecef + (to_ecef @ p[..., None])[..., 0]
    velocities = (to_ecef @ v[..., None])[..., 0]
    return list(map(TruthRecord, times, positions, velocities))


def _waypoint_profile(traj: TrajectoryConfig, times: np.ndarray):
    """Constant-speed polyline with cosine velocity blends at corners: ENU
    positions and velocities (m, 3) at `times` [s], from 0. A position is
    the last plus the trapezoid sum over 20 steps of its epoch's interval,
    `BLOCK_EPOCHS` intervals at a time so the fine grid stays bounded."""
    wps = [np.asarray(w, dtype=float) for w in traj.waypoints]
    if len(wps) < 2:
        raise InvalidWaypoints("need at least two waypoints")
    ends, directions = [], []
    t0 = 0.0
    for a, b in zip(wps[:-1], wps[1:]):
        length = np.linalg.norm(b - a)
        if length < 1e-9:
            raise InvalidWaypoints("zero-length segment")
        if length / traj.speed < traj.blend:
            raise InvalidWaypoints(
                f"segment shorter than blend window ({length:.1f} m)")
        t0 += length / traj.speed
        ends.append(t0)
        directions.append((b - a) / length)
    total, ends, blend = t0, np.array(ends), traj.blend
    cruise = traj.speed * np.array(directions)

    def segment(t):
        # the first segment whose span holds t; zero outside (0, total)
        k = np.searchsorted(ends, t).clip(max=len(ends) - 1)
        return np.where(((t > 0.0) & (t < total))[..., None], cruise[k], 0.0)

    def ramp(t):
        return 0.5 * (1.0 - np.cos(np.pi * t / blend))[..., None]

    h = blend / 2.0
    corners = [(te, segment(te - h), segment(te + h)) for te in ends[:-1]]

    def velocity(t):
        # one mask per case, the first case that holds wins: outside
        # (0, total), start and stop ramps (fully inside it), the cosine
        # blend of each interior corner, the segment
        v = np.zeros(t.shape + (3,))
        todo = (t > 0.0) & (t < total)
        start = todo & (t < blend)
        todo &= ~start
        v[start] = ramp(t[start]) * segment(blend)
        stop = todo & (t > total - blend)
        todo &= ~stop
        v[stop] = ramp(total - t[stop]) * segment(total - blend)
        for te, before, after in corners:
            mask = todo & (abs(t - te) < h)
            todo &= ~mask
            w = ramp(t[mask] - (te - h))
            v[mask] = (1.0 - w) * before + w * after
        v[todo] = segment(t[todo])
        return v

    positions, velocities = [wps[0][None]], [velocity(times[:1])]
    for start in range(1, len(times), BLOCK_EPOCHS):
        stop = min(start + BLOCK_EPOCHS, len(times))
        grid = np.linspace(times[start - 1:stop - 1], times[start:stop],
                           21, axis=1)
        v = velocity(grid)
        area = np.diff(grid)[..., None] * (v[:, 1:] + v[:, :-1]) / 2.0
        positions.append(np.cumsum(np.vstack([positions[-1][-1:],
                                              area.sum(axis=1)]), axis=0)[1:])
        velocities.append(v[:, -1])
    return np.concatenate(positions), np.concatenate(velocities)


def run_scenario(config: ScenarioConfig):
    """Full simulation: truth records, epochs, and per epoch the states of
    its satellites, an array of `STATE_COLUMNS` aligned to its rows.

    A satellite is observed where it stands above `VISIBILITY_MASK`. Its
    carrier lock arc, with one random ambiguity, restarts where it comes
    into view or a scheduled cycle slip falls. The session is simulated
    `BLOCK_EPOCHS` epochs at a time on (epoch, satellite) arrays; only
    each satellite's lock count and ambiguity carry from block to block.
    """
    constellation = generate_constellation(config.seed, config.counts)
    sats = sorted(constellation, key=SatelliteId.sort_key)
    orbits = np.reshape([constellation[sat] for sat in sats], (-1, 4))
    column = {sat: k for k, sat in enumerate(sats)}
    sat_bias0, sat_drift = np.random.default_rng(config.seed + 1).normal(
        0.0, [config.satellite_clock_bias_sigma,
              config.satellite_clock_drift_sigma], (len(sats), 2)).T
    keys = np.array([sat.key for sat in sats], dtype=int)
    wavelengths = np.array([carrier_wavelength(sat, glonass_channel(sat.prn))
                            for sat in sats])
    sigmas = astuple(config.noise)
    receiver_clock = config.receiver_clock
    rng = np.random.default_rng(config.seed + 2)
    truth = generate_trajectory(config)
    # per satellite at the last epoch: lock count (-1 out of view) and the
    # ambiguity of its arc
    lock, ambiguity = np.full(len(sats), -1), np.zeros(len(sats), dtype=int)
    epochs, states = [], []
    for start in range(0, len(truth), BLOCK_EPOCHS):
        block = truth[start:start + BLOCK_EPOCHS]
        elapsed = np.array([record.time - config.start_time
                            for record in block])
        receiver = np.array([record.position for record in block])
        bias = sat_bias0 + sat_drift * elapsed[:, None]
        state = np.dstack([propagate(orbits, elapsed), bias,
                           np.broadcast_to(sat_drift, bias.shape)])
        geo = ecef_to_geodetic(receiver)
        el, az = (a.reshape(bias.shape) for a in elevation_azimuth(
            geo, state[..., :3].reshape(-1, 3),
            np.repeat(np.arange(len(block)), len(sats))))
        visible = el >= VISIBILITY_MASK

        slipped = np.zeros_like(visible)
        for sat, when in config.cycle_slips:
            slipped[:, column[sat]] |= (
                (elapsed - 1.0 / config.rate < when) & (when <= elapsed + 1e-9))
        starts = visible & (slipped | ~np.vstack([lock >= 0, visible[:-1]]))
        # rows in (epoch, satellite) order; a new arc draws its ambiguity
        # before its row's three noise draws
        epoch_of, sat_of = np.nonzero(visible)
        new = np.flatnonzero(starts[epoch_of, sat_of])
        noise, drawn, done = [], [], 0
        for row in new:
            noise.append(rng.normal(0.0, sigmas, (row - done, 3)))
            drawn.append(rng.integers(-1_000_000, 1_000_000))
            done = row
        noise.append(rng.normal(0.0, sigmas, (len(epoch_of) - done, 3)))
        noise = np.concatenate(noise)

        # the epoch each arc started (-1 - lock if before the block); row 0
        # of `arcs` holds the ambiguities carried over, row 1 + k those of k
        index = np.arange(len(block))[:, None]
        arc_start = np.maximum.accumulate(np.where(starts, index, -1 - lock))
        arcs = np.vstack([ambiguity, np.zeros(visible.shape, dtype=int)])
        arcs[1 + epoch_of[new], sat_of[new]] = drawn
        arc_ambiguity = arcs[np.maximum(arc_start, -1) + 1, range(len(sats))]
        lock = np.where(visible[-1], len(block) - 1 - arc_start[-1], -1)
        ambiguity = arc_ambiguity[-1]

        rows = state[epoch_of, sat_of]
        el, az = el[epoch_of, sat_of], az[epoch_of, sat_of]
        user = geo.take(epoch_of)
        unit, rng_m = line_of_sight(receiver[epoch_of], rows[:, :3])
        tow = np.array([record.time.tow for record in block])[epoch_of]
        iono = (klobuchar_delay(config.iono, tow, user, el, az)
                if config.iono else np.zeros(len(rows)))
        tropo = (saastamoinen_delay(config.tropo, geo, el, epoch_of)
                 if config.tropo else np.zeros(len(rows)))
        clock_m = CLIGHT * ((receiver_clock.bias0 + receiver_clock.drift
                             * elapsed)[epoch_of] - rows[:, 6])
        wavelength = wavelengths[sat_of]
        code = rng_m + clock_m + iono + tropo + noise[:, 0] * (1.0 / np.sin(el))
        # carrier tracking noise varies only weakly with elevation for a
        # clean-sky antenna, so phase noise is flat (like Doppler below)
        phase_m = (rng_m + clock_m - iono + tropo
                   + wavelength * arc_ambiguity[epoch_of, sat_of]
                   + noise[:, 1])
        velocity = np.array([record.velocity for record in block])
        range_rate = (np.vecdot(rows[:, 3:6] - velocity[epoch_of], unit)
                      + CLIGHT * (receiver_clock.drift - rows[:, 7]))
        # Doppler noise is flat in elevation; a 1/sin(el) inflation would
        # contradict the cm/s velocity accuracy the defaults must yield
        doppler = -(range_rate + noise[:, 2]) / wavelength
        columns = (keys[sat_of], code, phase_m / wavelength, doppler,
                   wavelength, (index - arc_start)[epoch_of, sat_of],
                   35.0 + 15.0 * np.sin(el))
        bounds = np.cumsum(np.append(0, visible.sum(axis=1)))
        for record, begin, end in zip(block, bounds[:-1], bounds[1:]):
            epochs.append(Epoch(record.time, *(c[begin:end] for c in columns)))
            states.append(rows[begin:end])
    return truth, epochs, states
