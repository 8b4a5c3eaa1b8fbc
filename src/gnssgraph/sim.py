"""Synthetic GNSS world: constellations, truth trajectories, raw measurements.

Replaces real flight data as the verification oracle. Measurement models
mirror the conventions of the estimators exactly (same line-of-sight,
atmosphere, and sign conventions), so zero-noise runs close to machine
precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atmosphere import KlobucharParams, TropoModel, klobuchar_delay, saastamoinen_delay
from .constants import CLIGHT, GM_EARTH, OMGE
from .coords import ecef_to_geodetic, elevation_azimuth, enu_rotation, geodetic_to_ecef, line_of_sight
from .errors import InvalidWaypoints
from .gnsstime import GpsTime
from .rinex import carrier_wavelength
from .types import (Constellation, Epoch, GeodeticPosition, SatelliteId,
                    SatelliteState)

# nominal circular-orbit shells: semi-major axis [m], inclination [rad], planes
ORBIT_SHELLS = {
    Constellation.GPS: (26560e3, np.radians(55.0), 6),
    Constellation.GLO: (25510e3, np.radians(64.8), 3),
    Constellation.GAL: (29600e3, np.radians(56.0), 3),
    Constellation.BDS: (27906e3, np.radians(55.0), 3),
}

VISIBILITY_MASK = np.radians(5.0)


@dataclass(frozen=True)
class OrbitElements:
    """Circular Keplerian orbit plus a linear clock model."""

    sat: SatelliteId
    semi_major: float          # [m]
    inclination: float         # [rad]
    raan: float                # right ascension of ascending node [rad]
    arg_lat0: float            # argument of latitude at reference time [rad]
    clock_bias: float          # [s]
    clock_drift: float         # [s/s]


@dataclass
class NoiseConfig:
    pseudorange_sigma: float = 0.5   # [m] at zenith
    phase_sigma: float = 0.003       # [m] at zenith
    doppler_sigma: float = 0.02      # [m/s], flat in elevation


@dataclass
class ReceiverClockConfig:
    bias0: float = 1e-4              # [s]
    drift: float = 2e-9              # [s/s]


@dataclass
class TrajectoryConfig:
    kind: str = "static"             # static | line | circle | waypoints
    speed: float = 1.0               # [m/s]
    radius: float = 30.0             # circle radius [m]
    waypoints: list = field(default_factory=list)  # ENU [m] relative to origin
    blend: float = 2.0               # corner blend duration [s]


@dataclass
class ScenarioConfig:
    duration: float = 200.0
    rate: float = 1.0                # [Hz]
    start_time: GpsTime = field(default_factory=lambda: GpsTime(2200, 259200.0))
    origin: GeodeticPosition = field(
        default_factory=lambda: GeodeticPosition(np.radians(35.7),
                                                 np.radians(139.8), 50.0))
    trajectory: TrajectoryConfig = field(default_factory=TrajectoryConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    receiver_clock: ReceiverClockConfig = field(default_factory=ReceiverClockConfig)
    satellite_clock_bias_sigma: float = 1e-4   # [s]
    satellite_clock_drift_sigma: float = 1e-13  # [s/s]
    counts: dict = field(default_factory=lambda: {Constellation.GPS: 31,
                                                  Constellation.GAL: 24,
                                                  Constellation.BDS: 24})
    cycle_slips: list = field(default_factory=list)  # [(SatelliteId, seconds), ...]
    iono: KlobucharParams | None = field(default_factory=KlobucharParams.typical)
    tropo: TropoModel | None = field(default_factory=TropoModel)
    seed: int = 1

    def __post_init__(self):
        if self.duration <= 0 or self.rate <= 0:
            raise ValueError("duration and rate must be positive")


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
        if n < 0:
            raise ValueError("satellite count must be non-negative")
        a, incl, planes = ORBIT_SHELLS[const]
        jitter = rng.uniform(-0.15, 0.15, size=max(n, 1))
        slots_per_plane = -(-n // planes)
        for k in range(n):
            plane = k % planes
            slot = k // planes
            sat = SatelliteId(const, k + 1)
            elements[sat] = OrbitElements(
                sat=sat,
                semi_major=a,
                inclination=incl,
                raan=2 * np.pi * plane / planes + jitter[k] * 0.1,
                # even in-plane spacing, staggered between planes, small jitter
                arg_lat0=(2 * np.pi * slot / slots_per_plane
                          + 2 * np.pi * plane / (planes * slots_per_plane)
                          + jitter[k]) % (2 * np.pi),
                clock_bias=0.0,  # assigned per scenario
                clock_drift=0.0,
            )
    return elements


def _with_clocks(elements: dict, rng: np.random.Generator, bias_sigma: float,
                 drift_sigma: float) -> dict:
    out = {}
    for sat in sorted(elements, key=lambda s: s.sort_key()):
        e = elements[sat]
        out[sat] = OrbitElements(e.sat, e.semi_major, e.inclination, e.raan,
                                 e.arg_lat0,
                                 clock_bias=rng.normal(0.0, bias_sigma),
                                 clock_drift=rng.normal(0.0, drift_sigma))
    return out


def propagate_satellite(elements: OrbitElements, dt: float) -> SatelliteState:
    """Propagate a circular orbit by dt seconds and express it in ECEF."""
    a = elements.semi_major
    n = np.sqrt(GM_EARTH / a ** 3)
    u = elements.arg_lat0 + n * dt
    p_orb = a * np.array([np.cos(u), np.sin(u), 0.0])
    v_orb = a * n * np.array([-np.sin(u), np.cos(u), 0.0])

    ci, si = np.cos(elements.inclination), np.sin(elements.inclination)
    co, so = np.cos(elements.raan), np.sin(elements.raan)
    rot = np.array([
        [co, -so * ci, so * si],
        [so, co * ci, -co * si],
        [0.0, si, ci],
    ])
    p_eci = rot @ p_orb
    v_eci = rot @ v_orb

    theta = OMGE * dt
    c, s = np.cos(theta), np.sin(theta)
    frame = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    dframe = OMGE * np.array([[-s, c, 0.0], [-c, -s, 0.0], [0.0, 0.0, 0.0]])
    p_ecef = frame @ p_eci
    v_ecef = frame @ v_eci + dframe @ p_eci
    return SatelliteState(p_ecef, v_ecef,
                          elements.clock_bias + elements.clock_drift * dt,
                          elements.clock_drift)


def generate_trajectory(config: ScenarioConfig) -> list[TruthRecord]:
    """Truth positions/velocities at the observation rate, C1 continuous."""
    dt = 1.0 / config.rate
    steps = int(round(config.duration * config.rate))
    times = [config.start_time.add(k * dt) for k in range(steps + 1)]
    origin_ecef = geodetic_to_ecef(config.origin)
    to_ecef = enu_rotation(config.origin).T

    traj = config.trajectory
    if traj.kind == "static":
        enu = [(np.zeros(3), np.zeros(3)) for _ in times]
    elif traj.kind == "line":
        enu = [(np.array([traj.speed * k * dt, 0.0, 0.0]),
                np.array([traj.speed, 0.0, 0.0])) for k in range(steps + 1)]
    elif traj.kind == "circle":
        w = traj.speed / traj.radius
        enu = []
        for k in range(steps + 1):
            t = k * dt
            enu.append((traj.radius * np.array([np.sin(w * t),
                                                1.0 - np.cos(w * t), 0.0]),
                        traj.speed * np.array([np.cos(w * t), np.sin(w * t), 0.0])))
    elif traj.kind == "waypoints":
        enu = _waypoint_profile(traj, [k * dt for k in range(steps + 1)])
    else:
        raise ValueError(f"unknown trajectory kind: {traj.kind}")

    records = []
    for time, (p, v) in zip(times, enu):
        records.append(TruthRecord(time, origin_ecef + to_ecef @ p, to_ecef @ v))
    return records


def _waypoint_profile(traj: TrajectoryConfig, times: list[float]):
    """Constant-speed polyline with cosine velocity blends at corners."""
    wps = [np.asarray(w, dtype=float) for w in traj.waypoints]
    if len(wps) < 2:
        raise InvalidWaypoints("need at least two waypoints")
    segs = []
    t0 = 0.0
    for a, b in zip(wps[:-1], wps[1:]):
        length = np.linalg.norm(b - a)
        if length < 1e-9:
            raise InvalidWaypoints("zero-length segment")
        if length / traj.speed < traj.blend:
            raise InvalidWaypoints(
                f"segment shorter than blend window ({length:.1f} m)")
        segs.append((t0, t0 + length / traj.speed, a, (b - a) / length))
        t0 += length / traj.speed
    total = t0

    def velocity(t):
        if t <= 0.0 or t >= total:
            return np.zeros(3)
        h = traj.blend / 2.0
        # start/stop ramps live fully inside [0, total]
        if t < traj.blend:
            w = 0.5 * (1.0 - np.cos(np.pi * t / traj.blend))
            return w * _seg_velocity(segs, traj.blend, traj.speed, total)
        if t > total - traj.blend:
            w = 0.5 * (1.0 - np.cos(np.pi * (total - t) / traj.blend))
            return w * _seg_velocity(segs, total - traj.blend, traj.speed, total)
        # cosine blends centered on interior corners
        for (_, te, _, _) in segs[:-1]:
            if abs(t - te) < h:
                before = _seg_velocity(segs, te - h, traj.speed, total)
                after = _seg_velocity(segs, te + h, traj.speed, total)
                w = 0.5 * (1.0 - np.cos(np.pi * (t - (te - h)) / traj.blend))
                return (1.0 - w) * before + w * after
        return _seg_velocity(segs, t, traj.speed, total)

    # integrate velocity (trapezoid on a fine grid) for C1 positions
    fine = 20
    out = []
    pos = wps[0].copy()
    prev_t = 0.0
    for t in times:
        if t > prev_t:
            grid = np.linspace(prev_t, t, fine + 1)
            vals = np.array([velocity(g) for g in grid])
            pos = pos + np.trapezoid(vals, grid, axis=0)
            prev_t = t
        out.append((pos.copy(), velocity(t)))
    return out


def _seg_velocity(segs, t, speed, total):
    if t <= 0.0 or t >= total:
        return np.zeros(3)
    for (ts, te, _, direction) in segs:
        if ts <= t <= te:
            return speed * direction
    return np.zeros(3)


class MeasurementSimulator:
    """Stateful epoch synthesizer (lock counters and ambiguities persist)."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        base = generate_constellation(config.seed, config.counts)
        rng = np.random.default_rng(config.seed + 1)
        self.elements = _with_clocks(base, rng,
                                     config.satellite_clock_bias_sigma,
                                     config.satellite_clock_drift_sigma)
        self.rng = np.random.default_rng(config.seed + 2)
        self._locks: dict[SatelliteId, tuple[int, int]] = {}  # sat -> (lock_count, N)
        self._slips = sorted(config.cycle_slips, key=lambda s: s[1])

    def satellite_states(self, time: GpsTime) -> dict[SatelliteId, SatelliteState]:
        dt = time - self.config.start_time
        return {sat: propagate_satellite(e, dt) for sat, e in self.elements.items()}

    def synthesize_epoch(self, truth: TruthRecord) -> Epoch:
        return self._synthesize(truth)[0]

    def _synthesize(self, truth: TruthRecord):
        """The epoch at `truth` and its satellites' `STATE_COLUMNS`."""
        cfg = self.config
        elapsed = truth.time - cfg.start_time
        states = self.satellite_states(truth.time)
        geo = ecef_to_geodetic(truth.position)
        dtr = cfg.receiver_clock.bias0 + cfg.receiver_clock.drift * elapsed

        interval = 1.0 / cfg.rate
        slipped = {sat for sat, when in cfg.cycle_slips
                   if elapsed - interval < when <= elapsed + 1e-9}

        sats = sorted(states, key=lambda s: s.sort_key())
        el, az = elevation_azimuth(
            geo, np.array([states[sat].position for sat in sats]))
        in_view = np.flatnonzero(el >= VISIBILITY_MASK)
        el, az = el[in_view], az[in_view]
        iono = (klobuchar_delay(cfg.iono, truth.time.tow, geo, el, az)
                if cfg.iono else np.zeros(len(in_view)))
        tropo = (saastamoinen_delay(cfg.tropo, geo, el)
                 if cfg.tropo else np.zeros(len(in_view)))

        rows = []
        visible = set()
        for k, row in enumerate(in_view):
            sat = sats[row]
            state = states[sat]
            visible.add(sat)
            unit, rng_m = line_of_sight(truth.position, state)
            wavelength = carrier_wavelength(sat, glonass_channel(sat.prn))

            lock, ambiguity = self._locks.get(sat, (None, None))
            if lock is None or sat in slipped:
                lock = 0
                ambiguity = int(self.rng.integers(-1_000_000, 1_000_000))
            else:
                lock += 1
            self._locks[sat] = (lock, ambiguity)

            scale = 1.0 / np.sin(el[k])
            clock_m = CLIGHT * (dtr - state.clock_bias)
            pseudorange = (rng_m + clock_m + iono[k] + tropo[k]
                           + self.rng.normal(0.0, cfg.noise.pseudorange_sigma) * scale)
            # carrier tracking noise varies only weakly with elevation for a
            # clean-sky antenna, so phase noise is flat (like Doppler below)
            phase_m = (rng_m + clock_m - iono[k] + tropo[k]
                       + wavelength * ambiguity
                       + self.rng.normal(0.0, cfg.noise.phase_sigma))
            range_rate = ((state.velocity - truth.velocity) @ unit
                          + CLIGHT * (cfg.receiver_clock.drift - state.clock_drift))
            # Doppler noise is flat in elevation; a 1/sin(el) inflation would
            # contradict the cm/s velocity accuracy the defaults must yield
            doppler = (-(range_rate
                         + self.rng.normal(0.0, cfg.noise.doppler_sigma))
                       / wavelength)
            snr = 35.0 + 15.0 * np.sin(el[k])
            rows.append((sat.key, pseudorange, phase_m / wavelength, doppler,
                         wavelength, lock, snr, *state.position,
                         *state.velocity, state.clock_bias, state.clock_drift))

        for sat in list(self._locks):
            if sat not in visible:
                del self._locks[sat]
        table = np.array(rows, dtype=float).reshape(-1, 15)
        sats, code, phase, doppler, wavelength, lock, snr = (
            table[:, :7].T.copy())
        return (Epoch(truth.time, sats.astype(int), code, phase, doppler,
                      wavelength, lock.astype(int), snr), table[:, 7:].copy())


def glonass_channel(prn: int) -> int:
    """Frequency channel assignment for simulated GLONASS satellites."""
    return ((prn - 1) % 14) - 7


def run_scenario(config: ScenarioConfig):
    """Full simulation: truth records, epochs, and per epoch the states of
    its satellites, an array of `STATE_COLUMNS` aligned to its rows."""
    sim = MeasurementSimulator(config)
    truth = generate_trajectory(config)
    epochs = []
    states = []
    for record in truth:
        epoch, states_k = sim._synthesize(record)
        epochs.append(epoch)
        states.append(states_k)
    return truth, epochs, states
