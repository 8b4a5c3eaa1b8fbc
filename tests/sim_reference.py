"""The simulator's truth trajectory and observation synthesis as loops
over samples, one epoch at a time: the reference that
`generate_trajectory` and `run_scenario` must equal bit for bit."""

from dataclasses import astuple

import numpy as np

from gnssgraph.atmosphere import klobuchar_delay, saastamoinen_delay
from gnssgraph.constants import CLIGHT
from gnssgraph.coords import (ecef_to_geodetic, elevation_azimuth,
                              enu_rotation, geodetic_to_ecef, line_of_sight)
from gnssgraph.errors import InvalidWaypoints
from gnssgraph.rinex import carrier_wavelength, glonass_channel
from gnssgraph.sim import (BLOCK_EPOCHS, VISIBILITY_MASK, ScenarioConfig,
                           TrajectoryConfig, TruthRecord,
                           generate_constellation, propagate)
from gnssgraph.types import Epoch, SatelliteId


def generate_trajectory_reference(config: ScenarioConfig) -> list[TruthRecord]:
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


def run_scenario_reference(config: ScenarioConfig):
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
    orbits = [constellation[sat] for sat in sats]
    sat_bias0, sat_drift = np.random.default_rng(config.seed + 1).normal(
        0.0, [config.satellite_clock_bias_sigma,
              config.satellite_clock_drift_sigma], (len(sats), 2)).T
    keys = np.array([sat.key for sat in sats], dtype=int)
    wavelengths = np.array([carrier_wavelength(sat, glonass_channel(sat.prn))
                            for sat in sats])
    sigmas = astuple(config.noise)
    receiver_clock = config.receiver_clock
    rng = np.random.default_rng(config.seed + 2)
    truth = generate_trajectory_reference(config)
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
            slipped[:, sats.index(sat)] |= (
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
