import math

import numpy as np
import pytest

from gnssgraph.constants import GM_EARTH, OMGE
from gnssgraph.errors import InvalidWaypoints
from gnssgraph.sim import (NoiseConfig, ReceiverClockConfig, ScenarioConfig,
                           TrajectoryConfig, _waypoint_profile,
                           generate_constellation, generate_trajectory,
                           propagate, run_scenario)
from gnssgraph.types import Constellation, SatelliteId
from sessions import position_of, row_of, slip_schedule
from sim_reference import (_waypoint_profile as waypoint_profile_reference,
                           generate_trajectory_reference,
                           run_scenario_reference)


def noise_free_config(**overrides):
    base = dict(
        duration=30.0,
        noise=NoiseConfig(0.0, 0.0, 0.0),
        satellite_clock_bias_sigma=0.0,
        satellite_clock_drift_sigma=0.0,
        trajectory=TrajectoryConfig(kind="static"),
        seed=4,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConstellation:
    def test_counts_and_radius(self):
        elements = generate_constellation(1, {Constellation.GPS: 31})
        assert len(elements) == 31
        for e in elements.values():
            assert abs(e.semi_major - 26560e3) < 1.0

    def test_deterministic(self):
        a = generate_constellation(9, {Constellation.GPS: 8, Constellation.GAL: 4})
        b = generate_constellation(9, {Constellation.GPS: 8, Constellation.GAL: 4})
        assert a == b

    def test_speed_matches_orbit_rate(self):
        elements = generate_constellation(2, {Constellation.GPS: 4})
        e = next(iter(elements.values()))
        state = propagate([e], [100.0])[0, 0]
        # inertial speed sqrt(mu/a), earth-rotation contribution removed
        v_inertial = state[3:6] + np.cross([0, 0, OMGE], state[:3])
        assert abs(np.linalg.norm(v_inertial) - np.sqrt(GM_EARTH / e.semi_major)) < 1e-3


def propagate_one(e, dt):
    """The ECEF position and velocity of orbit `e` at `dt`, one satellite
    and one time at a time: each rotation applied as `rotation @ p`."""
    a = e.semi_major
    n = np.sqrt(GM_EARTH / a ** 3)
    u = e.arg_lat0 + n * dt
    p_orb = a * np.array([np.cos(u), np.sin(u), 0.0])
    v_orb = a * n * np.array([-np.sin(u), np.cos(u), 0.0])
    ci, si = np.cos(e.inclination), np.sin(e.inclination)
    co, so = np.cos(e.raan), np.sin(e.raan)
    rot = np.array([[co, -so * ci, so * si], [so, co * ci, -co * si],
                    [0.0, si, ci]])
    c, s = np.cos(OMGE * dt), np.sin(OMGE * dt)
    frame = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    dframe = OMGE * np.array([[-s, c, 0.0], [-c, -s, 0.0], [0.0, 0.0, 0.0]])
    return (frame @ (rot @ p_orb),
            frame @ (rot @ v_orb) + dframe @ (rot @ p_orb))


class TestPropagation:
    def test_zero_dt_is_initial_state(self):
        e = next(iter(generate_constellation(3, {Constellation.GAL: 2}).values()))
        s0 = propagate([e], [0.0])[0, 0]
        assert abs(np.linalg.norm(s0[:3]) - e.semi_major) < 1e-3

    def test_radius_constant(self):
        e = next(iter(generate_constellation(3, {Constellation.GPS: 2}).values()))
        radii = np.linalg.norm(propagate([e], [0.0, 500.0, 5000.0])[:, 0, :3],
                               axis=1)
        assert max(radii) - min(radii) < 1e-3

    def test_velocity_matches_finite_difference(self):
        e = next(iter(generate_constellation(5, {Constellation.BDS: 3}).values()))
        h = 0.05
        for t in (0.0, 900.0, 7200.0):
            minus, at, plus = propagate([e], [t - h, t, t + h])[:, 0]
            v_fd = (plus[:3] - minus[:3]) / (2 * h)
            assert np.linalg.norm(at[3:6] - v_fd) < 1e-4

    def test_equals_one_satellite_rotations_bit_for_bit(self):
        """The states of many satellites and times at once are those of
        one satellite and one time, to the bit."""
        elements = list(generate_constellation(
            7, {Constellation.GPS: 31, Constellation.GLO: 24,
                Constellation.GAL: 24, Constellation.BDS: 24}).values())
        dt = np.array([0.0, 0.1, 1.0, 37.5, 900.0, 7200.0, 86399.0])
        states = propagate(elements, dt)
        for k, t in enumerate(dt.tolist()):
            for i, e in enumerate(elements):
                position, velocity = propagate_one(e, t)
                assert states[k, i, :3].tobytes() == position.tobytes()
                assert states[k, i, 3:6].tobytes() == velocity.tobytes()


class TestTrajectory:
    def test_static(self):
        records = generate_trajectory(noise_free_config(duration=10.0))
        p0 = records[0].position
        for r in records:
            assert np.allclose(r.position, p0)
            assert np.allclose(r.velocity, 0.0)

    def test_line_length(self):
        cfg = noise_free_config(
            duration=80.0,
            trajectory=TrajectoryConfig(kind="line", speed=2.5))
        records = generate_trajectory(cfg)
        dist = np.linalg.norm(records[-1].position - records[0].position)
        assert abs(dist - 200.0) < 1e-6

    def test_circle_angular_rate(self):
        cfg = noise_free_config(
            duration=60.0,
            trajectory=TrajectoryConfig(kind="circle", speed=2.0, radius=40.0))
        records = generate_trajectory(cfg)
        speeds = [np.linalg.norm(r.velocity) for r in records]
        assert np.allclose(speeds, 2.0, atol=1e-9)
        # angular rate from chord length: |p1 - p0| = 2 r sin(w dt / 2)
        chord = np.linalg.norm(records[1].position - records[0].position)
        w = 2.0 * np.arcsin(chord / (2 * 40.0))
        assert abs(w - 2.0 / 40.0) < 1e-6

    def test_waypoints_velocity_consistent_with_position(self):
        # at 10 Hz the midpoint-rule error of the oracle is O(dt^2) ~ mm
        cfg = noise_free_config(
            duration=120.0, rate=10.0,
            trajectory=TrajectoryConfig(kind="waypoints", speed=1.0,
                                        waypoints=[[0, 0, 0], [30, 0, 0],
                                                   [30, 30, 0], [0, 30, 0]]))
        records = generate_trajectory(cfg)
        for a, b in zip(records[:-1], records[1:]):
            mid_v = 0.5 * (a.velocity + b.velocity)
            step = b.position - a.position
            assert np.linalg.norm(step - mid_v * 0.1) < 0.01

    def test_waypoints_speed_bound(self):
        cfg = noise_free_config(
            duration=120.0,
            trajectory=TrajectoryConfig(kind="waypoints", speed=2.5,
                                        waypoints=[[0, 0, 0], [50, 0, 0],
                                                   [50, 50, 0]]))
        for r in generate_trajectory(cfg):
            assert np.linalg.norm(r.velocity) < 2.5 + 1e-9

    def test_invalid_waypoints(self):
        with pytest.raises(InvalidWaypoints):
            generate_trajectory(noise_free_config(
                trajectory=TrajectoryConfig(kind="waypoints", waypoints=[[0, 0, 0]])))


class TestSynthesis:
    def test_zero_noise_reduction(self):
        cfg = noise_free_config(
            receiver_clock=ReceiverClockConfig(bias0=0.0, drift=0.0),
            iono=None, tropo=None)
        truth, epochs, states = run_scenario(cfg)
        epoch = epochs[0]
        assert len(epoch) >= 8
        from gnssgraph.coords import line_of_sight
        biases = {}
        for k in (0, 5, 10):
            e = epochs[k]
            for r, sat in enumerate(e.sats.tolist()):
                _, rng_m = line_of_sight(truth[k].position,
                                         position_of(e, states[k], sat))
                assert e.code[r] == rng_m
                bias = e.wavelength[r] * e.phase[r] - rng_m
                cycles = bias / e.wavelength[r]
                assert abs(cycles - round(cycles)) < 1e-6
                if sat in biases:
                    assert abs(biases[sat] - bias) < 1e-6
                else:
                    biases[sat] = bias

    def test_determinism(self):
        cfg = ScenarioConfig(duration=5.0, seed=12)
        _, e1, _ = run_scenario(cfg)
        cfg2 = ScenarioConfig(duration=5.0, seed=12)
        _, e2, _ = run_scenario(cfg2)
        for a, b in zip(e1, e2):
            assert a.time == b.time
            for name in ("sats", "code", "phase", "doppler", "wavelength",
                         "lock", "snr"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_visibility_band(self):
        cfg = ScenarioConfig(duration=600.0, counts={Constellation.GPS: 31},
                             seed=3)
        _, epochs, _ = run_scenario(cfg)
        for epoch in epochs[::60]:
            assert 6 <= len(epoch) <= 13

    def test_phase_rate_consistent_with_doppler(self):
        cfg = noise_free_config(duration=10.0, iono=None, tropo=None,
                                receiver_clock=ReceiverClockConfig(0.0, 0.0))
        _, epochs, _ = run_scenario(cfg)
        for e0, e1, e2 in zip(epochs[:-2], epochs[1:-1], epochs[2:]):
            for r, sat in enumerate(e1.sats.tolist()):
                a, b = row_of(e0, sat), row_of(e2, sat)
                if a is None or b is None or e0.lock[a] > e2.lock[b]:
                    continue
                wavelength = e1.wavelength[r]
                phase_rate = wavelength * (e2.phase[b] - e0.phase[a]) / 2.0
                assert abs(phase_rate - (-wavelength * e1.doppler[r])) < 0.05

    def test_cycle_slip_schedule(self):
        sat = SatelliteId(Constellation.GPS, 7)
        cfg = noise_free_config(duration=100.0, iono=None, tropo=None,
                                receiver_clock=ReceiverClockConfig(0.0, 0.0),
                                cycle_slips=[(sat, 50.0)])
        truth, epochs, states = run_scenario(cfg)
        from gnssgraph.coords import line_of_sight

        def lock_and_bias(k):
            e, r = epochs[k], row_of(epochs[k], sat)
            if r is None:
                return None, None
            _, rng_m = line_of_sight(truth[k].position,
                                     position_of(e, states[k], sat))
            return e.lock[r], e.wavelength[r] * e.phase[r] - rng_m

        l49, b49 = lock_and_bias(49)
        l50, b50 = lock_and_bias(50)
        l51, b51 = lock_and_bias(51)
        assert l49 is not None and l50 == 0 and l51 == 1
        jump = (b50 - b49) / epochs[50].wavelength[row_of(epochs[50], sat)]
        assert abs(jump - round(jump)) < 1e-6 and abs(jump) > 0.5
        assert abs(b51 - b50) < 1e-6

    def test_no_satellites(self):
        """A count of 0, which the config accepts, gives empty epochs."""
        cfg = ScenarioConfig(duration=5.0, counts={Constellation.GPS: 0})
        _, epochs, states = run_scenario(cfg)
        assert [len(e) for e in epochs] == [0] * 6
        assert epochs[0].sats.dtype == int and states[0].shape == (0, 8)

    def test_lock_arcs(self):
        """Lock is 0 where an arc starts (epoch 0, a satellite entering
        view, a scheduled slip), grows by one per epoch along the arc, and
        the arc's carrier bias stays constant."""
        slip = (SatelliteId(Constellation.GPS, 7), 300.0)
        cfg = noise_free_config(duration=600.0, iono=None, tropo=None,
                                receiver_clock=ReceiverClockConfig(0.0, 0.0),
                                cycle_slips=[slip])
        truth, epochs, states = run_scenario(cfg)
        from gnssgraph.coords import line_of_sight
        arcs = {}  # satellite key -> (lock, bias) at the previous epoch
        starts = []
        for k, epoch in enumerate(epochs):
            _, ranges = line_of_sight(truth[k].position, states[k][:, :3])
            biases = epoch.wavelength * epoch.phase - ranges
            seen = {}
            for sat, lock, bias in zip(epoch.sats.tolist(),
                                       epoch.lock.tolist(), biases):
                if sat not in arcs or (sat, k) == (slip[0].key, 300):
                    assert lock == 0
                    starts.append((sat, k))
                else:
                    assert lock == arcs[sat][0] + 1
                    assert abs(bias - arcs[sat][1]) < 1e-6
                seen[sat] = (lock, bias)
            arcs = seen
        assert [s for s in starts if s[1] > 0] == [(7, 300), (223, 465),
                                                   (204, 599)]

    def test_empty_schedule_constant_bias(self):
        cfg = noise_free_config(duration=40.0, iono=None, tropo=None,
                                receiver_clock=ReceiverClockConfig(0.0, 0.0))
        truth, epochs, states = run_scenario(cfg)
        from gnssgraph.coords import line_of_sight
        biases = {}
        for k, epoch in enumerate(epochs):
            for r, sat in enumerate(epoch.sats.tolist()):
                _, rng_m = line_of_sight(truth[k].position,
                                         position_of(epoch, states[k], sat))
                bias = epoch.wavelength[r] * epoch.phase[r] - rng_m
                if sat in biases:
                    assert abs(bias - biases[sat]) < 1e-6
                biases[sat] = bias


class TestConfigValidation:
    @pytest.mark.parametrize("values", [
        dict(kind="spiral"), dict(speed=0.0), dict(speed=-1.0),
        dict(speed=math.nan), dict(speed=math.inf), dict(radius=0.0),
        dict(radius=-30.0), dict(radius=math.nan), dict(blend=-1.0),
        dict(blend=math.nan), dict(blend=math.inf)],
        ids=["kind-unknown", "speed-zero", "speed-negative", "speed-nan",
             "speed-infinite", "radius-zero", "radius-negative", "radius-nan",
             "blend-negative", "blend-nan", "blend-infinite"])
    def test_bad_trajectory_setting_raises(self, values):
        with pytest.raises(ValueError):
            TrajectoryConfig(**values)

    @pytest.mark.parametrize("name", ["pseudorange_sigma", "phase_sigma",
                                      "doppler_sigma"])
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_bad_noise_sigma_raises(self, name, value):
        with pytest.raises(ValueError, match=name):
            NoiseConfig(**{name: value})

    def test_zero_noise_and_zero_blend_pass(self):
        NoiseConfig(0.0, 0.0, 0.0)
        TrajectoryConfig(kind="waypoints", waypoints=[[0, 0, 0], [5, 0, 0]],
                         blend=0.0)


SQUARE = [[0, 0, 0], [50, 0, 0], [50, 50, 0], [0, 50, 0], [0, 0, 0]]
# legs of 2.5 s under a 2 s blend: the start ramp overlaps the first
# corner's blend and the stop ramp the last one's
SHORT_LEGS = [[0, 0, 0], [2.5, 0, 0], [2.5, 20, 0], [0, 20, 0],
              [0, 17.5, 0]]
SKEWED = [[0, 0, 0], [30.3, 0, 0], [30.3, 17.7, 1], [0, 30, 0]]
TRAJECTORIES = {
    "static": TrajectoryConfig(),
    "line": TrajectoryConfig(kind="line", speed=2.3),
    "circle": TrajectoryConfig(kind="circle", speed=1.7, radius=23.0),
    "square": TrajectoryConfig(kind="waypoints", waypoints=SQUARE),
    "square-no-blend": TrajectoryConfig(kind="waypoints", waypoints=SQUARE,
                                        blend=0.0),
    "short-legs": TrajectoryConfig(kind="waypoints", waypoints=SHORT_LEGS),
    "skewed": TrajectoryConfig(kind="waypoints", speed=1.3,
                               waypoints=SKEWED),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMatchesReference:
    """The array simulator equals the per-sample reference bit for bit."""

    @pytest.mark.parametrize("rate", [1.0, 2.0, 10.0])
    @pytest.mark.parametrize("name", list(TRAJECTORIES))
    def test_trajectory(self, name, rate):
        # 230 s runs past the end of every polyline
        cfg = ScenarioConfig(duration=230.0, rate=rate,
                             trajectory=TRAJECTORIES[name])
        expected = generate_trajectory_reference(cfg)
        records = generate_trajectory(cfg)
        assert [r.time for r in records] == [r.time for r in expected]
        for field in ("position", "velocity"):
            assert same_bits([getattr(r, field) for r in records],
                             [getattr(r, field) for r in expected])

    @pytest.mark.parametrize("rate", [1.0, 2.0, 10.0])
    @pytest.mark.parametrize("name", [name for name, traj in
                                      TRAJECTORIES.items()
                                      if traj.kind == "waypoints"])
    def test_waypoint_profile(self, name, rate):
        """The ENU profile as well: the last bits of its integration
        round away in the ECEF records."""
        times = np.arange(int(230.0 * rate) + 1) * (1.0 / rate)
        positions, velocities = _waypoint_profile(TRAJECTORIES[name], times)
        expected = waypoint_profile_reference(TRAJECTORIES[name],
                                              times.tolist())
        assert same_bits(positions, [p for p, _ in expected])
        assert same_bits(velocities, [v for _, v in expected])

    @pytest.mark.parametrize("rate", [1.0, 2.0, 10.0])
    def test_square_samples_the_blend_edges(self, rate):
        """The square's samples land exactly on each corner time te +- h
        (h half the 2 s blend) and on the end of the polyline."""
        times = set((np.arange(int(230.0 * rate) + 1) * (1.0 / rate)).tolist())
        assert {49.0, 51.0, 99.0, 101.0, 149.0, 151.0, 200.0} <= times

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(duration=60.0),
        ScenarioConfig(duration=30.0, rate=10.0,
                       trajectory=TRAJECTORIES["circle"], seed=5),
        ScenarioConfig(duration=200.0, trajectory=TRAJECTORIES["square"]),
    ], ids=["default", "circle-10hz", "square-slips"])
    def test_run_scenario(self, cfg):
        if cfg.trajectory.kind == "waypoints":
            cfg.cycle_slips = slip_schedule(cfg)
        truth, epochs, states = run_scenario(cfg)
        truth_ref, epochs_ref, states_ref = run_scenario_reference(cfg)
        assert len(truth) == len(truth_ref) and len(epochs) == len(epochs_ref)
        assert same_bits([r.position for r in truth],
                         [r.position for r in truth_ref])
        for epoch, expected in zip(epochs, epochs_ref):
            assert epoch.time == expected.time
            for name in ("sats", "code", "phase", "doppler", "wavelength",
                         "lock", "snr"):
                assert same_bits(getattr(epoch, name),
                                 getattr(expected, name))
        assert all(map(same_bits, states, states_ref))
