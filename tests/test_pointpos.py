import numpy as np
import pytest

from gnssgraph.errors import InsufficientSatellites
from gnssgraph.geometry import EpochGeometry
from gnssgraph.pointpos import (SolverConfig, pseudorange_variance,
                                solve_doppler_velocity, solve_spp)
from gnssgraph.sim import (MeasurementSimulator, NoiseConfig, ReceiverClockConfig,
                           ScenarioConfig, TrajectoryConfig, run_scenario)
from gnssgraph.types import Constellation, Epoch, SatelliteState


def scenario(**overrides):
    base = dict(
        duration=10.0,
        noise=NoiseConfig(0.0, 0.0, 0.0),
        satellite_clock_bias_sigma=1e-4,
        satellite_clock_drift_sigma=0.0,
        iono=None, tropo=None,
        trajectory=TrajectoryConfig(kind="static"),
        seed=21,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def doppler_at(epoch, states, position):
    return solve_doppler_velocity(EpochGeometry(epoch, states).at(position))


class TestPseudorangeVariance:
    def test_zenith(self):
        assert abs(pseudorange_variance(np.pi / 2) - 0.18) < 1e-12

    def test_thirty_degrees(self):
        assert abs(pseudorange_variance(np.radians(30.0)) - 0.45) < 1e-12

    def test_strictly_decreasing(self):
        els = np.linspace(0.05, np.pi / 2, 100)
        var = [pseudorange_variance(e) for e in els]
        assert all(np.diff(var) < 0)

    def test_rejects_bad_elevation(self):
        with pytest.raises(ValueError):
            pseudorange_variance(0.0)


class TestSpp:
    def test_zero_noise_gps_only(self):
        cfg = scenario(counts={Constellation.GPS: 31})
        truth, epochs, states = run_scenario(cfg)
        sol = solve_spp(EpochGeometry(epochs[0], states[0]))
        assert np.linalg.norm(sol.position - truth[0].position) < 1e-6
        expected_bias = 299792458.0 * cfg.receiver_clock.bias0
        assert abs(sol.clock_biases[Constellation.GPS] - expected_bias) < 1e-6

    def test_with_atmosphere_corrected(self):
        from gnssgraph.atmosphere import KlobucharParams, TropoModel
        cfg = scenario(iono=KlobucharParams.typical(), tropo=TropoModel())
        truth, epochs, states = run_scenario(cfg)
        sol = solve_spp(EpochGeometry(epochs[0], states[0], cfg.iono,
                                      cfg.tropo))
        assert np.linalg.norm(sol.position - truth[0].position) < 1e-6

    def test_mixed_system_biases_recovered(self):
        cfg = scenario(counts={Constellation.GPS: 31, Constellation.GAL: 24},
                       satellite_clock_bias_sigma=1e-4)
        truth, epochs, states = run_scenario(cfg)
        sol = solve_spp(EpochGeometry(epochs[0], states[0]))
        # zero noise: each bias equals the receiver clock in meters exactly
        expected = 299792458.0 * cfg.receiver_clock.bias0
        assert abs(sol.clock_biases[Constellation.GPS] - expected) < 1e-6
        assert abs(sol.clock_biases[Constellation.GAL] - expected) < 1e-6
        assert sol.used_satellites[Constellation.GAL] >= 4

    def test_three_satellites_rejected(self):
        cfg = scenario()
        truth, epochs, states = run_scenario(cfg)
        small = Epoch(epochs[0].time, epochs[0].observations[:3])
        with pytest.raises(InsufficientSatellites):
            solve_spp(EpochGeometry(small, states[0]))

    def test_covariance_psd(self):
        cfg = scenario(noise=NoiseConfig(0.5, 0.003, 0.05))
        _, epochs, states = run_scenario(cfg)
        sol = solve_spp(EpochGeometry(epochs[0], states[0]))
        assert np.allclose(sol.covariance, sol.covariance.T)
        assert np.all(np.linalg.eigvalsh(sol.covariance) >= -1e-12)

    def test_residual_weighted_mean_zero_per_system(self):
        from gnssgraph.constants import CLIGHT
        from gnssgraph.coords import line_of_sight
        cfg = scenario(counts={Constellation.GPS: 31, Constellation.GAL: 24})
        truth, epochs, states = run_scenario(cfg)
        sol = solve_spp(EpochGeometry(epochs[0], states[0]))
        for const in (Constellation.GPS, Constellation.GAL):
            resid = []
            for obs in epochs[0].observations:
                if obs.sat.constellation is not const:
                    continue
                _, rng_m = line_of_sight(sol.position, states[0][obs.sat])
                resid.append(obs.pseudorange - rng_m
                             + CLIGHT * states[0][obs.sat].clock_bias
                             - sol.clock_biases[const])
            assert abs(np.mean(resid)) < 1e-6


class TestDopplerVelocity:
    def test_static_zero_drift(self):
        cfg = scenario(receiver_clock=ReceiverClockConfig(0.0, 0.0))
        truth, epochs, states = run_scenario(cfg)
        sol = doppler_at(epochs[0], states[0], truth[0].position)
        assert np.linalg.norm(sol.velocity) < 1e-9

    def test_moving_truth_recovered(self):
        cfg = scenario(trajectory=TrajectoryConfig(kind="line", speed=2.5))
        truth, epochs, states = run_scenario(cfg)
        k = 3
        sol = doppler_at(epochs[k], states[k], truth[k].position)
        assert np.linalg.norm(sol.velocity - truth[k].velocity) < 1e-6
        # receiver clock drift in m/s recovered too
        assert abs(sol.clock_drift - 299792458.0 * cfg.receiver_clock.drift) < 1e-6

    def test_common_satellite_drift_absorbed(self):
        cfg = scenario(receiver_clock=ReceiverClockConfig(0.0, 0.0))
        truth, epochs, states = run_scenario(cfg)
        sol_a = doppler_at(epochs[0], states[0], truth[0].position)
        shifted = {sat: SatelliteState(s.position, s.velocity, s.clock_bias,
                                       s.clock_drift + 1e-9)
                   for sat, s in states[0].items()}
        sol_b = doppler_at(epochs[0], shifted, truth[0].position)
        assert np.linalg.norm(sol_a.velocity - sol_b.velocity) < 1e-9

    def test_monte_carlo_rms(self):
        cfg = scenario(duration=1000.0,
                       noise=NoiseConfig(0.0, 0.0, 0.02),
                       trajectory=TrajectoryConfig(kind="static"))
        truth, epochs, states = run_scenario(cfg)
        err = []
        for k in range(len(epochs)):
            sol = doppler_at(epochs[k], states[k], truth[k].position)
            err.append(sol.velocity - truth[k].velocity)
        rms = np.sqrt(np.mean(np.square(err), axis=0))
        assert np.all(rms < 0.05)

    def test_insufficient(self):
        cfg = scenario()
        truth, epochs, states = run_scenario(cfg)
        small = Epoch(epochs[0].time, epochs[0].observations[:3])
        with pytest.raises(InsufficientSatellites):
            doppler_at(small, states[0], truth[0].position)

    def test_perturbation_continuity(self):
        from dataclasses import replace
        cfg = scenario(noise=NoiseConfig(0.5, 0.003, 0.05))
        truth, epochs, states = run_scenario(cfg)
        base = solve_spp(EpochGeometry(epochs[0], states[0]))
        obs = list(epochs[0].observations)
        deltas = []
        for d in (0.01, 0.005, 0.0025):
            bumped = [replace(o, pseudorange=o.pseudorange + d) if i == 0 else o
                      for i, o in enumerate(obs)]
            sol = solve_spp(EpochGeometry(Epoch(epochs[0].time, bumped),
                                          states[0]))
            deltas.append(np.linalg.norm(sol.position - base.position))
        # solution moves continuously, shrinking with the perturbation
        assert deltas[0] < 0.1
        assert deltas[2] < deltas[0]
