import re
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from gnssgraph.errors import InsufficientSatellites
from gnssgraph.geometry import EpochGeometry
from gnssgraph.pointpos import (SolverConfig, _bancroft, _normals,
                                pseudorange_variance, solve_doppler_velocity,
                                solve_spp)
from gnssgraph.sim import (NoiseConfig, ReceiverClockConfig, ScenarioConfig,
                           TrajectoryConfig, run_scenario)
from gnssgraph.trrtk import TrRtkConfig
from gnssgraph.types import CONSTELLATION_INDEX, Constellation, SatelliteId
from sessions import position_of, take


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


def alone(table):
    """The one row of a one-epoch session's table, its error raised."""
    if 0 in table.errors:
        raise table.errors[0]
    return SimpleNamespace(**{f.name: getattr(table, f.name)[0]
                              for f in fields(table) if f.name != "errors"})


GPS, GAL = (CONSTELLATION_INDEX[c] for c in (Constellation.GPS,
                                             Constellation.GAL))


def spp_alone(epoch, states, iono=None, tropo=None):
    return alone(solve_spp(EpochGeometry([epoch], [states], iono, tropo)))


def doppler_at(epoch, states, position):
    return alone(solve_doppler_velocity(
        EpochGeometry([epoch], [states]).at([position])))


class TestConfigSigmas:
    @pytest.mark.parametrize("value", [0.0, -0.5, np.nan, np.inf])
    @pytest.mark.parametrize("config, name", [
        (SolverConfig, "doppler_sigma"), (TrRtkConfig, "phase_sigma"),
        (TrRtkConfig, "code_sigma"), (TrRtkConfig, "position_prior_sigma")])
    def test_sigma_must_be_finite_and_positive(self, config, name, value):
        """A zero, negative or non-finite `*_sigma` is refused, also when
        a valid config is copied with it."""
        with pytest.raises(ValueError, match=name):
            config(**{name: value})
        with pytest.raises(ValueError, match=name):
            replace(config(), **{name: value})

    @pytest.mark.parametrize("values", [
        {"sigma_a": 0.0, "sigma_b": 0.0}, {"sigma_a": -0.0, "sigma_b": 0.0},
        {"sigma_b": -0.3}, {"sigma_a": -1e-9}, {"sigma_a": np.nan},
        {"sigma_b": np.inf}])
    def test_variance_terms_finite_non_negative_not_both_zero(self, values):
        """`sigma_a` and `sigma_b` are refused if negative or not finite,
        and together if both are 0, which makes every weight infinite."""
        message = "sigma_a and sigma_b must be finite and non-negative"
        with pytest.raises(ValueError, match=message):
            SolverConfig(**values)
        with pytest.raises(ValueError, match=message):
            replace(SolverConfig(), **values)

    def test_defaults_and_other_fields_pass(self):
        """Only `*_sigma` fields are checked for positive values, so the
        defaults, either variance term alone at zero and a slotted
        instance pass."""
        assert SolverConfig(sigma_a=0.0).sigma_a == 0.0
        assert SolverConfig(sigma_b=0.0).sigma_b == 0.0
        assert TrRtkConfig(phase_sigma=0.006).phase_sigma == 0.006
        with pytest.raises(AttributeError):
            SolverConfig().doppler_sgima = 1.0


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
        sol = spp_alone(epochs[0], states[0])
        assert np.linalg.norm(sol.position - truth[0].position) < 1e-6
        expected_bias = 299792458.0 * cfg.receiver_clock.bias0
        assert abs(sol.clock[GPS] - expected_bias) < 1e-6

    def test_with_atmosphere_corrected(self):
        from gnssgraph.atmosphere import KlobucharParams, TropoModel
        cfg = scenario(iono=KlobucharParams.typical(), tropo=TropoModel())
        truth, epochs, states = run_scenario(cfg)
        sol = spp_alone(epochs[0], states[0], cfg.iono, cfg.tropo)
        assert np.linalg.norm(sol.position - truth[0].position) < 1e-6

    def test_mixed_system_biases_recovered(self):
        cfg = scenario(counts={Constellation.GPS: 31, Constellation.GAL: 24},
                       satellite_clock_bias_sigma=1e-4)
        truth, epochs, states = run_scenario(cfg)
        sol = spp_alone(epochs[0], states[0])
        # zero noise: each bias equals the receiver clock in meters exactly
        expected = 299792458.0 * cfg.receiver_clock.bias0
        assert abs(sol.clock[GPS] - expected) < 1e-6
        assert abs(sol.clock[GAL] - expected) < 1e-6
        assert sol.used[GAL] >= 4

    def test_three_satellites_rejected(self):
        cfg = scenario()
        truth, epochs, states = run_scenario(cfg)
        small, small_states = take(epochs[0], states[0], slice(3))
        with pytest.raises(InsufficientSatellites):
            spp_alone(small, small_states)

    def test_covariance_psd(self):
        cfg = scenario(noise=NoiseConfig(0.5, 0.003, 0.05))
        _, epochs, states = run_scenario(cfg)
        sol = spp_alone(epochs[0], states[0])
        assert np.allclose(sol.covariance, sol.covariance.T)
        assert np.all(np.linalg.eigvalsh(sol.covariance) >= -1e-12)

    def test_residual_weighted_mean_zero_per_system(self):
        from gnssgraph.constants import CLIGHT
        from gnssgraph.coords import line_of_sight
        cfg = scenario(counts={Constellation.GPS: 31, Constellation.GAL: 24})
        truth, epochs, states = run_scenario(cfg)
        sol = spp_alone(epochs[0], states[0])
        epoch = epochs[0]
        for const in (Constellation.GPS, Constellation.GAL):
            resid = []
            for r, key in enumerate(epoch.sats.tolist()):
                if SatelliteId.from_key(key).constellation is not const:
                    continue
                _, rng_m = line_of_sight(sol.position,
                                         position_of(epoch, states[0], key))
                resid.append(epoch.code[r] - rng_m
                             + CLIGHT * states[0][r, 6]
                             - sol.clock[CONSTELLATION_INDEX[const]])
            assert abs(np.mean(resid)) < 1e-6


class TestClosedFormStart:
    """Bancroft's fix of codes that are exactly |s - x| + b."""

    def test_exact_codes_give_position_clock_and_the_surface_root(self):
        from gnssgraph.constants import CLIGHT
        truth, epochs, states = run_scenario(scenario(duration=1.0))
        x = truth[0].position
        # a clock of -0.1 s, far beyond a real receiver's, swaps the
        # order of the quadratic's roots, so no fixed pick of one root
        # passes for both epochs
        clocks = (1e3, -3e7)
        cut = [take(epoch, state, slice(6))
               for epoch, state in zip(epochs[:2], states[:2])]
        exact = [replace(epoch, code=np.linalg.norm(state[:, :3] - x, axis=1)
                         + b - CLIGHT * state[:, 6])
                 for (epoch, state), b in zip(cut, clocks)]
        position, clock, errors = _bancroft(EpochGeometry(
            exact, [state for _, state in cut]))
        assert errors == {}
        assert np.linalg.norm(position - x, axis=1).max() < 1e-6
        assert np.abs(clock - clocks).max() < 1e-6


class TestNormals:
    def test_matches_dense_weighted_products(self):
        """Epochs of 0, 1, 4 and 9 rows, some rows left out: each epoch's
        matrix and 2-column right side are its own rows' A^T W A and
        A^T W y."""
        rng = np.random.default_rng(5)
        epoch = np.repeat(np.arange(5), [3, 0, 1, 4, 9])
        geometry = SimpleNamespace(epoch=epoch, times=(None,) * 5)
        rows = np.ones(len(epoch), dtype=bool)
        rows[:3] = False
        a = rng.normal(size=(rows.sum(), 4))
        weights = rng.uniform(0.1, 10.0, rows.sum())
        y = rng.normal(size=(rows.sum(), 2))
        normal, rhs = _normals(geometry, rows, a, weights, y)
        assert normal.shape == (5, 4, 4) and rhs.shape == (5, 4, 2)
        for e in range(5):
            own = epoch[rows] == e
            dense = a[own].T @ np.diag(weights[own])
            assert np.allclose(normal[e], dense @ a[own], rtol=1e-12,
                               atol=1e-12)
            assert np.allclose(rhs[e], dense @ y[own], rtol=1e-12,
                               atol=1e-12)
        _, single = _normals(geometry, rows, a, weights, y[:, 0])
        assert single.shape == (5, 4)
        assert np.array_equal(single, rhs[..., 0])


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
        shifted = states[0].copy()
        shifted[:, 7] += 1e-9
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
        small, small_states = take(epochs[0], states[0], slice(3))
        with pytest.raises(InsufficientSatellites):
            doppler_at(small, small_states, truth[0].position)

    def test_perturbation_continuity(self):
        cfg = scenario(noise=NoiseConfig(0.5, 0.003, 0.05))
        truth, epochs, states = run_scenario(cfg)
        base = spp_alone(epochs[0], states[0])
        deltas = []
        for d in (0.01, 0.005, 0.0025):
            code = epochs[0].code.copy()
            code[0] += d
            sol = spp_alone(replace(epochs[0], code=code), states[0])
            deltas.append(np.linalg.norm(sol.position - base.position))
        # solution moves continuously, shrinking with the perturbation
        assert deltas[0] < 0.1
        assert deltas[2] < deltas[0]


class TestSppSession:
    """Every epoch of a session is solved on its own: an epoch's error is
    in the table's errors under its index, and the others get the bits
    they get alone."""

    CONFIG = SolverConfig(max_iterations=2)

    def session(self):
        from gnssgraph.constants import CLIGHT
        cfg = ScenarioConfig(duration=7.0, seed=4,
                             trajectory=TrajectoryConfig(kind="line",
                                                         speed=2.0))
        _, epochs, states = run_scenario(cfg)
        epochs, states = list(epochs), list(states)
        # three satellites
        epochs[1], states[1] = take(epochs[1], states[1], slice(3))
        # collapsed geometry: every satellite at one place
        states[3] = np.repeat(states[3][:1], len(states[3]), axis=0)
        # GPS codes 3 km long: one clock cannot hold them and the GAL
        # codes, so the bootstrap lands far off and needs more iterations
        gps = epochs[5].sats // 100 == CONSTELLATION_INDEX[Constellation.GPS]
        epochs[5] = replace(epochs[5], code=np.where(
            gps, epochs[5].code + 3000.0, epochs[5].code))
        # codes that put the bootstrap at the earth's center
        epochs[6] = replace(epochs[6], code=np.array(
            [np.linalg.norm(position) for position in states[6][:, :3]])
            - CLIGHT * states[6][:, 6])
        return cfg, epochs, states

    def test_errors_stay_in_place(self):
        cfg, epochs, states = self.session()
        table = solve_spp(EpochGeometry(epochs, states, cfg.iono,
                                        cfg.tropo), self.CONFIG)
        assert [type(table.errors[e]).__name__ if e in table.errors
                else "SppSolution" for e in range(len(epochs))] == [
            "SppSolution", "InsufficientSatellites", "SppSolution",
            "SingularGeometry", "SppSolution", "NoConvergence",
            "NearSingular", "SppSolution"]
        for k in (0, 2, 4, 7):
            alone_k = solve_spp(EpochGeometry([epochs[k]], [states[k]],
                                              cfg.iono, cfg.tropo),
                                self.CONFIG)
            for name in ("position", "covariance", "clock", "used"):
                assert getattr(table, name)[k].tobytes() == (
                    getattr(alone_k, name)[0].tobytes()), name

    def test_solve_raises_the_earliest_epoch_error(self):
        from gnssgraph.pipeline import PipelineConfig, solve_trajectory
        cfg, epochs, states = self.session()
        message = (f"^epoch 1 at {re.escape(str(epochs[1].time))}: "
                   "3 satellites with known state$")
        with pytest.raises(InsufficientSatellites, match=message):
            solve_trajectory(epochs, states, PipelineConfig(
                iono=cfg.iono, tropo=cfg.tropo, solver=self.CONFIG))
