from dataclasses import replace

import numpy as np
import pytest

from gnssgraph.errors import (DegenerateGeometry, InsufficientSatellites,
                              MissingSatellite, SingularGeometry,
                              WindowExceeded)
from gnssgraph.geometry import EpochGeometry
from gnssgraph.pipeline import PipelineConfig, solve_trajectory
from gnssgraph.pointpos import SolverConfig, solve_spp
from gnssgraph.sim import (NoiseConfig, ReceiverClockConfig, ScenarioConfig,
                           TrajectoryConfig, run_scenario)
from gnssgraph.trrtk import (BaselineStatus, detect_cycle_slips,
                             epoch_corrections, estimate_baseline,
                             form_double_differences, solve_float_baseline,
                             time_single_difference)
from gnssgraph.types import Constellation, SatelliteId


ZERO_NOISE = NoiseConfig(0.0, 0.0, 0.0)


def quiet_scenario(**kwargs):
    defaults = dict(
        duration=60.0,
        trajectory=TrajectoryConfig(kind="line", speed=2.0),
        noise=ZERO_NOISE,
        satellite_clock_drift_sigma=0.0,
        seed=3,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def corrections_at(cfg, epochs, states, positions):
    """Each epoch's `epoch_corrections` at its receiver position, with the
    scenario's delay models."""
    return [epoch_corrections(
                EpochGeometry(epoch, st, cfg.iono, cfg.tropo).at(position))
            for epoch, st, position in zip(epochs, states, positions)]


def truth_corrections(cfg, epochs, states, truth):
    return corrections_at(cfg, epochs, states, [r.position for r in truth])


def spp_corrections(cfg, epochs, states):
    return corrections_at(cfg, epochs, states, [
        solve_spp(epoch, st, iono=cfg.iono, tropo=cfg.tropo).position
        for epoch, st in zip(epochs, states)])


class TestCycleSlipDetection:
    def test_identical_epochs_all_returned(self):
        cfg = quiet_scenario(duration=5.0)
        _, epochs, _ = run_scenario(cfg)
        sats = detect_cycle_slips(epochs[0], epochs[0])
        assert sats == epochs[0].sat_ids

    def test_continuous_lock_returned(self):
        cfg = quiet_scenario(duration=30.0)
        _, epochs, _ = run_scenario(cfg)
        sats = detect_cycle_slips(epochs[5], epochs[25])
        assert sats == epochs[5].sat_ids & epochs[25].sat_ids

    def test_injected_slip_excluded(self):
        slipped = SatelliteId(Constellation.GPS, 7)
        cfg = quiet_scenario(duration=60.0, cycle_slips=[(slipped, 30.0)])
        _, epochs, _ = run_scenario(cfg)
        if slipped not in epochs[20].sat_ids or slipped not in epochs[40].sat_ids:
            pytest.skip("PRN 7 not visible in this geometry")
        straddling = detect_cycle_slips(epochs[20], epochs[40])
        assert slipped not in straddling
        after = detect_cycle_slips(epochs[35], epochs[45])
        assert slipped in after

    def test_disjoint_epochs_empty(self):
        cfg = quiet_scenario(duration=5.0)
        _, epochs, _ = run_scenario(cfg)
        assert detect_cycle_slips(epochs[0], epochs[3]) <= epochs[0].sat_ids


class TestTimeSingleDifference:
    def test_identical_epochs_zero(self):
        cfg = quiet_scenario(duration=5.0)
        _, epochs, _ = run_scenario(cfg)
        sd = time_single_difference(epochs[0], epochs[0], epochs[0].sat_ids)
        assert all(abs(v) < 1e-12 for v in sd.values())

    def test_one_cycle_is_one_wavelength(self):
        cfg = quiet_scenario(duration=5.0)
        _, epochs, _ = run_scenario(cfg)
        sat = sorted(epochs[0].sat_ids, key=lambda s: s.sort_key())[0]
        obs = epochs[0].get(sat)
        sd = time_single_difference(epochs[0], epochs[0], {sat})
        assert abs(sd[sat]) < 1e-12
        # GPS L1: one cycle is 0.1903 m
        if sat.constellation is Constellation.GPS:
            assert abs(obs.wavelength - 0.1903) < 1e-4

    def test_static_zero_drift_matches_range_change(self):
        cfg = quiet_scenario(
            duration=20.0,
            trajectory=TrajectoryConfig(kind="static"),
            receiver_clock=ReceiverClockConfig(0.0, 0.0),
            iono=None, tropo=None,
        )
        truth, epochs, states = run_scenario(cfg)
        sats = detect_cycle_slips(epochs[0], epochs[15])
        sd = time_single_difference(epochs[0], epochs[15], sats)
        from gnssgraph.coords import line_of_sight
        for sat, value in sd.items():
            _, r0 = line_of_sight(truth[0].position, states[0][sat])
            _, r1 = line_of_sight(truth[15].position, states[15][sat])
            assert abs(value - (r1 - r0)) < 1e-4

    def test_missing_satellite_raises(self):
        cfg = quiet_scenario(duration=5.0)
        _, epochs, _ = run_scenario(cfg)
        ghost = SatelliteId(Constellation.BDS, 63)
        with pytest.raises(MissingSatellite):
            time_single_difference(epochs[0], epochs[1], {ghost})


class TestDoubleDifferences:
    def _build(self, cfg, i, j):
        truth, epochs, states = run_scenario(cfg)
        sats = detect_cycle_slips(epochs[i], epochs[j], 1.0 / cfg.rate)
        sd_phase = time_single_difference(epochs[i], epochs[j], sats)
        corr = truth_corrections(cfg, epochs, states, truth)
        dd = form_double_differences(sd_phase, epochs[i], epochs[j],
                                     corr[i], corr[j])
        return truth, states, dd

    def test_reference_is_highest_elevation(self):
        cfg = quiet_scenario(duration=10.0)
        truth, states, dd = self._build(cfg, 0, 5)
        from gnssgraph.coords import ecef_to_geodetic, elevation_azimuth
        geo = ecef_to_geodetic(truth[5].position)
        for const, ref in dd.reference.items():
            same = [e.sat for e in dd.entries
                    if e.sat.constellation is const] + [ref]
            els = {s: elevation_azimuth(geo, states[5][s].position)[0]
                   for s in same}
            assert els[ref] == max(els.values())

    def test_same_constellation_pairs_only(self):
        cfg = quiet_scenario(duration=10.0)
        _, _, dd = self._build(cfg, 0, 5)
        for e in dd.entries:
            assert e.sat.constellation is e.reference.constellation
            assert e.sat != e.reference

    def test_common_bias_cancels_exactly(self):
        cfg = quiet_scenario(duration=10.0)
        truth, epochs, states = run_scenario(cfg)
        sats = detect_cycle_slips(epochs[0], epochs[5])
        sd_phase = time_single_difference(epochs[0], epochs[5], sats)
        corr = truth_corrections(cfg, epochs, states, truth)
        dd = form_double_differences(sd_phase, epochs[0], epochs[5],
                                     corr[0], corr[5])
        shifted = {s: v + 123.456 for s, v in sd_phase.items()}
        dd2 = form_double_differences(shifted, epochs[0], epochs[5],
                                      corr[0], corr[5])
        for a, b in zip(dd.entries, dd2.entries):
            assert abs(a.dd_phase - b.dd_phase) < 1e-9

    def test_noise_free_dd_matches_baseline_projection(self):
        cfg = quiet_scenario(duration=30.0)
        truth, states, dd = self._build(cfg, 0, 20)
        baseline = truth[20].position - truth[0].position
        from gnssgraph.trrtk import _model_and_jacobian
        g_past, g_cur, _, _ = _model_and_jacobian(dd, baseline)
        g = g_cur - g_past
        for i, e in enumerate(dd.entries):
            # zero noise, continuous lock: DD phase minus DD geometric range
            # change is the (zero) DD ambiguity
            assert abs(e.dd_phase - g[i]) < 1e-4

    def test_model_matches_per_satellite_line_of_sight(self):
        cfg = quiet_scenario(duration=30.0)
        truth, _, dd = self._build(cfg, 0, 20)
        from gnssgraph.coords import line_of_sight
        from gnssgraph.trrtk import _model_and_jacobian
        baseline = truth[20].position - truth[0].position
        shift = np.array([1.5, -2.0, 0.7])
        g_past, g_cur, jac_past, jac_cur = _model_and_jacobian(dd, baseline,
                                                               shift)
        p_past = dd.receiver_past + shift
        p_cur = p_past + baseline
        for i, e in enumerate(dd.entries):
            u_sp, r_sp = line_of_sight(p_past, dd.states_past[e.sat])
            u_rp, r_rp = line_of_sight(p_past, dd.states_past[e.reference])
            u_sc, r_sc = line_of_sight(p_cur, dd.states_current[e.sat])
            u_rc, r_rc = line_of_sight(p_cur, dd.states_current[e.reference])
            # a 2e7 m range resolves to ~4e-9 m in float64, so the DD of
            # two ranges agrees to a few of its last bits
            assert abs(g_past[i] - (r_sp - r_rp)) < 1e-8
            assert abs(g_cur[i] - (r_sc - r_rc)) < 1e-8
            assert np.max(np.abs(jac_past[i] - (u_rp - u_sp))) < 1e-9
            assert np.max(np.abs(jac_cur[i] - (u_rc - u_sc))) < 1e-9

    def test_model_implausible_range_raises(self):
        cfg = quiet_scenario(duration=10.0)
        _, _, dd = self._build(cfg, 0, 5)
        from gnssgraph.trrtk import _model_and_jacobian
        # an anchor shift that puts the receiver on a satellite
        sat = dd.entries[0].sat
        shift = dd.states_past[sat].position - dd.receiver_past
        with pytest.raises(DegenerateGeometry):
            _model_and_jacobian(dd, np.zeros(3), shift)

    def test_insufficient_raises(self):
        cfg = quiet_scenario(duration=5.0, counts={Constellation.GPS: 31})
        truth, epochs, states = run_scenario(cfg)
        sats = sorted(detect_cycle_slips(epochs[0], epochs[2]),
                      key=lambda s: s.sort_key())[:3]
        sd_phase = time_single_difference(epochs[0], epochs[2], sats)
        corr = truth_corrections(cfg, epochs, states, truth)
        with pytest.raises(InsufficientSatellites):
            form_double_differences(sd_phase, epochs[0], epochs[2],
                                    corr[0], corr[2])


class TestFloatBaseline:
    def _dd(self, cfg, i, j):
        truth, epochs, states = run_scenario(cfg)
        sats = detect_cycle_slips(epochs[i], epochs[j])
        sd_phase = time_single_difference(epochs[i], epochs[j], sats)
        corr = truth_corrections(cfg, epochs, states, truth)
        return form_double_differences(sd_phase, epochs[i], epochs[j],
                                       corr[i], corr[j])

    def test_dd_covariance_single_reference_formula(self):
        from gnssgraph.trrtk import _dd_covariance
        dd = self._dd(quiet_scenario(duration=10.0), 0, 5)
        assert len(dd.reference) == 3
        for ref_sigma, attr in ((dd.ref_sigma_phase, "sigma_phase"),
                                (dd.ref_sigma_code_past, "sigma_code_past"),
                                (dd.ref_sigma_code_current,
                                 "sigma_code_current")):
            m = len(dd.entries)
            expected = np.zeros((m, m))
            for i, ei in enumerate(dd.entries):
                sr = ref_sigma[ei.sat.constellation]
                for j, ej in enumerate(dd.entries):
                    if ej.reference == ei.reference:
                        expected[i, j] = sr ** 2
                expected[i, i] = sr ** 2 + getattr(ei, attr) ** 2
            assert np.array_equal(_dd_covariance(dd, ref_sigma, attr),
                                  expected)

    @pytest.mark.parametrize("offset", [0.0, 1e-3])
    def test_duplicated_geometry_is_singular(self, offset, monkeypatch):
        # every satellite at one position (plus `offset` m apart): the
        # lines of sight coincide, so the baseline is unobservable
        dd = self._dd(quiet_scenario(duration=10.0), 0, 5)
        sats = list(dd.states_past)

        def collapsed(states):
            first = states[sats[0]]
            return {s: replace(first, position=first.position + k * offset)
                    for k, s in enumerate(sats)}

        dd = replace(dd, states_past=collapsed(dd.states_past),
                     states_current=collapsed(dd.states_current))

        def no_step(*args):
            raise AssertionError("stepped on singular normal equations")

        # refused by the check, before any Gauss-Newton step
        monkeypatch.setattr(np.linalg, "solve", no_step)
        with pytest.raises(SingularGeometry):
            solve_float_baseline(dd)

    def test_zero_baseline_static_pair(self):
        cfg = quiet_scenario(duration=10.0,
                             trajectory=TrajectoryConfig(kind="static"))
        truth, epochs, states = run_scenario(cfg)
        sats = detect_cycle_slips(epochs[0], epochs[5])
        sd_phase = time_single_difference(epochs[0], epochs[5], sats)
        corr = truth_corrections(cfg, epochs, states, truth)
        dd = form_double_differences(sd_phase, epochs[0], epochs[5],
                                     corr[0], corr[5])
        baseline, problem, _ = solve_float_baseline(dd)
        assert np.linalg.norm(baseline) < 1e-6
        assert np.max(np.abs(problem.float_values
                             - np.round(problem.float_values))) < 1e-6

    def test_moving_pair_recovers_truth(self):
        cfg = quiet_scenario(duration=40.0)
        truth, epochs, states = run_scenario(cfg)
        i, j = 5, 35
        sats = detect_cycle_slips(epochs[i], epochs[j])
        sd_phase = time_single_difference(epochs[i], epochs[j], sats)
        corr = truth_corrections(cfg, epochs, states, truth)
        dd = form_double_differences(sd_phase, epochs[i], epochs[j],
                                     corr[i], corr[j])
        baseline, _, _ = solve_float_baseline(dd)
        expected = truth[j].position - truth[i].position
        assert np.linalg.norm(baseline - expected) < 1e-6

    def test_joint_covariance_spd(self):
        rng = np.random.default_rng(11)
        for seed in rng.integers(0, 10_000, size=20):
            cfg = quiet_scenario(duration=12.0, seed=int(seed),
                                 noise=NoiseConfig(0.3, 0.003, 0.02))
            truth, epochs, states = run_scenario(cfg)
            sats = detect_cycle_slips(epochs[0], epochs[10])
            sd_phase = time_single_difference(epochs[0], epochs[10], sats)
            corr = truth_corrections(cfg, epochs, states, truth)
            dd = form_double_differences(sd_phase, epochs[0], epochs[10],
                                         corr[0], corr[10])
            _, _, joint = solve_float_baseline(dd)
            np.linalg.cholesky(joint)


class TestEstimateBaseline:
    def test_zero_noise_fixed_exact(self):
        cfg = quiet_scenario(duration=60.0)
        truth, epochs, states = run_scenario(cfg)
        corr = spp_corrections(cfg, epochs, states)
        for i, j in [(0, 40), (10, 50), (20, 60)]:
            result = estimate_baseline(epochs[i], epochs[j], corr[i],
                                       corr[j])
            assert result.status is BaselineStatus.FIXED
            expected = truth[j].position - truth[i].position
            assert np.linalg.norm(result.baseline - expected) < 1e-6
            assert all(isinstance(n, int) for n in result.dd_ambiguities)

    def test_realistic_noise_fixed_centimeter(self):
        cfg = quiet_scenario(duration=60.0, seed=9,
                             noise=NoiseConfig(0.5, 0.003, 0.02),
                             satellite_clock_drift_sigma=1e-13)
        truth, epochs, states = run_scenario(cfg)
        corr = spp_corrections(cfg, epochs, states)
        fixed = 0
        for i, j in [(0, 30), (5, 45), (10, 60), (15, 55)]:
            result = estimate_baseline(epochs[i], epochs[j], corr[i],
                                       corr[j])
            if result.status is BaselineStatus.FIXED:
                fixed += 1
                expected = truth[j].position - truth[i].position
                assert np.linalg.norm(result.baseline - expected) < 0.02
        assert fixed >= 3

    def test_window_exceeded(self):
        cfg = quiet_scenario(duration=160.0)
        truth, epochs, states = run_scenario(cfg)
        past, current = spp_corrections(cfg, [epochs[0], epochs[150]],
                                        [states[0], states[150]])
        with pytest.raises(WindowExceeded):
            estimate_baseline(epochs[0], epochs[150], past, current)

    def test_swap_negates_baseline(self):
        cfg = quiet_scenario(duration=40.0, seed=5,
                             noise=NoiseConfig(0.3, 0.003, 0.02))
        truth, epochs, states = run_scenario(cfg)
        corr = spp_corrections(cfg, epochs, states)
        i, j = 3, 33
        fwd = estimate_baseline(epochs[i], epochs[j], corr[i], corr[j])
        back = estimate_baseline(epochs[j], epochs[i], corr[j], corr[i])
        if (fwd.status is BaselineStatus.FIXED
                and back.status is BaselineStatus.FIXED):
            sigma = np.sqrt(np.trace(fwd.covariance + back.covariance))
            assert np.linalg.norm(fwd.baseline + back.baseline) < max(5 * sigma,
                                                                      0.02)

    def test_few_satellites_raise(self):
        cfg = quiet_scenario(duration=10.0)
        truth, epochs, states = run_scenario(cfg)
        keep = sorted(epochs[0].sat_ids, key=lambda s: s.sort_key())[:3]
        from gnssgraph.types import Epoch
        thin_past = Epoch(epochs[0].time,
                          [epochs[0].get(s) for s in keep])
        thin_cur = Epoch(epochs[5].time,
                         [epochs[5].get(s) for s in keep if epochs[5].get(s)])
        past, current = truth_corrections(cfg, [thin_past, thin_cur],
                                          [states[0], states[5]],
                                          [truth[0], truth[5]])
        with pytest.raises(InsufficientSatellites):
            estimate_baseline(thin_past, thin_cur, past, current)

    def test_high_noise_rejected_no_integers(self):
        cfg = quiet_scenario(duration=40.0, seed=2,
                             noise=NoiseConfig(5.0, 0.5, 0.02))
        truth, epochs, states = run_scenario(cfg)
        corr = spp_corrections(cfg, epochs, states)
        result = estimate_baseline(epochs[0], epochs[30], corr[0], corr[30])
        if result.status is BaselineStatus.REJECTED:
            assert result.dd_ambiguities == ()
            assert result.ratio < 3.0


class TestDecorrelationCache:
    def test_shared_cache_matches_cold_pairs(self):
        cfg = quiet_scenario(duration=60.0, seed=9,
                             noise=NoiseConfig(0.5, 0.003, 0.02),
                             satellite_clock_drift_sigma=1e-13)
        truth, epochs, states = run_scenario(cfg)
        corr = spp_corrections(cfg, epochs, states)
        pairs = [(j - offset, j) for j in range(10, 61, 5)
                 for offset in (5, 10)]
        bases = {}
        for i, j in pairs:
            shared = estimate_baseline(epochs[i], epochs[j], corr[i],
                                       corr[j], bases=bases)
            cold = estimate_baseline(epochs[i], epochs[j], corr[i], corr[j])
            assert shared.status is cold.status
            assert shared.dd_ambiguities == cold.dd_ambiguities
            assert shared.baseline.tobytes() == cold.baseline.tobytes()
            assert shared.covariance.tobytes() == cold.covariance.tobytes()
        # the pairs share a few DD layouts, so most started from a cached Z
        assert 0 < len(bases) < len(pairs) // 2
        assert all(not np.array_equal(z, np.eye(len(z)))
                   for z in bases.values())


class TestObservationInterval:
    def test_pipeline_screens_slips_at_the_epoch_spacing(self):
        """At 0.5 Hz the lock count grows by one per 2 s: the pipeline
        derives that spacing from the epoch times, while a pair screened
        as if epochs were 1 s apart keeps no satellite."""
        cfg = quiet_scenario(duration=40.0, rate=0.5)
        truth, epochs, states = run_scenario(cfg)
        result = solve_trajectory(epochs, states,
                                  PipelineConfig(iono=cfg.iono,
                                                 tropo=cfg.tropo))
        fixed = [(i, j, tr) for i, j, tr in result.trrtk_results
                 if tr.status is BaselineStatus.FIXED]
        assert len(fixed) == result.trrtk_attempts > 0
        i, j, tr = fixed[-1]
        assert tr.time_difference == pytest.approx(2.0 * (j - i))
        assert np.linalg.norm(
            tr.baseline - (truth[j].position - truth[i].position)) < 1e-6
        corr = corrections_at(cfg, epochs, states,
                              [spp.position for spp in result.spp_solutions])
        again = estimate_baseline(epochs[i], epochs[j], corr[i], corr[j],
                                  interval=2.0)
        assert again.baseline.tobytes() == tr.baseline.tobytes()
        with pytest.raises(InsufficientSatellites):
            estimate_baseline(epochs[i], epochs[j], corr[i], corr[j])
