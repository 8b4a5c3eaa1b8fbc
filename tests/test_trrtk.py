from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnssgraph import trrtk
from gnssgraph.errors import (DegenerateGeometry, InsufficientSatellites,
                              SingularGeometry, WindowExceeded)
from gnssgraph.geometry import EpochGeometry
from gnssgraph.pipeline import PipelineConfig, solve_trajectory
from gnssgraph.pointpos import SolverConfig, solve_spp
from gnssgraph.sim import (NoiseConfig, ReceiverClockConfig, ScenarioConfig,
                           TrajectoryConfig, run_scenario)
from gnssgraph.trrtk import (INTEGRITY_P_MIN, PRECISION_MAX_M,
                             TR_PAIR_LATTICE, BaselineStatus, TrRtkConfig,
                             TrRtkResult, _chi2_survival, _weigh,
                             detect_cycle_slips, epoch_corrections,
                             estimate_baseline, form_double_differences,
                             solve_float_baseline, solve_pairs,
                             time_single_difference)
from gnssgraph.types import Constellation, SatelliteId
from sessions import positions_by_sat, row_of, sat_ids, take


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


def session_at(cfg, epochs, states, positions):
    """The `epoch_corrections` session at each epoch's receiver position,
    with the scenario's delay models."""
    return epoch_corrections(
        EpochGeometry(epochs, states, cfg.iono, cfg.tropo).at(positions))


def truth_session(cfg, epochs, states, truth):
    return session_at(cfg, epochs, states, [r.position for r in truth])


def thin_session(cfg, epochs, states, truth, keep, sats):
    """The truth session of the epochs `keep`, each observing only those
    of `sats` it observes."""
    keys = [sat.key for sat in sats]
    thin = [take(epochs[k], states[k], np.isin(epochs[k].sats, keys))
            for k in keep]
    return truth_session(cfg, [epoch for epoch, _ in thin],
                         [rows for _, rows in thin], [truth[k] for k in keep])


def phase_shifted(s, epoch, cycles, sat=None):
    """`s` with `cycles` added to the carrier phase of `sat`, or of every
    satellite, at `epoch`, and no lock count reset."""
    phase = s.phase.copy()
    phase[epoch, slice(None) if sat is None else s.sats.index(sat)] += cycles
    return replace(s, phase=phase)


def single_difference(s, past, current):
    """`time_single_difference` of one pair, per satellite both epochs
    observe."""
    sd = time_single_difference(s, [past], [current])[0]
    both = (s.lock[past] >= 0) & (s.lock[current] >= 0)
    return {sat: sd[k] for k, sat in enumerate(s.sats) if both[k]}


def solve_one(dd):
    """`solve_float_baseline` of a one-pair DD set: (baseline, covariance,
    weighted residual sum), or the pair's GnssError raised."""
    baseline, cov, omega, errors = solve_float_baseline(dd)
    if errors[0] is not None:
        raise errors[0]
    return baseline[0], cov[0], omega[0]


def spp_session(cfg, epochs, states):
    """The `epoch_corrections` session at each epoch's SPP position, from
    one session geometry, as the pipeline forms it."""
    geometry = EpochGeometry(epochs, states, cfg.iono, cfg.tropo)
    return epoch_corrections(
        geometry.at([spp.position for spp in solve_spp(geometry)]))


class TestSessionGrid:
    """`epoch_corrections` scatters every located row to its (epoch,
    satellite) cell."""

    @pytest.fixture(scope="class")
    def scattered(self):
        cfg = quiet_scenario(duration=20.0)
        truth, epochs, states = run_scenario(cfg)
        # epoch 3 misses one satellite that the others observe
        epochs[3], states[3] = take(epochs[3], states[3], slice(1, None))
        g = EpochGeometry(epochs, states, cfg.iono, cfg.tropo).at(
            [r.position for r in truth])
        return g, epoch_corrections(g)

    def test_every_row_in_its_cell(self, scattered):
        g, s = scattered
        column = np.array([s.sats.index(SatelliteId.from_key(key))
                           for key in g.sats.tolist()])
        cells = (g.epoch, column)
        for name in ("lock", "phase", "wavelength"):
            assert (getattr(s, name)[cells].tobytes()
                    == getattr(g, name).tobytes()), name
        mask = g.above(TrRtkConfig().elevation_mask) & ~np.isnan(g.tropo)
        assert 0 < mask.sum() < len(mask)
        assert np.array_equal(s.usable[cells], mask)
        cells = (g.epoch[mask], column[mask])
        for name, rows in (("sat_position", g.sat_position),
                           ("elevation", g.elevation), ("iono", g.iono),
                           ("tropo", g.tropo), ("code", g.corrected_code)):
            assert getattr(s, name)[cells].tobytes() == (
                rows[mask].tobytes()), name
        assert s.receiver.tobytes() == g.position.tobytes()
        assert s.times == g.times

    def test_unobserved_cells(self, scattered):
        g, s = scattered
        observed = np.zeros(s.lock.shape, bool)
        observed[g.epoch, [s.sats.index(SatelliteId.from_key(key))
                           for key in g.sats.tolist()]] = True
        assert not observed[3].all()
        assert (s.lock[~observed] == -1).all()
        assert not s.usable[~observed].any()

    def test_sats_and_spans_in_sort_order(self, scattered):
        g, s = scattered
        assert [sat.key for sat in s.sats] == sorted(set(g.sats.tolist()))
        assert len(s.spans) == 3
        assert [k for a, b in s.spans for k in range(a, b)] == list(
            range(len(s.sats)))
        assert len({s.sats[a].constellation for a, _ in s.spans}) == 3
        for a, b in s.spans:
            assert {sat.constellation for sat in s.sats[a:b]} == {
                s.sats[a].constellation}

    def test_satellite_without_state_is_not_locked(self):
        """An observed satellite missing from the sidecar has no cell: it
        forms no DD and does not count toward the locked satellites."""
        cfg = quiet_scenario(duration=10.0, counts={Constellation.GPS: 31})
        truth, epochs, states = run_scenario(cfg)
        sats = sorted(sat_ids(epochs[0]) & sat_ids(epochs[5]),
                      key=SatelliteId.sort_key)[:5]
        unknown = sats[0]
        states = [np.where((epoch.sats == unknown.key)[:, None], np.nan, rows)
                  for epoch, rows in zip(epochs, states)]
        thin = thin_session(cfg, epochs, states, truth, (0, 5), sats)
        assert unknown not in thin.sats
        assert detect_cycle_slips(thin, 0, 1) == set(sats[1:])
        with pytest.raises(InsufficientSatellites,
                           match="only 4 continuously locked"):
            estimate_baseline(thin, 0, 1)


class TestCycleSlipDetection:
    def test_identical_epochs_all_returned(self):
        cfg = quiet_scenario(duration=5.0)
        truth, epochs, states = run_scenario(cfg)
        s = truth_session(cfg, epochs, states, truth)
        sats = detect_cycle_slips(s, 0, 0)
        assert sats == sat_ids(epochs[0])

    def test_continuous_lock_returned(self):
        cfg = quiet_scenario(duration=30.0)
        truth, epochs, states = run_scenario(cfg)
        s = truth_session(cfg, epochs, states, truth)
        sats = detect_cycle_slips(s, 5, 25)
        assert sats == sat_ids(epochs[5]) & sat_ids(epochs[25])

    def test_injected_slip_excluded(self):
        slipped = SatelliteId(Constellation.GPS, 7)
        cfg = quiet_scenario(duration=60.0, cycle_slips=[(slipped, 30.0)])
        truth, epochs, states = run_scenario(cfg)
        if (slipped not in sat_ids(epochs[20])
                or slipped not in sat_ids(epochs[40])):
            pytest.skip("PRN 7 not visible in this geometry")
        s = truth_session(cfg, epochs, states, truth)
        straddling = detect_cycle_slips(s, 20, 40)
        assert slipped not in straddling
        after = detect_cycle_slips(s, 35, 45)
        assert slipped in after

    def test_disjoint_epochs_empty(self):
        cfg = quiet_scenario(duration=5.0)
        truth, epochs, states = run_scenario(cfg)
        s = truth_session(cfg, epochs, states, truth)
        assert detect_cycle_slips(s, 0, 3) <= sat_ids(epochs[0])


class TestTimeSingleDifference:
    def test_identical_epochs_zero(self):
        cfg = quiet_scenario(duration=5.0)
        truth, epochs, states = run_scenario(cfg)
        sd = single_difference(truth_session(cfg, epochs, states, truth), 0,
                               0)
        assert all(abs(v) < 1e-12 for v in sd.values())

    def test_one_cycle_is_one_wavelength(self):
        cfg = quiet_scenario(duration=5.0)
        truth, epochs, states = run_scenario(cfg)
        sat = SatelliteId.from_key(int(epochs[0].sats[0]))
        wavelength = epochs[0].wavelength[row_of(epochs[0], sat)]
        sd = single_difference(truth_session(cfg, epochs, states, truth), 0,
                               0)
        assert abs(sd[sat]) < 1e-12
        # GPS L1: one cycle is 0.1903 m
        if sat.constellation is Constellation.GPS:
            assert abs(wavelength - 0.1903) < 1e-4

    def test_static_zero_drift_matches_range_change(self):
        cfg = quiet_scenario(
            duration=20.0,
            trajectory=TrajectoryConfig(kind="static"),
            receiver_clock=ReceiverClockConfig(0.0, 0.0),
            iono=None, tropo=None,
        )
        truth, epochs, states = run_scenario(cfg)
        s = truth_session(cfg, epochs, states, truth)
        sats = detect_cycle_slips(s, 0, 15)
        sd = single_difference(s, 0, 15)
        positions = positions_by_sat(epochs, states)
        from gnssgraph.coords import line_of_sight
        for sat in sats:
            value = sd[sat]
            _, r0 = line_of_sight(truth[0].position, positions[0][sat])
            _, r1 = line_of_sight(truth[15].position, positions[15][sat])
            assert abs(value - (r1 - r0)) < 1e-4


class TestDoubleDifferences:
    def _build(self, cfg, i, j):
        truth, epochs, states = run_scenario(cfg)
        dd = form_double_differences(truth_session(cfg, epochs, states, truth),
                                     i, j, interval=1.0 / cfg.rate)
        return truth, positions_by_sat(epochs, states), dd

    def test_reference_is_highest_elevation(self):
        cfg = quiet_scenario(duration=10.0)
        truth, positions, dd = self._build(cfg, 0, 5)
        from gnssgraph.coords import ecef_to_geodetic, elevation_azimuth
        geo = ecef_to_geodetic(truth[5].position)
        rows, reference = dd.rows[0], dd.reference[0]
        for col in set(reference[rows]):
            ref = dd.sats[col]
            same = [dd.sats[k] for k in np.flatnonzero(
                rows & (reference == col))] + [ref]
            els = {s: elevation_azimuth(geo, positions[5][s])[0]
                   for s in same}
            assert els[ref] == max(els.values())

    def test_same_constellation_pairs_only(self):
        cfg = quiet_scenario(duration=10.0)
        _, _, dd = self._build(cfg, 0, 5)
        for k in np.flatnonzero(dd.rows[0]):
            sat, ref = dd.sats[k], dd.sats[dd.reference[0, k]]
            assert sat.constellation is ref.constellation
            assert sat != ref

    def test_common_bias_cancels_exactly(self):
        cfg = quiet_scenario(duration=10.0)
        truth, epochs, states = run_scenario(cfg)
        s = truth_session(cfg, epochs, states, truth)
        dd = form_double_differences(s, 0, 5)
        # the same phase offset on every satellite of the current epoch
        shifted = phase_shifted(s, 5, 123.456)
        dd2 = form_double_differences(shifted, 0, 5)
        assert np.array_equal(dd.rows, dd2.rows)
        for a, b in zip(dd.observed[dd.rows], dd2.observed[dd2.rows]):
            assert abs(a[0] - b[0]) < 1e-9

    def test_noise_free_dd_matches_baseline_projection(self):
        cfg = quiet_scenario(duration=30.0)
        truth, states, dd = self._build(cfg, 0, 20)
        baseline = truth[20].position - truth[0].position
        from gnssgraph.trrtk import _model
        g_past, g_cur, _, _, _ = _model(dd, baseline[None], np.zeros((1, 3)))
        g = (g_cur - g_past)[0]
        for i in np.flatnonzero(dd.rows[0]):
            # zero noise, continuous lock: DD phase minus DD geometric range
            # change is the (zero) DD ambiguity
            assert abs(dd.observed[0, i, 0] - g[i]) < 1e-4

    def test_model_matches_per_satellite_line_of_sight(self):
        cfg = quiet_scenario(duration=30.0)
        truth, positions, dd = self._build(cfg, 0, 20)
        from gnssgraph.coords import line_of_sight
        from gnssgraph.trrtk import _model
        baseline = truth[20].position - truth[0].position
        shift = np.array([1.5, -2.0, 0.7])
        g_past, g_cur, jac_past, jac_cur, _ = (
            a[0] for a in _model(dd, baseline[None], shift[None]))
        p_past = dd.receiver_past[0] + shift
        p_cur = p_past + baseline
        for i in np.flatnonzero(dd.rows[0]):
            sat, ref = dd.sats[i], dd.sats[dd.reference[0, i]]
            u_sp, r_sp = line_of_sight(p_past, positions[0][sat])
            u_rp, r_rp = line_of_sight(p_past, positions[0][ref])
            u_sc, r_sc = line_of_sight(p_cur, positions[20][sat])
            u_rc, r_rc = line_of_sight(p_cur, positions[20][ref])
            # a 2e7 m range resolves to ~4e-9 m in float64, so the DD of
            # two ranges agrees to a few of its last bits
            assert abs(g_past[i] - (r_sp - r_rp)) < 1e-8
            assert abs(g_cur[i] - (r_sc - r_rc)) < 1e-8
            assert np.max(np.abs(jac_past[i] - (u_rp - u_sp))) < 1e-9
            assert np.max(np.abs(jac_cur[i] - (u_rc - u_sc))) < 1e-9

    def test_model_implausible_range_raises(self):
        cfg = quiet_scenario(duration=10.0)
        _, _, dd = self._build(cfg, 0, 5)
        # an anchor that puts the receiver on a satellite
        k = np.flatnonzero(dd.rows[0])[0]
        with pytest.raises(DegenerateGeometry):
            solve_one(replace(dd, receiver_past=dd.sat_past[:, k]))

    def test_insufficient_raises(self):
        cfg = quiet_scenario(duration=5.0, counts={Constellation.GPS: 31})
        truth, epochs, states = run_scenario(cfg)
        sats = sorted(detect_cycle_slips(
            truth_session(cfg, epochs, states, truth), 0, 2),
            key=lambda s: s.sort_key())[:3]
        thin = thin_session(cfg, epochs, states, truth, (0, 2), sats)
        with pytest.raises(InsufficientSatellites):
            form_double_differences(thin, 0, 1)


class TestFloatBaseline:
    def _dd(self, cfg, i, j):
        truth, epochs, states = run_scenario(cfg)
        return form_double_differences(
            truth_session(cfg, epochs, states, truth), i, j)

    def test_dd_covariance_single_reference_formula(self):
        """The DD set's weights are those of the single-reference
        covariance: the reference's variance wherever two DDs share a
        reference, plus the satellite's own variance on the diagonal."""
        cfg = quiet_scenario(duration=10.0)
        truth, epochs, states = run_scenario(cfg)
        s = truth_session(cfg, epochs, states, truth)
        dd = form_double_differences(s, 0, 5)
        rows = np.flatnonzero(dd.rows[0])
        refs = dd.reference[0, rows]
        assert len(set(refs)) == 3
        c = TrRtkConfig()

        def sin_el(k, sat):
            return np.sin(s.elevation[k, s.sats.index(sat)])

        # per satellite: time-differenced phase, code past, code current
        sigma = {dd.sats[k]: (
            np.sqrt((c.phase_sigma / sin_el(0, dd.sats[k])) ** 2
                    + (c.phase_sigma / sin_el(5, dd.sats[k])) ** 2),
            c.code_sigma / sin_el(0, dd.sats[k]),
            c.code_sigma / sin_el(5, dd.sats[k]))
            for k in np.flatnonzero(dd.used[0])}
        m = len(rows)
        for block in range(3):
            expected = np.zeros((m, m))
            for i in range(m):
                sr = sigma[dd.sats[refs[i]]][block]
                for j in range(m):
                    if refs[j] == refs[i]:
                        expected[i, j] = sr ** 2
                expected[i, i] = sr ** 2 + sigma[dd.sats[rows[i]]][block] ** 2
            x = dd.observed[0, rows, block]
            got = _weigh(dd.observed[..., block], dd.weight[..., block],
                         dd.ref_weight[..., block], dd.spans)[0, rows]
            want = np.linalg.solve(expected, x)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    @pytest.mark.parametrize("offset", [0.0, 1e-3])
    def test_duplicated_geometry_is_singular(self, offset, monkeypatch):
        # every satellite at one position (plus `offset` m apart): the
        # lines of sight coincide, so the baseline is unobservable
        dd = self._dd(quiet_scenario(duration=10.0), 0, 5)
        first = np.flatnonzero(dd.used[0])[0]

        def collapsed(positions):
            steps = np.arange(positions.shape[1])[None, :, None]
            return positions[:, first:first + 1] + steps * offset

        dd = replace(dd, sat_past=collapsed(dd.sat_past),
                     sat_current=collapsed(dd.sat_current))

        def no_step(*args):
            raise AssertionError("stepped on singular normal equations")

        # refused by the check, before any Gauss-Newton step
        monkeypatch.setattr(np.linalg, "solve", no_step)
        with pytest.raises(SingularGeometry):
            solve_one(dd)

    def test_zero_baseline_static_pair(self):
        cfg = quiet_scenario(duration=10.0,
                             trajectory=TrajectoryConfig(kind="static"))
        truth, epochs, states = run_scenario(cfg)
        dd = form_double_differences(
            truth_session(cfg, epochs, states, truth), 0, 5)
        baseline, _, omega = solve_one(dd)
        assert np.linalg.norm(baseline) < 1e-6
        assert omega < 1e-6

    def test_moving_pair_recovers_truth(self):
        cfg = quiet_scenario(duration=40.0)
        truth, epochs, states = run_scenario(cfg)
        i, j = 5, 35
        dd = form_double_differences(
            truth_session(cfg, epochs, states, truth), i, j)
        baseline, _, _ = solve_one(dd)
        expected = truth[j].position - truth[i].position
        assert np.linalg.norm(baseline - expected) < 1e-6

    def test_joint_covariance_spd(self):
        rng = np.random.default_rng(11)
        for seed in rng.integers(0, 10_000, size=20):
            cfg = quiet_scenario(duration=12.0, seed=int(seed),
                                 noise=NoiseConfig(0.3, 0.003, 0.02))
            truth, epochs, states = run_scenario(cfg)
            dd = form_double_differences(
                truth_session(cfg, epochs, states, truth), 0, 10)
            _, cov, _ = solve_one(dd)
            np.linalg.cholesky(cov)


class TestEstimateBaseline:
    def test_zero_noise_fixed_exact(self):
        cfg = quiet_scenario(duration=60.0)
        truth, epochs, states = run_scenario(cfg)
        s = spp_session(cfg, epochs, states)
        for i, j in [(0, 40), (10, 50), (20, 60)]:
            result = estimate_baseline(s, i, j)
            assert result.status is BaselineStatus.FIXED
            expected = truth[j].position - truth[i].position
            assert np.linalg.norm(result.baseline - expected) < 1e-6
            assert all(isinstance(n, int) for n in result.dd_ambiguities)

    def test_realistic_noise_fixed_centimeter(self):
        cfg = quiet_scenario(duration=60.0, seed=9,
                             noise=NoiseConfig(0.5, 0.003, 0.02),
                             satellite_clock_drift_sigma=1e-13)
        truth, epochs, states = run_scenario(cfg)
        s = spp_session(cfg, epochs, states)
        fixed = 0
        for i, j in [(0, 30), (5, 45), (10, 60), (15, 55)]:
            result = estimate_baseline(s, i, j)
            if result.status is BaselineStatus.FIXED:
                fixed += 1
                expected = truth[j].position - truth[i].position
                assert np.linalg.norm(result.baseline - expected) < 0.02
        assert fixed >= 3

    def test_window_exceeded(self):
        cfg = quiet_scenario(duration=160.0)
        truth, epochs, states = run_scenario(cfg)
        s = spp_session(cfg, [epochs[0], epochs[150]],
                        [states[0], states[150]])
        with pytest.raises(WindowExceeded):
            estimate_baseline(s, 0, 1)

    def test_swap_negates_baseline(self):
        cfg = quiet_scenario(duration=40.0, seed=5,
                             noise=NoiseConfig(0.3, 0.003, 0.02))
        truth, epochs, states = run_scenario(cfg)
        s = spp_session(cfg, epochs, states)
        i, j = 3, 33
        fwd = estimate_baseline(s, i, j)
        back = estimate_baseline(s, j, i)
        if (fwd.status is BaselineStatus.FIXED
                and back.status is BaselineStatus.FIXED):
            sigma = np.sqrt(np.trace(fwd.covariance + back.covariance))
            assert np.linalg.norm(fwd.baseline + back.baseline) < max(5 * sigma,
                                                                      0.02)

    def test_few_satellites_raise(self):
        cfg = quiet_scenario(duration=10.0)
        truth, epochs, states = run_scenario(cfg)
        keep = sorted(sat_ids(epochs[0]), key=lambda s: s.sort_key())[:3]
        thin = thin_session(cfg, epochs, states, truth, (0, 5), keep)
        with pytest.raises(InsufficientSatellites):
            estimate_baseline(thin, 0, 1)

    def test_high_noise_rejected_no_integers(self):
        cfg = quiet_scenario(duration=40.0, seed=2,
                             noise=NoiseConfig(5.0, 0.5, 0.02))
        truth, epochs, states = run_scenario(cfg)
        result = estimate_baseline(spp_session(cfg, epochs, states), 0, 30)
        assert result.status is BaselineStatus.REJECTED
        assert result.dd_ambiguities == ()
        assert result.p_value < INTEGRITY_P_MIN


class TestIntegrity:
    """Every DD integer is held at 0, so a slip that the lock count misses
    must fail the overall-model test, and an accepted baseline must be as
    good as its covariance says."""

    def test_slip_without_lock_reset_rejected(self):
        cfg = quiet_scenario(duration=50.0, seed=9,
                             noise=NoiseConfig(0.5, 0.003, 0.02),
                             satellite_clock_drift_sigma=1e-13)
        _, epochs, states = run_scenario(cfg)
        s = spp_session(cfg, epochs, states)
        clean = estimate_baseline(s, 10, 50)
        assert clean.status is BaselineStatus.FIXED
        dd = form_double_differences(s, 10, 50)
        used = {dd.sats[k] for k in np.flatnonzero(dd.used[0])}
        for sat in sorted(used, key=lambda s: s.sort_key()):
            for cycles in (1, -1, 2):
                slipped = phase_shifted(s, 50, cycles, sat)
                result = estimate_baseline(slipped, 10, 50)
                assert result.status is BaselineStatus.REJECTED, (sat, cycles)
                assert result.dd_ambiguities == ()

    def test_gps_only_accepted_within_three_sigma(self):
        square = [[0, 0, 0], [50, 0, 0], [50, 50, 0], [0, 50, 0], [0, 0, 0]]
        accepted = 0
        for seed in range(1, 6):
            cfg = ScenarioConfig(
                duration=200.0,
                trajectory=TrajectoryConfig(kind="waypoints", speed=1.0,
                                            waypoints=square),
                counts={Constellation.GPS: 31}, seed=seed)
            truth, epochs, states = run_scenario(cfg)
            result = solve_trajectory(epochs, states,
                                      PipelineConfig(iono=cfg.iono,
                                                     tropo=cfg.tropo))
            for i, j, tr in result.trrtk_results:
                if tr.status is not BaselineStatus.FIXED:
                    continue
                accepted += 1
                sigma = np.sqrt(np.trace(tr.covariance))
                assert sigma <= PRECISION_MAX_M
                error = np.linalg.norm(
                    tr.baseline - (truth[j].position - truth[i].position))
                assert error <= 3.0 * sigma, (seed, i, j)
        assert accepted > 0

    def test_chi2_survival_matches_scipy(self):
        from scipy.stats import chi2
        for dof in range(9, 61):
            # from the median far into the upper tail
            for p in np.logspace(-12, np.log10(0.5), 25):
                x = chi2.isf(p, dof)
                assert _chi2_survival(x, dof) == pytest.approx(
                    chi2.sf(x, dof), rel=1e-9)
            assert _chi2_survival(0.0, dof) == pytest.approx(1.0)
            x = chi2.ppf(1e-6, dof)
            assert _chi2_survival(x, dof) == pytest.approx(1.0 - 1e-6)


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
        s = session_at(cfg, epochs, states,
                       [spp.position for spp in result.spp_solutions])
        again = estimate_baseline(s, i, j, interval=2.0)
        assert again.baseline.tobytes() == tr.baseline.tobytes()
        with pytest.raises(InsufficientSatellites):
            estimate_baseline(s, i, j)


def same_result(a, b) -> bool:
    """Byte for byte the same TrRtkResult."""
    return (a.status is b.status and a.p_value == b.p_value
            and a.time_difference == b.time_difference
            and a.dd_ambiguities == b.dd_ambiguities
            and a.baseline.tobytes() == b.baseline.tobytes()
            and a.covariance.tobytes() == b.covariance.tobytes())


class TestPairLattice:
    def test_coarse_spacing_attempts_each_pair_once(self):
        """At 30 s spacing the 20/30, 45/60 and 80/100 s offsets are the
        same observation step: that pair is attempted, and becomes a
        factor, once."""
        cfg = quiet_scenario(duration=300.0, rate=1.0 / 30.0)
        truth, epochs, states = run_scenario(cfg)
        result = solve_trajectory(epochs, states,
                                  PipelineConfig(iono=cfg.iono,
                                                 tropo=cfg.tropo))
        pairs = ([(i, j) for i, j, _ in result.trrtk_results]
                 + [(i, j) for i, j, _ in result.trrtk_errors])
        assert len(pairs) == len(set(pairs)) == result.trrtk_attempts > 0
        fixed = {(i, j) for i, j, tr in result.trrtk_results
                 if tr.status is BaselineStatus.FIXED}
        assert len(result.graph.trrtk_factors) == len(fixed) > 0

    def test_pairs_across_a_gap_keep_their_time_step(self):
        cfg = quiet_scenario(duration=120.0)
        truth, epochs, states = run_scenario(cfg)
        keep = [k for k in range(len(epochs)) if not 50 <= k < 60]
        epochs = [epochs[k] for k in keep]
        states = [states[k] for k in keep]
        result = solve_trajectory(epochs, states,
                                  PipelineConfig(iono=cfg.iono,
                                                 tropo=cfg.tropo))
        assert result.trrtk_results
        for i, j, tr in result.trrtk_results:
            assert min(abs(tr.time_difference - step)
                       for step in TR_PAIR_LATTICE) < 1e-6, (i, j)

    def test_one_missing_epoch_keeps_the_interval(self):
        """Epoch 1 of a 1 Hz line missing: the interval is still 1 s, so
        every attempted pair spans a lattice offset."""
        cfg = quiet_scenario()
        truth, epochs, states = run_scenario(cfg)
        del epochs[1], states[1]
        result = solve_trajectory(epochs, states,
                                  PipelineConfig(iono=cfg.iono,
                                                 tropo=cfg.tropo))
        pairs = ([(i, j) for i, j, _ in result.trrtk_results]
                 + [(i, j) for i, j, _ in result.trrtk_errors])
        assert len(pairs) == result.trrtk_attempts > 0
        for i, j in pairs:
            offset = epochs[j].time - epochs[i].time
            assert min(abs(offset - step)
                       for step in TR_PAIR_LATTICE) < 1e-6, (i, j)
        for i, j, tr in result.trrtk_results:
            assert min(abs(tr.time_difference - step)
                       for step in TR_PAIR_LATTICE) < 1e-6, (i, j)

    def test_every_attempt_has_an_outcome(self):
        cfg = quiet_scenario(duration=120.0)
        truth, epochs, states = run_scenario(cfg)
        result = solve_trajectory(epochs, states, PipelineConfig(
            iono=cfg.iono, tropo=cfg.tropo,
            trrtk=TrRtkConfig(max_time_difference=50.0)))
        window = {(i, j) for i, j, name in result.trrtk_errors
                  if name == "WindowExceeded"}
        assert window == {(j - step, j) for j in range(len(epochs))
                          for step in (60, 80, 100) if j >= step}
        assert (len(result.trrtk_results) + len(result.trrtk_errors)
                == result.trrtk_attempts)


class TestPairBlocks:
    @pytest.fixture(scope="class")
    def square(self):
        square = [[0, 0, 0], [50, 0, 0], [50, 50, 0], [0, 50, 0], [0, 0, 0]]
        cfg = ScenarioConfig(
            duration=200.0,
            trajectory=TrajectoryConfig(kind="waypoints", speed=1.0,
                                        waypoints=square), seed=4)
        truth, epochs, states = run_scenario(cfg)
        result = solve_trajectory(epochs, states,
                                  PipelineConfig(iono=cfg.iono,
                                                 tropo=cfg.tropo))
        s = session_at(cfg, epochs, states,
                       [spp.position for spp in result.spp_solutions])
        return s, result

    def test_lattice_pairs_match_the_pair_alone(self, square, monkeypatch):
        s, result = square
        assert len(result.trrtk_results) == result.trrtk_attempts > 1000
        for i, j, tr in result.trrtk_results:
            assert same_result(tr, estimate_baseline(s, i, j)), (i, j)
        monkeypatch.setattr(trrtk, "BLOCK_PAIRS", 7)
        pairs = [(i, j) for i, j, _ in result.trrtk_results]
        again = solve_pairs(s, pairs)
        assert all(same_result(a, tr) for a, (_, _, tr)
                   in zip(again, result.trrtk_results))

    def test_failures_stay_with_their_pair(self, square):
        s, _ = square
        # each epoch in one pair, all pairs in one block
        pairs = [(k, k + 30) for k in range(30)]
        clean = solve_pairs(s, pairs)
        assert all(isinstance(r, TrRtkResult) for r in clean)
        sat_position, lock = s.sat_position.copy(), s.lock.copy()
        # pair 3: a satellite 500 km from the receiver
        first = np.flatnonzero(s.usable[33])[0]
        sat_position[33, first] = s.receiver[33] + [5e5, 0.0, 0.0]
        # pair 7: every lock count reset
        lock[37, lock[37] >= 0] = 0
        # pair 11: every satellite at one position
        for k in (11, 41):
            sat_position[k] = sat_position[k, np.flatnonzero(s.usable[k])[0]]
        dirty = solve_pairs(replace(s, sat_position=sat_position, lock=lock),
                            pairs)
        failed = {3: DegenerateGeometry, 7: InsufficientSatellites,
                  11: SingularGeometry}
        for k, (a, b) in enumerate(zip(clean, dirty)):
            if k in failed:
                assert type(b) is failed[k]
            else:
                assert same_result(a, b), k

    def test_passes_shrink_to_the_pairs_still_moving(self, square,
                                                     monkeypatch):
        """Each Gauss-Newton pass of a block models only the pairs whose
        last step was at least 1 um: all of them in the first two passes,
        then fewer, and no pass without a pair."""
        s, result = square
        pairs = [(i, j) for i, j, _ in result.trrtk_results]
        pairs = pairs[:trrtk.BLOCK_PAIRS]
        assert len(pairs) == 128
        passes = []
        model = trrtk._model

        def recorded(dd, baseline, shift):
            # a pair is known by its two receiver positions
            passes.append({p.tobytes() + c.tobytes(): b.copy()
                           for p, c, b in zip(dd.receiver_past,
                                              dd.receiver_current, baseline)})
            return model(dd, baseline, shift)

        monkeypatch.setattr(trrtk, "_model", recorded)
        final = {s.receiver[i].tobytes() + s.receiver[j].tobytes(): r.baseline
                 for (i, j), r in zip(pairs, solve_pairs(s, pairs))}
        assert [len(rows) for rows in passes[:2]] == [len(pairs)] * 2
        assert all(passes) and sum(map(len, passes)) < 4 * len(pairs)
        for now, later in zip(passes, passes[1:] + [{}]):
            moving = {key for key, before in now.items()
                      if np.linalg.norm(later.get(key, final[key]) - before)
                      >= 1e-6}
            assert set(later) == moving

    def test_inactive_pairs_are_left_alone(self, square):
        """Pairs outside `active` keep their initial baseline, a zero
        covariance and residual sum and no error; those inside it get
        the bits and errors of a solve with every pair active."""
        s, result = square
        past, current = np.array([(i, j) for i, j, _
                                  in result.trrtk_results][:40]).T
        dt = np.array([s.times[j] - s.times[i]
                       for i, j in zip(past, current)])
        locked = trrtk._locked(s, past, current, dt, 1.0)
        dd = trrtk._double_differences(s, past, current, locked,
                                       TrRtkConfig())
        sat_past, sat_current = dd.sat_past.copy(), dd.sat_current.copy()
        # pair 4: a satellite 500 km from the receiver
        sat_past[4, np.flatnonzero(dd.used[4])[0]] = (dd.receiver_past[4]
                                                      + [5e5, 0.0, 0.0])
        # pair 7: every satellite at one position
        for sats in (sat_past, sat_current):
            sats[7] = sats[7, np.flatnonzero(dd.used[7])[0]]
        dd = replace(dd, sat_past=sat_past, sat_current=sat_current)
        active = np.arange(40) % 3 == 1
        everything = solve_float_baseline(dd)
        baseline, cov, omega, errors = solve_float_baseline(dd,
                                                            active=active)
        assert active.sum() == 13
        initial = dd.receiver_current - dd.receiver_past
        assert baseline[~active].tobytes() == initial[~active].tobytes()
        assert not cov[~active].any() and not omega[~active].any()
        assert [type(e) for e in errors] == [type(e) for e in everything[3]]
        assert [k for k, e in enumerate(errors) if e is not None] == [4, 7]
        assert type(errors[4]) is DegenerateGeometry
        assert type(errors[7]) is SingularGeometry
        for got, want in zip((baseline, cov, omega), everything[:3]):
            assert got[active].tobytes() == want[active].tobytes()
        assert not np.array_equal(baseline[active], initial[active])


def exact_solve(cov, rhs):
    """cov^-1 rhs by Gauss-Jordan elimination in exact rational arithmetic,
    cov (m, m) and rhs (m, k) given as Fractions."""
    m = len(cov)
    rows = [list(cov[i]) + list(rhs[i]) for i in range(m)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * u for v, u in zip(rows[r], rows[col])]
    return np.array([[float(v) for v in row[m:]] for row in rows])


class TestShermanMorrison:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_closed_form_weight_is_the_dense_inverse(self, data):
        """The closed-form W x equals the inverse of the dense block-diagonal
        covariance of 1-3 reference groups, block g diag(own) + ref_g 11^T,
        applied to x, within 1e-12 relative. The reference is solved in
        exact arithmetic: at variance ratios near 1e6, np.linalg.inv of the
        float64 matrix is itself up to ~2e-10 off, and own + ref rounds."""
        sizes = data.draw(st.lists(st.integers(1, 12), min_size=1,
                                   max_size=3))
        variance = st.floats(1e-6, 1.0)
        m = sum(sizes)
        own = np.array(data.draw(st.lists(variance, min_size=m, max_size=m)))
        ref = np.array(data.draw(st.lists(variance, min_size=len(sizes),
                                          max_size=len(sizes))))
        starts = np.cumsum([0] + sizes).tolist()
        spans = tuple(zip(starts[:-1], starts[1:]))
        cov = [[Fraction(0)] * m for _ in range(m)]
        for (a, b), r in zip(spans, ref):
            for i in range(a, b):
                for j in range(a, b):
                    cov[i][j] = Fraction(r) + (Fraction(own[i]) if i == j
                                               else 0)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        vector, jacobian = rng.normal(size=m), rng.normal(size=(m, 6))
        want = exact_solve(cov, [[Fraction(v) for v in row] for row in
                                 np.column_stack([vector, jacobian])])
        got_vector = _weigh(vector[None], 1.0 / own[None], 1.0 / ref[None],
                            spans)[0]
        got_jacobian = _weigh(jacobian[None], (1.0 / own)[None, :, None],
                              (1.0 / ref)[None, :, None], spans)[0]
        for got, expected in ((got_vector, want[:, 0]),
                              (got_jacobian, want[:, 1:])):
            assert (np.linalg.norm(got - expected)
                    <= 1e-12 * np.linalg.norm(expected))
