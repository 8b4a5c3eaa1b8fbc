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
from gnssgraph.gnsstime import GpsTime
from gnssgraph.metrics import compute_rpe
from gnssgraph.pipeline import (PipelineConfig, lattice_pairs,
                                solve_trajectory)
from gnssgraph.pointpos import SolverConfig, solve_spp
from gnssgraph.sim import (NoiseConfig, ReceiverClockConfig, ScenarioConfig,
                           TrajectoryConfig, run_scenario)
from gnssgraph.trrtk import (INTEGRITY_P_MIN, PRECISION_MAX_M,
                             TR_PAIR_LATTICE, BaselineStatus, TrRtkConfig,
                             TrRtkResult, _chi2_survival, _normal_equations,
                             _workspace,
                             detect_cycle_slips, epoch_corrections,
                             estimate_baseline, form_double_differences,
                             solve_float_baseline, solve_pairs,
                             time_single_difference)
from gnssgraph.types import Constellation, SatelliteId
from brute_force import dense_pair_solve, lattice_pairs_loop
from sessions import EIGHT_OFFSETS, positions_by_sat, row_of, sat_ids, take


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
    """The `epoch_corrections` session of SPP's last located geometry,
    each epoch within `convergence` of its SPP position, as the pipeline
    forms it."""
    return epoch_corrections(solve_spp(EpochGeometry(
        epochs, states, cfg.iono, cfg.tropo)).geometry)


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
        mask = g.usable(SolverConfig().elevation_mask)
        assert 0 < mask.sum() < len(mask)
        assert np.array_equal(s.usable[cells], mask)
        cells = (g.epoch[mask], column[mask])
        for name, rows in (("unit", g.unit), ("range", g.range),
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
        for a, b in zip(dd.observed[:, 0][dd.rows],
                        dd2.observed[:, 0][dd2.rows]):
            assert abs(a - b) < 1e-9

    def test_noise_free_dd_matches_baseline_projection(self):
        cfg = quiet_scenario(duration=30.0)
        _, _, dd = self._build(cfg, 0, 20)
        # located at the truth: the DD range change over the pair
        g = dd.ranges[0, 1] - dd.ranges[0, 0]
        for i in np.flatnonzero(dd.rows[0]):
            # zero noise, continuous lock: DD phase minus DD geometric range
            # change is the (zero) DD ambiguity
            assert abs(dd.observed[0, 0, i] - g[i]) < 1e-4

    def test_model_matches_per_satellite_line_of_sight(self):
        """The DD ranges and gradients of a pair are those of each
        satellite's own line of sight from the located receivers."""
        cfg = quiet_scenario(duration=30.0)
        truth, positions, dd = self._build(cfg, 0, 20)
        from gnssgraph.coords import line_of_sight
        (g_past, g_cur), (jac_past, jac_cur) = dd.ranges[0], dd.gradient[0]
        p_past, p_cur = truth[0].position, truth[20].position
        assert np.array_equal(dd.initial[0], p_cur - p_past)
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
            assert np.max(np.abs(jac_past[:, i] - (u_rp - u_sp))) < 1e-9
            assert np.max(np.abs(jac_cur[:, i] - (u_rc - u_sc))) < 1e-9
        nearest = min(line_of_sight(p, positions[e][dd.sats[k]])[1]
                      for e, p in ((0, p_past), (20, p_cur))
                      for k in np.flatnonzero(dd.used[0]))
        assert dd.nearest[0] == pytest.approx(nearest, abs=1e-6)

    def test_model_implausible_range_raises(self):
        cfg = quiet_scenario(duration=10.0)
        truth, epochs, states = run_scenario(cfg)
        s = truth_session(cfg, epochs, states, truth)
        # a receiver on a satellite the pair uses
        k = np.flatnonzero(form_double_differences(s, 0, 5).used[0])[0]
        ranges = s.range.copy()
        ranges[0, k] = 0.0
        with pytest.raises(DegenerateGeometry):
            solve_one(form_double_differences(replace(s, range=ranges), 0, 5))

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
    def test_dd_covariance_single_reference_formula(self):
        """The DD set's weights are those of the single-reference
        covariance: the reference's variance wherever two DDs share a
        reference, plus the satellite's own variance on the diagonal.
        `_normal_equations` of one kind's rows weighted by them is
        A^T C^-1 A with C that kind's dense covariance. Each entry is
        compared on the scale of its diagonal, so the ~1e6 m code DDs do
        not hide an error in the unit random columns."""
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
        # the observed DDs and 6 random columns, per kind and satellite
        lin = np.random.default_rng(5).normal(size=(1, 7, 3, len(dd.sats)))
        lin[0, 6] = dd.observed[0]
        for block in range(3):
            expected = np.zeros((m, m))
            for i in range(m):
                sr = sigma[dd.sats[refs[i]]][block]
                for j in range(m):
                    if refs[j] == refs[i]:
                        expected[i, j] = sr ** 2
                expected[i, i] = sr ** 2 + sigma[dd.sats[rows[i]]][block] ** 2
            a = lin[0, :, block, rows]
            want = a.T @ np.linalg.solve(expected, a)
            kind = slice(block, block + 1)
            got = _normal_equations(lin[:, :, kind], dd.weight[:, kind],
                                    dd.ref_weight[:, kind], dd.spans,
                                    _workspace((1, 7, 1, len(dd.sats)),
                                               len(dd.spans)))[0]
            scale = 1.0 / np.sqrt(np.diag(want))
            got, want = [scale[:, None] * x * scale for x in (got, want)]
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    @pytest.mark.parametrize("offset", [0.0, 1e-3])
    def test_duplicated_geometry_is_singular(self, offset, monkeypatch):
        # every satellite seen as one (plus `offset` m apart): the lines
        # of sight coincide, so the baseline is unobservable
        cfg = quiet_scenario(duration=10.0)
        truth, epochs, states = run_scenario(cfg)
        s = truth_session(cfg, epochs, states, truth)
        unit = s.unit.copy()
        for e in (0, 5):
            first = np.flatnonzero(s.usable[e])[0]
            steps = np.arange(unit.shape[1])[:, None]
            unit[e] = unit[e, first] + steps * offset / s.range[e, first]
        dd = form_double_differences(replace(s, unit=unit), 0, 5)

        def no_step(*args):
            raise AssertionError("stepped on singular normal equations")

        # refused by the check, before any solve
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

    def test_chi2_survival_arrays_match_scalars(self):
        """On arrays, each element is bit for bit its scalar value, for
        odd and even degrees of freedom mixed in one call, including a
        sum that rounded below zero."""
        rng = np.random.default_rng(11)
        dof = rng.integers(1, 70, size=300)
        x = np.abs(rng.normal(dof, 3.0 * np.sqrt(dof)))
        x[:3] = [0.0, -1e-12, 1e3]
        got = _chi2_survival(x, dof)
        assert got.shape == x.shape and {1, 0} == set(dof % 2)
        assert [float(v) for v in got] == [
            _chi2_survival(float(a), int(n)) for a, n in zip(x, dof)]
        assert isinstance(_chi2_survival(3.0, 4), float)


class TestLinearization:
    @pytest.mark.parametrize("offset", [3.0, 10.0, 30.0])
    def test_one_solve_within_its_envelope(self, offset):
        """The kernel solves each pair once, linearized where the session
        is located; the iterated dense oracle is the nonlinear reference.
        On the zero-noise line located at the truth plus a seeded offset
        of `offset` m per epoch, each in its own direction, both give
        each lattice pair the same status. The baselines differ by at
        most 2.5e-6 m per metre of offset: measured 1.8e-6 m per metre
        (5.4e-6 m at 3 m, 1.8e-5 m at 10 m), nearly all of it the change
        of the Sagnac rotation with the range, which the lines of sight
        leave out, as the |offset|^2 / 2 rho of a range linearized off
        its point is 2.5e-6 m at 10 m. That is below 1% of what the
        offset itself does to a baseline in either solver, ~1.5 cm at
        10 m, and at 30 m the chi-squared test rejects every pair in
        both."""
        cfg = quiet_scenario()
        truth, epochs, states = run_scenario(cfg)
        at_truth = np.array([r.position for r in truth])
        shift = np.random.default_rng(9).normal(size=at_truth.shape)
        shift *= offset / np.linalg.norm(shift, axis=1, keepdims=True)
        located = EpochGeometry(epochs, states, cfg.iono, cfg.tropo).at(
            at_truth + shift)
        s = epoch_corrections(located)
        pairs = lattice_pairs(s.times, EIGHT_OFFSETS, 1.0)
        config = TrRtkConfig()
        table = solve_pairs(s, pairs, config)
        dense = oracle_pairs(s, located, pairs, config, iterate=True)
        assert not table.errors
        assert table.fixed.tolist() == [d[4] for d in dense]
        assert table.fixed.all() if offset < 30.0 else not table.fixed.any()
        gap = max(np.abs(b - d[0]).max()
                  for b, d in zip(table.baseline, dense))
        assert gap <= 2.5e-6 * offset
        truth_error = max(np.linalg.norm(b - (at_truth[j] - at_truth[i]))
                          for b, (i, j) in zip(table.baseline, pairs))
        assert gap < 0.01 * truth_error


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
        s = spp_session(cfg, epochs, states)
        again = estimate_baseline(s, i, j, interval=2.0)
        assert again.baseline.tobytes() == tr.baseline.tobytes()
        with pytest.raises(InsufficientSatellites):
            estimate_baseline(s, i, j)


def outcomes(table) -> list:
    """Per row of a pair table, its TrRtkResult or its GnssError."""
    return [table.errors.get(k) or table.result(k)
            for k in range(len(table.pairs))]


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
        result = solve_trajectory(epochs, states, PipelineConfig(
            iono=cfg.iono, tropo=cfg.tropo, pair_lattice=EIGHT_OFFSETS))
        pairs = list(map(tuple, result.trrtk.pairs.tolist()))
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
        pairs = list(map(tuple, result.trrtk.pairs.tolist()))
        assert len(pairs) == result.trrtk_attempts > 0
        for i, j in pairs:
            offset = epochs[j].time - epochs[i].time
            assert min(abs(offset - step)
                       for step in TR_PAIR_LATTICE) < 1e-6, (i, j)
        for i, j, tr in result.trrtk_results:
            assert min(abs(tr.time_difference - step)
                       for step in TR_PAIR_LATTICE) < 1e-6, (i, j)

    @pytest.mark.parametrize("session", [
        "gap", "uneven", "half_second", "coarse", "week_rollover"])
    def test_matches_the_loop_oracle(self, session):
        """The same pairs in the same order as one bisection per current
        epoch and offset: across a 10-epoch gap, at spacing that wanders
        0.6-1.4 s, at a 0.5 s interval, at 30 s spacing where offsets
        coincide, and on GPS times across a week boundary."""
        rng = np.random.default_rng(12)
        times, interval = {
            "gap": (np.delete(np.arange(300.0), np.arange(50, 60)), 1.0),
            "uneven": (np.cumsum(rng.uniform(0.6, 1.4, 400)), 1.0),
            "half_second": (np.arange(0.0, 200.0, 0.5), 0.5),
            "coarse": (np.arange(0.0, 600.0, 30.0), 30.0),
            "week_rollover": ([GpsTime(2200, 604700.0).add(k)
                               for k in range(250)], 1.0),
        }[session]
        expected = lattice_pairs_loop(times, EIGHT_OFFSETS, interval)
        pairs = lattice_pairs(times, EIGHT_OFFSETS, interval)
        assert len(expected) > 0
        assert pairs.tolist() == [list(pair) for pair in expected]

    @settings(max_examples=100, deadline=None)
    @given(steps=st.lists(st.floats(0.2, 3.0), max_size=150),
           interval=st.sampled_from([0.5, 1.0, 2.0]),
           offsets=st.lists(st.sampled_from(EIGHT_OFFSETS), max_size=8))
    def test_any_increasing_times_match_the_loop_oracle(self, steps,
                                                        interval, offsets):
        times = np.concatenate([[0.0], np.cumsum(steps)])
        assert lattice_pairs(times, offsets, interval).tolist() == [
            list(pair) for pair in lattice_pairs_loop(times, offsets,
                                                      interval)]

    def test_every_attempt_has_an_outcome(self):
        cfg = quiet_scenario(duration=120.0)
        truth, epochs, states = run_scenario(cfg)
        result = solve_trajectory(epochs, states, PipelineConfig(
            iono=cfg.iono, tropo=cfg.tropo, pair_lattice=EIGHT_OFFSETS,
            trrtk=TrRtkConfig(max_time_difference=50.0)))
        window = {tuple(result.trrtk.pairs[k].tolist())
                  for k, error in result.trrtk.errors.items()
                  if type(error).__name__ == "WindowExceeded"}
        assert window == {(j - step, j) for j in range(len(epochs))
                          for step in (60, 80, 100) if j >= step}
        assert (len(result.trrtk_results) + len(result.trrtk.errors)
                == result.trrtk_attempts)

    @pytest.mark.parametrize("count", [4, 1], ids=["3s", "one-epoch"])
    def test_session_shorter_than_every_offset_solves(self, count):
        """A 3 s session, and one epoch of it, has no lattice pair: with
        TR-RTK on it solves, with 0 pairs attempted and no TR factor."""
        cfg = quiet_scenario(duration=3.0)
        truth, epochs, states = run_scenario(cfg)
        result = solve_trajectory(epochs[:count], states[:count],
                                  PipelineConfig(iono=cfg.iono,
                                                 tropo=cfg.tropo))
        assert result.trrtk_attempts == 0
        assert result.trrtk.fixed.dtype == bool
        assert len(result.graph.trrtk_factors) == 0
        assert result.report.converged
        assert np.isfinite(result.positions).all()
        assert result.positions.shape == (count, 3)


class TestPairTable:
    def test_result_views_are_the_table_rows(self):
        """What the benchmark reads of a solve, `trrtk_results` and
        `trrtk_attempts`, and the graph's TR factors are views of the
        pair table, on a short square with fixed pairs, rejected ones
        (across a slip the lock count misses) and errored ones (beyond
        a 50 s window)."""
        square = [[0, 0, 0], [20, 0, 0], [20, 20, 0], [0, 20, 0], [0, 0, 0]]
        cfg = ScenarioConfig(
            duration=80.0,
            trajectory=TrajectoryConfig(kind="waypoints", speed=1.0,
                                        waypoints=square), seed=1)
        truth, epochs, states = run_scenario(cfg)
        # one cycle more from epoch 40 on, the lock count kept
        key = epochs[0].sats[1]
        for epoch in epochs[40:]:
            epoch.phase[epoch.sats == key] += 1.0
        result = solve_trajectory(epochs, states, PipelineConfig(
            iono=cfg.iono, tropo=cfg.tropo, pair_lattice=EIGHT_OFFSETS,
            trrtk=TrRtkConfig(max_time_difference=50.0)))
        table = result.trrtk
        assert table.pairs.tolist() == [list(pair) for pair in lattice_pairs(
            [epoch.time for epoch in epochs], EIGHT_OFFSETS, 1.0)]
        assert result.trrtk_attempts == len(table.pairs)
        solved = [k for k in range(len(table.pairs)) if k not in table.errors]
        assert 0 < table.fixed.sum() < len(solved) < len(table.pairs)
        assert not table.fixed[list(table.errors)].any()
        assert (table.dd_count[table.fixed] >= 4).all()
        assert [[i, j] for i, j, _ in result.trrtk_results] == (
            table.pairs[solved].tolist())
        for k, (_, _, tr) in zip(solved, result.trrtk_results):
            assert (tr.status is BaselineStatus.FIXED) == table.fixed[k]
            assert tr.dd_ambiguities == (
                (0,) * table.dd_count[k] if table.fixed[k] else ())
            assert tr.baseline.tobytes() == table.baseline[k].tobytes()
            assert tr.covariance.tobytes() == table.covariance[k].tobytes()
            assert (tr.p_value, tr.time_difference) == (
                table.p_value[k], table.time_difference[k])
        factors, fixed = result.graph.trrtk_factors, table.fixed
        assert factors.nodes.tolist() == table.pairs[fixed].tolist()
        assert factors.baseline.tobytes() == table.baseline[fixed].tobytes()
        assert factors.time_difference.tobytes() == (
            table.time_difference[fixed].tobytes())


def faulted(s, far=(), collapsed=()):
    """`s` with, at each epoch of `far`, its first usable satellite 500 km
    from the receiver, and at each epoch of `collapsed`, every satellite
    seen along the first one's line of sight at its range."""
    unit, ranges = s.unit.copy(), s.range.copy()
    for e in far:
        ranges[e, np.flatnonzero(s.usable[e])[0]] = 5e5
    for e in collapsed:
        first = np.flatnonzero(s.usable[e])[0]
        unit[e], ranges[e] = unit[e, first], ranges[e, first]
    return replace(s, unit=unit, range=ranges)


def oracle_pairs(s, located, pairs, config, iterate):
    """`dense_pair_solve` of each pair on the DDs the kernel forms:
    (baseline, covariance, residual sum, p-value, fixed) per pair."""
    out = []
    for i, j in pairs:
        dd = form_double_differences(s, i, j, config)
        rows = np.flatnonzero(dd.rows[0])
        baseline, cov, omega, p_value = dense_pair_solve(
            s, located, i, j, list(zip(rows, dd.reference[0, rows])), config,
            iterate)
        out.append((baseline, cov, omega, p_value,
                    p_value >= INTEGRITY_P_MIN
                    and np.sqrt(np.trace(cov)) <= PRECISION_MAX_M))
    return out


class TestPairBlocks:
    @pytest.fixture(scope="class")
    def square(self):
        square = [[0, 0, 0], [50, 0, 0], [50, 50, 0], [0, 50, 0], [0, 0, 0]]
        cfg = ScenarioConfig(
            duration=200.0,
            trajectory=TrajectoryConfig(kind="waypoints", speed=1.0,
                                        waypoints=square), seed=4)
        truth, epochs, states = run_scenario(cfg)
        result = solve_trajectory(epochs, states, PipelineConfig(
            iono=cfg.iono, tropo=cfg.tropo, pair_lattice=EIGHT_OFFSETS))
        located = solve_spp(EpochGeometry(epochs, states, cfg.iono,
                                          cfg.tropo)).geometry
        return epoch_corrections(located), result, located

    def test_lattice_pairs_match_the_pair_alone(self, square, monkeypatch):
        s, result, _ = square
        assert len(result.trrtk_results) == result.trrtk_attempts > 1000
        for i, j, tr in result.trrtk_results:
            assert same_result(tr, estimate_baseline(s, i, j)), (i, j)
        monkeypatch.setattr(trrtk, "BLOCK_PAIRS", 7)
        pairs = [(i, j) for i, j, _ in result.trrtk_results]
        again = outcomes(solve_pairs(s, pairs))
        assert all(same_result(a, tr) for a, (_, _, tr)
                   in zip(again, result.trrtk_results))

    @pytest.mark.parametrize("block", [7, 128])
    def test_pair_order_leaks_nothing_between_blocks(self, square, block,
                                                     monkeypatch):
        """Every block of a call fills one workspace. The square's whole
        lattice, with faulted epochs, solved in reversed and in a shuffled
        order puts each pair in a block with pairs of other epochs and
        DD sets: each row still gets the bits and the error class of the
        in-order solve."""
        s, result, _ = square
        lock = s.lock.copy()
        lock[37, lock[37] >= 0] = 0
        s = replace(faulted(s, far=[33], collapsed=[11, 41]), lock=lock)
        pairs = result.trrtk.pairs
        want = solve_pairs(s, pairs)
        assert len(want.errors) > 10 and want.fixed.sum() > 1000
        monkeypatch.setattr(trrtk, "BLOCK_PAIRS", block)
        for order in (np.arange(len(pairs))[::-1],
                      np.random.default_rng(21).permutation(len(pairs))):
            got = solve_pairs(s, pairs[order])
            for name in ("baseline", "covariance", "p_value", "fixed",
                         "dd_count"):
                assert (getattr(got, name).tobytes()
                        == getattr(want, name)[order].tobytes()), name
            assert {k: type(e) for k, e in got.errors.items()} == {
                k: type(want.errors[o]) for k, o in enumerate(order)
                if o in want.errors}

    def test_failures_stay_with_their_pair(self, square):
        s, _, _ = square
        # each epoch in one pair, all pairs in one block
        pairs = [(k, k + 30) for k in range(30)]
        clean = outcomes(solve_pairs(s, pairs))
        assert all(isinstance(r, TrRtkResult) for r in clean)
        lock = s.lock.copy()
        # pair 7: every lock count reset
        lock[37, lock[37] >= 0] = 0
        # pair 3: a satellite 500 km from the receiver; pair 11: every
        # satellite along one line of sight
        dirty = outcomes(solve_pairs(
            replace(faulted(s, far=[33], collapsed=[11, 41]), lock=lock),
            pairs))
        failed = {3: DegenerateGeometry, 7: InsufficientSatellites,
                  11: SingularGeometry}
        for k, (a, b) in enumerate(zip(clean, dirty)):
            if k in failed:
                assert type(b) is failed[k]
            else:
                assert same_result(a, b), k

    def test_errored_pair_is_not_fixed(self, square):
        """A pair stopped by singular geometry keeps a zero covariance and
        residual sum, which would pass both gates: its row is an error,
        not a fix."""
        s, _, _ = square
        table = solve_pairs(faulted(s, collapsed=[11, 41]),
                            [(k, k + 30) for k in range(30)])
        assert list(table.errors) == [11]
        assert type(table.errors[11]) is SingularGeometry
        assert table.fixed.sum() == 29 and not table.fixed[11]
        assert table.baseline[11].tobytes() == (
            s.receiver[41] - s.receiver[11]).tobytes()
        assert not table.covariance[11].any()

    def test_block_matches_the_dense_oracle(self, square):
        """The first block of the square's pairs against a dense solve of
        each pair alone (explicit DD covariance, np.linalg.solve, scipy's
        chi-squared), linearized once as the kernel is: the same status,
        covariances within 1e-9 relative, and each p-value scipy's for the
        pair's residual sum within 1e-9 relative. Baselines and residual
        sums agree to the round-off floor of the model, not to 1e-9: a DD
        range is a difference of two 2e7 m ranges, 3.7e-9 m apart at one
        ulp, so two correct solvers end up ~5e-9 m and ~1e-7 relative
        apart; the bars are 1e-8 m and 1e-6."""
        from scipy.stats import chi2
        s, result, located = square
        pairs = [(i, j) for i, j, _ in result.trrtk_results][
            :trrtk.BLOCK_PAIRS]
        config = TrRtkConfig()
        dense = oracle_pairs(s, located, pairs, config, iterate=False)
        for (i, j), got, (baseline, cov, omega, p_value, fixed) in zip(
                pairs, outcomes(solve_pairs(s, pairs, config)), dense):
            assert got.status is (BaselineStatus.FIXED if fixed
                                  else BaselineStatus.REJECTED), (i, j)
            assert np.abs(got.baseline - baseline).max() <= 1e-8, (i, j)
            assert (np.abs(got.covariance - cov).max()
                    <= 1e-9 * np.abs(cov).max()), (i, j)
            dd = form_double_differences(s, i, j, config)
            kernel_omega = solve_one(dd)[2]
            assert kernel_omega == pytest.approx(omega, rel=1e-6), (i, j)
            assert got.p_value == pytest.approx(
                chi2.sf(kernel_omega, 3 * dd.rows.sum() - 3),
                rel=1e-9), (i, j)
            assert got.p_value == pytest.approx(p_value, rel=1e-6), (i, j)

    def test_one_linearization_matches_the_iterated_oracle(self, square):
        """The same block against the dense solve iterated to a baseline
        step below 1 um, the nonlinear reference: every pair keeps its
        status, and one linearization at the point solutions (each ~1 m
        off) moves no baseline by 1e-5 m."""
        s, result, located = square
        pairs = [(i, j) for i, j, _ in result.trrtk_results][
            :trrtk.BLOCK_PAIRS]
        assert len(pairs) == 128
        config = TrRtkConfig()
        dense = oracle_pairs(s, located, pairs, config, iterate=True)
        for (i, j), got, (baseline, _, _, _, fixed) in zip(
                pairs, outcomes(solve_pairs(s, pairs, config)), dense):
            assert got.status is (BaselineStatus.FIXED if fixed
                                  else BaselineStatus.REJECTED), (i, j)
            assert np.abs(got.baseline - baseline).max() <= 1e-5, (i, j)

    def test_no_line_of_sight_of_its_own(self, square, monkeypatch):
        """A block takes every line of sight and range from the located
        geometry: with the coordinate kernels that compute them made to
        raise, the square's first block still solves, to the same
        bits."""
        from gnssgraph import coords
        s, result, _ = square
        pairs = [(i, j) for i, j, _ in result.trrtk_results][
            :trrtk.BLOCK_PAIRS]
        before = outcomes(solve_pairs(s, pairs))

        def no_line_of_sight(*args):
            raise AssertionError("TR-RTK computed a line of sight")

        for name in ("unchecked_lines_of_sight", "line_of_sight"):
            monkeypatch.setattr(coords, name, no_line_of_sight)
            monkeypatch.setattr(trrtk, name, no_line_of_sight, raising=False)
        after = outcomes(solve_pairs(s, pairs))
        assert all(same_result(a, b) for a, b in zip(before, after))

    def test_inactive_pairs_are_left_alone(self, square):
        """Pairs outside `active` keep their initial baseline, a zero
        covariance and residual sum and no error; those inside it get
        the bits and errors of a solve with every pair active."""
        s, _, _ = square
        # every epoch in one pair
        past = np.arange(40)
        current = past + 50
        s = faulted(s, far=[4], collapsed=[7, 57])
        locked = trrtk._locked(s, past, current, current - past, 1.0)
        dd = trrtk._double_differences(s, past, current, locked,
                                       TrRtkConfig())
        active = np.arange(40) % 3 == 1
        everything = solve_float_baseline(dd)
        baseline, cov, omega, errors = solve_float_baseline(dd,
                                                            active=active)
        assert active.sum() == 13
        initial = dd.initial
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
    """cov^-1 rhs (m, k) as Fractions, by Gauss-Jordan elimination in exact
    rational arithmetic, cov (m, m) and rhs (m, k) given as Fractions."""
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
    return [row[m:] for row in rows]


class TestShermanMorrison:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_closed_form_weight_is_the_dense_inverse(self, data):
        """The centered Gram product of `_normal_equations` equals A^T C^-1 A
        for C the dense block-diagonal covariance of 1-3 reference groups,
        block g diag(own) + ref_g 11^T, and A a 6-column Jacobian beside a
        residual vector, within 1e-12 relative. The reference is solved in exact
        arithmetic: at variance ratios near 1e6, np.linalg.inv of the
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
        rows = np.column_stack([rng.normal(size=(m, 6)), rng.normal(size=m)])
        exact = [[Fraction(v) for v in row] for row in rows]
        weighted = exact_solve(cov, exact)
        want = np.array([[float(sum(exact[k][i] * weighted[k][j]
                                    for k in range(m)))
                          for j in range(7)] for i in range(7)])
        got = _normal_equations(rows.T[None, :, None], 1.0 / own[None, None],
                                1.0 / ref[None, None], spans,
                                _workspace((1, 7, 1, m), len(spans)))[0]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_glonass_is_differenced_across_channels(seed):
    """A GPS+GLONASS square fixes as a multi-GNSS one does: its GLONASS
    satellites, each on its own FDMA carrier, are differenced against
    the constellation's reference whatever its channel, since every DD
    integer is held at 0 and the receiver clock in metres is common to
    every carrier. At least 95% of the pairs fix, the RPE is within
    criterion 1's bounds, and every fixed baseline is within three times
    sqrt(trace) of its covariance."""
    square = [[0, 0, 0], [50, 0, 0], [50, 50, 0], [0, 50, 0], [0, 0, 0]]
    cfg = ScenarioConfig(
        duration=200.0, seed=seed,
        counts={Constellation.GPS: 31, Constellation.GLO: 24},
        trajectory=TrajectoryConfig(kind="waypoints", speed=1.0,
                                    waypoints=square))
    truth, epochs, states = run_scenario(cfg)
    result = solve_trajectory(epochs, states, PipelineConfig(
        iono=cfg.iono, tropo=cfg.tropo))
    truth = np.array([r.position for r in truth])
    table = result.trrtk
    fixed = int(table.fixed.sum())
    assert fixed >= 0.95 * len(table.pairs), f"{fixed} of {len(table.pairs)}"
    mean, peak, _ = compute_rpe(result.positions, truth)
    assert mean <= 0.05 and peak <= 0.10
    past, current = table.pairs[table.fixed].T
    error = np.linalg.norm(table.baseline[table.fixed]
                           - (truth[current] - truth[past]), axis=1)
    sigma = np.sqrt(np.trace(table.covariance[table.fixed], axis1=1, axis2=2))
    assert (error <= 3.0 * sigma).all(), (error / sigma).max()
