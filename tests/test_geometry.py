from dataclasses import fields, replace

import numpy as np
import pytest

from gnssgraph.atmosphere import (KlobucharParams, TropoModel, klobuchar_delay,
                                  saastamoinen_delay)
from gnssgraph.constants import CLIGHT
from gnssgraph.coords import (ecef_to_geodetic, elevation_azimuth,
                              enu_rotation, geodetic_to_ecef, line_of_sight)
from gnssgraph.errors import DegenerateGeometry
from gnssgraph.geometry import EpochGeometry
from gnssgraph.gnsstime import GpsTime
from gnssgraph import pipeline, pointpos
from gnssgraph.graph import build_graph
from gnssgraph.pipeline import PipelineConfig, solve_trajectory
from gnssgraph.pointpos import (SolverConfig, solve_doppler_velocity,
                                solve_spp)
from gnssgraph.sim import ScenarioConfig, TrajectoryConfig, run_scenario
from gnssgraph.trrtk import TrRtkPairs, epoch_corrections
from gnssgraph.types import (CONSTELLATION_INDEX, Constellation, Epoch,
                             GeodeticPosition, SatelliteId)
from sessions import row_of

SITE = GeodeticPosition(np.radians(35.0), np.radians(140.0), 40.0)


def sky_epoch(elevations_deg, distances=None):
    """One GPS satellite per elevation, 75 deg of azimuth apart, at 2e7 m
    from SITE or at `distances`, plus one observed GAL satellite without
    a known state."""
    origin = geodetic_to_ecef(SITE)
    to_ecef = enu_rotation(SITE).T
    distances = distances or [2e7] * len(elevations_deg)
    n = len(elevations_deg)
    prn = np.arange(1, n + 1)
    el, az = np.radians(elevations_deg), np.radians(75.0 * prn)
    direction = np.column_stack([np.cos(el) * np.sin(az),
                                 np.cos(el) * np.cos(az), np.sin(el)])
    states = np.full((n + 1, 8), np.nan)
    states[:n, :3] = origin + (np.array(distances)[:, None] * direction
                               @ to_ecef.T)
    states[:n, 3:6] = np.array([1.0, 2.0, 3.0]) * prn[:, None]
    states[:n, 6], states[:n, 7] = 1e-5 * prn, 1e-12 * prn
    gal = SatelliteId(Constellation.GAL, 1).key
    epoch = Epoch(GpsTime(2200, 40000.0), sats=np.append(prn, gal),
                  code=np.append(2e7 + prn, 2.1e7), phase=np.full(n + 1, 1e8),
                  doppler=np.append(-10.0 * prn, 0.0),
                  wavelength=np.full(n + 1, 0.19), lock=np.full(n + 1, 5),
                  snr=np.full(n + 1, 45.0))
    return epoch, states, origin


class TestEpochGeometry:
    def test_arrays_match_per_satellite_calls(self):
        epoch, states, origin = sky_epoch([80.0, 45.0, 20.0, 10.0])
        iono, tropo = KlobucharParams.typical(), TropoModel()
        g = EpochGeometry([epoch], [states], iono, tropo).at([origin])
        assert g.sats.tolist() == [1, 2, 3, 4]      # GPS 1-4, not GAL 1
        assert g.sat_position.shape == (4, 3)
        for k, sat in enumerate(map(SatelliteId.from_key, g.sats.tolist())):
            state = states[row_of(epoch, sat)]
            assert np.array_equal(g.sat_position[k], state[:3])
            assert g.clock_bias[k] == state[6]
            assert g.slot[k] == CONSTELLATION_INDEX[sat.constellation]
            assert (g.prn[k], g.phase[k], g.lock[k]) == (sat.prn, 1e8, 5)
            receiver = GeodeticPosition(g.geodetic.latitude[0],
                                        g.geodetic.longitude[0],
                                        g.geodetic.height[0])
            el, az = elevation_azimuth(receiver, state[:3])
            assert g.elevation[k] == el and g.azimuth[k] == az
            unit, rng = line_of_sight(origin, state[:3])
            assert np.allclose(g.unit[k], unit, rtol=0.0, atol=1e-15)
            assert g.range[k] == pytest.approx(rng, rel=1e-15)
            i = klobuchar_delay(iono, epoch.time.tow, receiver, el, az)
            t = saastamoinen_delay(tropo, receiver, el)
            assert g.iono[k] == pytest.approx(i, rel=1e-14)
            assert g.tropo[k] == pytest.approx(t, rel=1e-14)
            row = row_of(epoch, sat)
            assert g.corrected_code[k] == pytest.approx(
                epoch.code[row] + CLIGHT * state[6] - i - t,
                rel=1e-15)
            assert g.doppler[k] == epoch.doppler[row]
            assert np.array_equal(g.sat_velocity[k], state[3:6])

    def test_at_moves_only_the_receiver(self):
        epoch, states, origin = sky_epoch([80.0, 45.0, 20.0])
        satellites = EpochGeometry([epoch], [states])
        a, b = satellites.at([origin]), satellites.at([origin + 100.0])
        assert a.sat_position is b.sat_position
        assert np.array_equal(a.position, [origin])
        assert not np.array_equal(a.range, b.range)
        assert np.array_equal(a.iono, np.zeros(3))      # no models given
        assert np.array_equal(a.tropo, np.zeros(3))

    def test_delays_undefined_outside_model_domains(self):
        epoch, states, origin = sky_epoch([60.0, 0.5, -5.0])
        g = EpochGeometry([epoch], [states], KlobucharParams.typical(),
                          TropoModel()).at([origin])
        assert np.isfinite(g.iono[:2]).all() and np.isnan(g.iono[2])
        assert np.isfinite(g.tropo[0]) and np.isnan(g.tropo[1:]).all()
        # a row outside a delay model's domain is no observation at any
        # mask; without the models, only the mask decides
        for mask in (0.0, 15.0):
            assert g.usable(np.radians(mask)).tolist() == [True, False, False]
        iono = EpochGeometry([epoch], [states],
                             KlobucharParams.typical()).at([origin])
        assert iono.usable(np.radians(-10.0)).tolist() == [True, True, False]
        plain = EpochGeometry([epoch], [states]).at([origin])
        assert plain.usable(0.0).tolist() == [True, True, False]
        assert plain.usable(np.radians(61.0)).tolist() == [False] * 3

    def test_range_faults_cover_the_usable_rows(self):
        """A satellite 500 km away is implausible; below the mask it is
        no observation, so it is no fault."""
        close = [2e7] * 4 + [5e5]
        epoch, states, origin = sky_epoch([80.0, 60.0, 45.0, 20.0, 5.0],
                                          close)
        g = EpochGeometry([epoch], [states]).at([origin])
        assert g.range_faults(np.radians(15.0)) == {}
        fault = g.range_faults(0.0)[0]
        assert type(fault) is DegenerateGeometry
        assert str(fault) == "satellite range 500000 m implausible"
        assert solve_doppler_velocity(g).errors == {}
        epoch, states, origin = sky_epoch([80.0, 60.0, 45.0, 20.0, 30.0],
                                          close)
        velocity = solve_doppler_velocity(
            EpochGeometry([epoch], [states]).at([origin]))
        assert isinstance(velocity.errors[0], DegenerateGeometry)

    def test_corrections_are_the_geometry_rows_above_the_mask(self):
        epoch, states, origin = sky_epoch([80.0, 45.0, 20.0, 10.0])
        g = EpochGeometry([epoch], [states], KlobucharParams.typical(),
                          TropoModel()).at([origin])
        s = epoch_corrections(g)
        assert np.array_equal(s.receiver[0], g.position[0])
        assert s.sats == tuple(map(SatelliteId.from_key, g.sats.tolist()))
        assert s.usable[0].tolist() == [True, True, True, False]
        for k in range(3):
            assert np.array_equal(s.unit[0, k], g.unit[k])
            assert s.range[0, k] == g.range[k]
            assert s.elevation[0, k] == g.elevation[k]
            assert (s.iono[0, k], s.tropo[0, k]) == (g.iono[k], g.tropo[k])
            assert s.code[0, k] == g.corrected_code[k]


GPS_GAL = {Constellation.GPS: 31, Constellation.GAL: 24}


def with_satellite(truth, epochs, states, elevation_deg, distance=2.2e7,
                   only=None):
    """The session with one more GPS satellite, PRN 32, at
    `elevation_deg` and `distance` from each epoch's truth position (or
    only in the epochs `only`). Its state copies the first satellite's
    clock, and its measurements are that satellite's with the code moved
    by the difference of the two ranges, so Bancroft's fix, which takes
    every row, stays where it was."""
    key = SatelliteId(Constellation.GPS, 32).key
    epochs, states = list(epochs), list(states)
    for e in range(len(epochs)) if only is None else only:
        site = ecef_to_geodetic(truth[e].position)
        az, el = np.radians(200.0), np.radians(elevation_deg)
        sat = truth[e].position + distance * (enu_rotation(site).T @ [
            np.cos(el) * np.sin(az), np.cos(el) * np.cos(az), np.sin(el)])
        epoch, k = epochs[e], int(np.searchsorted(epochs[e].sats, key))
        shift = (np.linalg.norm(sat - truth[e].position)
                 - np.linalg.norm(states[e][0, :3] - truth[e].position))
        row = {f.name: getattr(epoch, f.name)[0] for f in fields(epoch)
               if f.name != "time"}
        row.update(sats=key, code=row["code"] + shift)
        epochs[e] = replace(epoch, **{name: np.insert(
            getattr(epoch, name), k, value) for name, value in row.items()})
        states[e] = np.insert(states[e], k, np.concatenate(
            [sat, np.zeros(3), states[e][0, 6:]]), axis=0)
    return epochs, states


@pytest.fixture(scope="module")
def static_session():
    """A static GPS+GAL session of 21 epochs, its truth and its delay
    models."""
    cfg = ScenarioConfig(duration=20.0, counts=GPS_GAL, seed=1)
    truth, epochs, states = run_scenario(cfg)
    return cfg, truth, epochs, states


def test_a_satellite_outside_the_delay_models_is_left_out_at_mask_zero(
        static_session):
    """At a mask of 0, a satellite at 0.5 deg, where the troposphere
    model is undefined, is no observation of any stage: the session
    solves as it does without it, where it once aborted SPP with
    ElevationTooLow."""
    cfg, truth, epochs, states = static_session
    config = PipelineConfig(iono=cfg.iono, tropo=cfg.tropo,
                            solver=SolverConfig(elevation_mask=0.0))
    low = solve_trajectory(*with_satellite(truth, epochs, states, 0.5),
                           config)
    plain = solve_trajectory(epochs, states, config)
    assert len(low.trrtk.pairs) == 16 and low.trrtk.fixed.all()
    assert np.abs(low.positions - plain.positions).max() < 1e-3
    error = low.positions - np.array([r.position for r in truth])
    assert np.linalg.norm(error, axis=1).max() < 1.0


class TestOneObservationRule:
    """SPP, Doppler, the TR-RTK grid and the pseudorange factors take the
    same rows of a located geometry, `usable(mask)`, and stop on the same
    epochs' range faults."""

    @pytest.mark.parametrize("mask_deg", [0.0, 15.0])
    def test_every_stage_takes_the_usable_rows(self, static_session,
                                               mask_deg, monkeypatch):
        cfg, truth, epochs, states = static_session
        epochs, states = with_satellite(truth, epochs, states, 0.5)
        solver = SolverConfig(elevation_mask=np.radians(mask_deg))
        spp = solve_spp(EpochGeometry(epochs, states, cfg.iono, cfg.tropo),
                        solver)
        located = spp.geometry
        usable = located.usable(solver.elevation_mask)
        low = located.sats == SatelliteId(Constellation.GPS, 32).key
        assert low.sum() == len(epochs) and not usable[low].any()
        # at 0 deg each simulated satellite (masked at 5 deg) is an
        # observation, at 15 deg not each
        assert (usable.sum() == (~low).sum()) == (mask_deg == 0.0)
        count = np.zeros_like(spp.used)
        np.add.at(count, (located.epoch[usable], located.slot[usable]), 1)
        assert spp.errors == {} and np.array_equal(spp.used, count)

        taken, normals = [], pointpos._normals

        def recording(geometry, rows, *args):
            taken.append(rows)
            return normals(geometry, rows, *args)
        monkeypatch.setattr(pointpos, "_normals", recording)
        velocities = solve_doppler_velocity(located, solver)
        monkeypatch.undo()
        assert len(taken) == 1 and np.array_equal(taken[0], usable)

        s = epoch_corrections(located, solver.elevation_mask)
        column = [s.sats.index(SatelliteId.from_key(key))
                  for key in located.sats.tolist()]
        assert np.array_equal(s.usable[located.epoch, column], usable)

        graph = build_graph(located, velocities, spp, TrRtkPairs.unsolved(
            np.zeros((0, 2), int), np.zeros(0)), solver)
        rows = graph.pseudorange_factors
        assert rows.node.tolist() == located.epoch[usable].tolist()
        assert rows.sat.tolist() == located.sats[usable].tolist()

    def test_every_stage_stops_on_the_same_range_faults(self,
                                                        static_session):
        cfg, truth, epochs, states = static_session
        solver = SolverConfig()
        spp = solve_spp(EpochGeometry(epochs, states, cfg.iono, cfg.tropo))
        velocities = solve_doppler_velocity(spp.geometry)
        # epoch 3 sees a satellite 500 km away, 45 deg up
        epochs, states = with_satellite(truth, epochs, states, 45.0, 5e5,
                                        only=[3])
        satellites = EpochGeometry(epochs, states, cfg.iono, cfg.tropo)
        located = satellites.at([r.position for r in truth])
        faults = located.range_faults(solver.elevation_mask)
        assert list(faults) == [3]
        message = str(faults[3])
        assert message == "satellite range 500000 m implausible"
        got = solve_spp(satellites, solver).errors
        assert list(got) == [3] and type(got[3]) is DegenerateGeometry
        got = solve_doppler_velocity(located, solver).errors
        assert {e: str(x) for e, x in got.items()} == {3: message}
        with pytest.raises(DegenerateGeometry, match=message):
            epoch_corrections(located, solver.elevation_mask)
        empty = TrRtkPairs.unsolved(np.zeros((0, 2), int), np.zeros(0))
        with pytest.raises(DegenerateGeometry, match=message):
            build_graph(located, velocities, spp, empty, solver)
        graph = build_graph(located, velocities, spp, empty, solver,
                            use_pseudorange=False)
        assert len(graph.pseudorange_factors) == 0


@pytest.mark.parametrize("use_trrtk", [True, False], ids=["trrtk", "notr"])
def test_solve_gathers_each_epoch_once(monkeypatch, use_trrtk):
    """SPP, Doppler, TR-RTK and the pseudorange factors all use the one
    session geometry that the pipeline builds: SPP locates it at each
    of its iterations, and nothing after SPP locates it again."""
    cfg = ScenarioConfig(duration=12.0,
                         trajectory=TrajectoryConfig(kind="line", speed=2.0),
                         seed=5)
    _, epochs, states = run_scenario(cfg)
    built, located, in_spp = [], [], [False]
    init, at = EpochGeometry.__init__, EpochGeometry.at
    spp = pipeline.solve_spp

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_at(self, positions):
        located.append(in_spp[0])
        return at(self, positions)

    def marked_spp(*args, **kwargs):
        in_spp[0] = True
        try:
            return spp(*args, **kwargs)
        finally:
            in_spp[0] = False

    monkeypatch.setattr(EpochGeometry, "__init__", counting_init)
    monkeypatch.setattr(EpochGeometry, "at", counting_at)
    monkeypatch.setattr(pipeline, "solve_spp", marked_spp)
    result = solve_trajectory(epochs, states, PipelineConfig(
        use_trrtk=use_trrtk, iono=cfg.iono, tropo=cfg.tropo))
    assert len(built) == 1
    assert located.count(False) == 0
    assert located.count(True) >= 2
    assert (len(result.graph.trrtk_factors) > 0) == use_trrtk


def test_simulator_and_solver_see_the_same_lines_of_sight():
    """The default session located at its truth sees each satellite with
    the unit vector and range that the simulator's `line_of_sight`
    gives, bit for bit: both take one kernel."""
    truth, epochs, states = run_scenario(ScenarioConfig())
    positions = np.array([record.position for record in truth])
    g = EpochGeometry(epochs, states).at(positions)
    unit, rng = line_of_sight(positions[g.epoch], g.sat_position)
    assert len(rng) > 1000
    assert unit.tobytes() == g.unit.tobytes()
    assert rng.tobytes() == g.range.tobytes()


@pytest.mark.parametrize("convergence", [None, 0.015],
                         ids=["default", "staggered"])
def test_solve_hands_on_the_geometry_at_spp_last_iterates(monkeypatch,
                                                          convergence):
    """Doppler, TR-RTK and the graph get one geometry from SPP, equal bit
    for bit to the session located afresh at the positions it states,
    each within `convergence` of its epoch's fix. SPP locates every
    epoch at each iterate; with a convergence of 15 mm some epochs stop
    an iterate before the others, and are seen from their fixes."""
    cfg = ScenarioConfig(duration=20.0, trajectory=TrajectoryConfig(
        kind="circle", speed=3.0), seed=5)
    _, epochs, states = run_scenario(cfg)
    solver = SolverConfig() if convergence is None else SolverConfig(
        convergence=convergence)
    handed, located = [], []
    at = EpochGeometry.at

    def recording_at(self, positions):
        located.append(np.array(positions))
        return at(self, positions)

    def receiving(name, position):
        stage = getattr(pipeline, name)

        def received(*args, **kwargs):
            handed.append(args[position])
            return stage(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, received)

    for name in ("solve_doppler_velocity", "epoch_corrections",
                 "build_graph"):
        receiving(name, 0)
    monkeypatch.setattr(EpochGeometry, "at", recording_at)
    result = solve_trajectory(epochs, states, PipelineConfig(
        iono=cfg.iono, tropo=cfg.tropo, solver=solver))
    monkeypatch.undo()

    assert len(handed) == 3 and all(g is handed[0] for g in handed)
    assert result.spp.geometry is None
    # every epoch is located at each iterate; the last iterate sees one
    # that stopped before it from its fix
    assert all(np.isfinite(positions).all() for positions in located)
    if convergence is not None:
        at_fix = (located[-1] == result.spp.position).all(axis=1)
        assert 0 < at_fix.sum() < len(epochs)
    given = handed[0]
    satellites = EpochGeometry(epochs, states, cfg.iono, cfg.tropo)
    fresh = satellites.at(given.position)
    assert np.all(np.linalg.norm(given.position - result.spp.position,
                                 axis=1) < solver.convergence)
    # every array that locating sets
    names = set(vars(fresh)) - set(vars(satellites)) - {"geodetic"}
    assert {"position", "unit", "iono", "corrected_code"} <= names
    for name in names:
        assert getattr(given, name).tobytes() == getattr(
            fresh, name).tobytes(), name
    for name in ("latitude", "longitude", "height"):
        assert getattr(given.geodetic, name).tobytes() == getattr(
            fresh.geodetic, name).tobytes(), name
