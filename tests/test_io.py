import io
import json
import warnings

import numpy as np
import pytest

from gnssgraph.errors import (IoFailure, LengthMismatch, MalformedEpoch,
                              MalformedHeader)
from gnssgraph.fileio import (TrajectoryRecord, TrajectoryStatus,
                              export_graph_json, load_pipeline_yaml,
                              load_scenario_yaml, read_sat_states_csv,
                              read_trajectory_csv, save_scenario_yaml,
                              write_sat_states_csv, write_trajectory_csv)
from gnssgraph.gnsstime import GpsTime
from gnssgraph.graph import GraphConfig
from gnssgraph.pipeline import PipelineConfig, solve_trajectory
from gnssgraph.pointpos import SolverConfig
from gnssgraph.rinex import (RinexHeader, header_for_scenario,
                             parse_rinex_obs, write_rinex_obs)
from gnssgraph.sim import (NoiseConfig, ScenarioConfig, TrajectoryConfig,
                           run_scenario)
from gnssgraph.trrtk import TrRtkConfig
from gnssgraph.types import Constellation, Epoch, Observation, SatelliteId

MIXED_COUNTS = {Constellation.GPS: 8, Constellation.GLO: 5,
                Constellation.GAL: 6, Constellation.BDS: 5}


def small_scenario(**kwargs):
    defaults = dict(duration=8.0,
                    trajectory=TrajectoryConfig(kind="line", speed=2.0),
                    counts=dict(MIXED_COUNTS), seed=2)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def write_scenario(cfg):
    truth, epochs, states = run_scenario(cfg)
    header = header_for_scenario(cfg, truth[0].position)
    buf = io.StringIO()
    write_rinex_obs(header, epochs, buf)
    return truth, epochs, states, header, buf.getvalue()


FIXTURE = """\
     3.04           OBSERVATION DATA    M                   RINEX VERSION / TYPE
HANDMADE                                                    MARKER NAME
G    3 C1C L1C D1C                                          SYS / # / OBS TYPES
E    3 C1C L1C D1C                                          SYS / # / OBS TYPES
     1.000                                                  INTERVAL
                                                            END OF HEADER
> 2022 03 11 00 00  0.0000000  0  4
G01  20000000.12311 105263157.8951      1234.50011
G07  21000000.50011 110526315.7891     -2345.25011
E11  22000000.25011 115789473.6841       987.12511
E12  23000000.75011 121052631.5791      -456.87511
> 2022 03 11 00 00  1.0000000  0  4
G01  20000001.123 2 105263158.895 2      1234.600 2
G07  21000001.500 2 110526316.789 2     -2345.350 2
E11  22000001.250 2 115789474.684 2       987.225 2
E12  23000001.750 2 121052632.579 2      -456.975 2
"""


class TestRinexParse:
    def test_hand_built_fixture(self):
        header, epochs = parse_rinex_obs(io.StringIO(FIXTURE))
        assert header.version == pytest.approx(3.04)
        assert header.marker_name == "HANDMADE"
        assert header.interval == pytest.approx(1.0)
        assert header.observation_codes[Constellation.GPS] == ("C1C", "L1C",
                                                               "D1C")
        assert len(epochs) == 2
        assert all(len(e.observations) == 4 for e in epochs)
        first = epochs[0].get(SatelliteId(Constellation.GPS, 1))
        assert first.pseudorange == pytest.approx(20000000.123)
        assert first.carrier_phase == pytest.approx(105263157.895)
        assert first.doppler == pytest.approx(1234.500)
        assert first.lock_count == 0          # LLI bit set in fixture
        assert epochs[1].get(SatelliteId(Constellation.GPS, 1)).lock_count == 1
        assert epochs[1].time - epochs[0].time == pytest.approx(1.0)

    def test_round_trip_simulator_output(self):
        truth, epochs, states, header, text = write_scenario(small_scenario())
        parsed_header, parsed = parse_rinex_obs(io.StringIO(text))
        assert len(parsed) == len(epochs)
        for original, back in zip(epochs, parsed):
            assert abs(original.time - back.time) < 1e-6
            assert len(original.observations) == len(back.observations)
            for a, b in zip(original.observations, back.observations):
                assert a.sat == b.sat
                assert b.pseudorange == round(a.pseudorange, 3)
                assert b.carrier_phase == round(a.carrier_phase, 3)
                assert b.doppler == round(a.doppler, 3)
                assert b.wavelength == pytest.approx(a.wavelength, abs=1e-12)
                assert (b.lock_count == 0) == (a.lock_count == 0)

    def test_glonass_wavelengths_from_header_table(self):
        truth, epochs, states, header, text = write_scenario(small_scenario())
        parsed_header, parsed = parse_rinex_obs(io.StringIO(text))
        glo = [o for o in parsed[0].observations
               if o.sat.constellation is Constellation.GLO]
        assert glo
        assert len({o.wavelength for o in glo}) > 1  # FDMA: distinct per slot
        for obs in glo:
            original = epochs[0].get(obs.sat)
            assert obs.wavelength == pytest.approx(original.wavelength,
                                                   abs=1e-15)

    def test_missing_end_of_header(self):
        text = FIXTURE.replace(
            "                                                            "
            "END OF HEADER\n", "")
        with pytest.raises(MalformedHeader) as err:
            parse_rinex_obs(io.StringIO(text))
        assert "END OF HEADER" in str(err.value)

    def test_truncated_epoch_dropped_with_warning(self):
        text = "\n".join(FIXTURE.splitlines()[:-2]) + "\n"  # cut 2 sat lines
        with pytest.warns(UserWarning, match="line 12"):
            header, epochs = parse_rinex_obs(io.StringIO(text))
        assert len(epochs) == 1  # first epoch intact, second dropped

    def test_count_mismatch_reports_line_and_continues(self):
        lines = FIXTURE.splitlines()
        lines[6] = lines[6].replace("  0  4", "  0  9")
        with pytest.warns(UserWarning, match="line 7"):
            header, epochs = parse_rinex_obs(io.StringIO("\n".join(lines)))
        assert len(epochs) == 1
        assert epochs[0].time.to_calendar().second == 1

    def test_rinex2_rejected(self):
        text = FIXTURE.replace("     3.04", "     2.11")
        with pytest.raises(MalformedHeader):
            parse_rinex_obs(io.StringIO(text))

    def test_unknown_system_skipped(self):
        lines = FIXTURE.splitlines()
        lines[7] = "J01  20000000.123   105263157.895        1234.500"
        header, epochs = parse_rinex_obs(io.StringIO("\n".join(lines)))
        assert len(epochs[0].observations) == 3

    def test_value_truncation_rule(self):
        epoch = Epoch(GpsTime(2200, 0.0), [Observation(
            sat=SatelliteId(Constellation.GPS, 1),
            pseudorange=20000000.12345, carrier_phase=1.0, doppler=1.0,
            wavelength=0.19, lock_count=3, snr=40.0)])
        buf = io.StringIO()
        write_rinex_obs(RinexHeader(), [epoch], buf)
        assert "  20000000.123" in buf.getvalue()

    def test_empty_epoch_list_round_trips(self):
        buf = io.StringIO()
        write_rinex_obs(RinexHeader(), [], buf)
        header, epochs = parse_rinex_obs(io.StringIO(buf.getvalue()))
        assert epochs == []


class TestRinexFuzz:
    def test_mutations_never_crash(self):
        truth, epochs, states, header, text = write_scenario(
            small_scenario(duration=3.0))
        data = text.encode()
        rng = np.random.default_rng(99)
        for _ in range(2000):
            blob = bytearray(data)
            for _ in range(rng.integers(1, 8)):
                blob[rng.integers(len(blob))] = rng.integers(256)
            stream = io.StringIO(blob.decode("latin-1"))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    parse_rinex_obs(stream)
                except (MalformedHeader, MalformedEpoch):
                    pass


class TestTrajectoryCsv:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        records = [TrajectoryRecord.from_position(
            GpsTime(2200, 1000.0 + k),
            np.array([-3947762.0, 3364399.0, 3699430.0]) + rng.normal(
                scale=50.0, size=3),
            TrajectoryStatus.OPTIMIZED) for k in range(20)]
        buf = io.StringIO()
        write_trajectory_csv(records, buf)
        back = read_trajectory_csv(io.StringIO(buf.getvalue()), week=2200)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert np.linalg.norm(a.position - b.position) < 1e-4
            assert abs(a.time - b.time) < 1e-3
            assert b.status is TrajectoryStatus.OPTIMIZED

    def test_empty_is_header_only(self):
        buf = io.StringIO()
        write_trajectory_csv([], buf)
        assert buf.getvalue().strip() == ("tow,x,y,z,lat_deg,lon_deg,"
                                          "height,status")
        assert read_trajectory_csv(io.StringIO(buf.getvalue())) == []


class TestSatStateCsv:
    def test_round_trip_alignment(self):
        cfg = small_scenario()
        truth, epochs, states = run_scenario(cfg)
        buf = io.StringIO()
        write_sat_states_csv(epochs, states, buf)
        back = read_sat_states_csv(io.StringIO(buf.getvalue()), epochs)
        assert len(back) == len(states)
        for original, parsed in zip(states, back):
            assert set(original) == set(parsed)
            for sat, st in original.items():
                assert np.linalg.norm(st.position
                                      - parsed[sat].position) < 1e-5
                assert np.linalg.norm(st.velocity
                                      - parsed[sat].velocity) < 1e-8
                assert parsed[sat].clock_bias == pytest.approx(
                    st.clock_bias, abs=1e-18)

    def test_bad_row_raises(self):
        text = "tow,sat,x,y,z,vx,vy,vz,clock_bias,clock_drift\n1,G01,a,b,c,0,0,0,0,0\n"
        with pytest.raises(IoFailure):
            read_sat_states_csv(io.StringIO(text), [])


class TestGraphJson:
    def test_counts_and_window(self):
        cfg = small_scenario(duration=30.0, counts=None)
        cfg.counts = {Constellation.GPS: 10, Constellation.GAL: 8}
        truth, epochs, states = run_scenario(cfg)
        result = solve_trajectory(epochs, states,
                                  PipelineConfig(iono=cfg.iono,
                                                 tropo=cfg.tropo))
        buf = io.StringIO()
        export_graph_json(result.graph, buf, states=result.states,
                          report=result.report)
        data = json.loads(buf.getvalue())
        g = result.graph
        assert len(data["nodes"]) == g.initial_states.shape[0]
        # six satellites in view: no loop closure passes the precision
        # gate here, so the trrtk list may be empty
        by_type = {"velocity": [], "trrtk": [], "pseudorange": [],
                   "prior": []}
        for edge in data["edges"]:
            by_type[edge["type"]].append(edge)
        assert len(by_type["velocity"]) == len(g.velocity_factors)
        assert len(by_type["trrtk"]) == len(g.trrtk_factors)
        assert len(by_type["pseudorange"]) == len(g.pseudorange_factors)
        assert len(by_type["prior"]) == len(g.priors)
        for edge in by_type["trrtk"]:
            assert edge["time_difference"] <= 100.0
            assert len(edge["information_eigenvalues"]) == 3
        node0 = data["nodes"][0]
        assert np.allclose(node0["position"],
                           g.reference_position + result.states[0, :3],
                           atol=1e-5)


class TestConfigYaml:
    def test_scenario_round_trip(self):
        cfg = small_scenario(
            cycle_slips=[(SatelliteId(Constellation.GPS, 3), 4.0)])
        buf = io.StringIO()
        save_scenario_yaml(cfg, buf)
        back = load_scenario_yaml(io.StringIO(buf.getvalue()))
        assert back.duration == cfg.duration
        assert back.trajectory.kind == "line"
        assert back.counts == cfg.counts
        assert back.cycle_slips == cfg.cycle_slips
        assert back.iono.alpha == pytest.approx(cfg.iono.alpha)
        assert back.origin.latitude == pytest.approx(cfg.origin.latitude)
        assert back.start_time == cfg.start_time

    def test_pipeline_defaults_warn_on_missing_iono(self):
        with pytest.warns(UserWarning, match="ionosphere"):
            config = load_pipeline_yaml(io.StringIO("use_trrtk: false"))
        assert config.use_trrtk is False
        assert config.iono is not None
        assert config.iono.alpha == (0.0, 0.0, 0.0, 0.0)
        assert config.tropo is not None

    def test_pipeline_explicit_sections(self):
        text = """
iono: null
tropo: null
solver:
  elevation_mask_deg: 20
trrtk:
  max_time_difference: 60
pair_lattice: [5, 10]
"""
        config = load_pipeline_yaml(io.StringIO(text))
        assert config.iono is None and config.tropo is None
        assert config.solver.elevation_mask == pytest.approx(np.radians(20))
        assert config.trrtk.max_time_difference == 60
        assert config.pair_lattice == (5.0, 10.0)

    def test_pipeline_settings_have_one_key_each(self):
        """The delay models and the observation spacing are set once for
        the whole solve, so the trrtk section has no key for them; the
        top-level use_pseudorange is the graph's."""
        for text in ("trrtk: {interval: 5}", "trrtk: {iono: null}"):
            with pytest.raises(IoFailure):
                load_pipeline_yaml(io.StringIO("tropo: null\n" + text))
        config = load_pipeline_yaml(io.StringIO("iono: null\n"
                                                "use_pseudorange: false"))
        assert config.graph.use_pseudorange is False
        config = load_pipeline_yaml(io.StringIO("iono: null"))
        assert config.graph.use_pseudorange is True

    def test_pipeline_unknown_keys_raise(self):
        """A misspelt top-level key, a section the file format does not
        have, or a removed setting is a parse error, not a silent default."""
        for text in ("use_pseudoranges: false", "graph: {max_iterations: 5}",
                     "trrtk: {ratio_threshold: 3}"):
            with pytest.raises(IoFailure):
                load_pipeline_yaml(io.StringIO("iono: null\n" + text))

    @pytest.mark.parametrize("config_class, name", [
        (PipelineConfig, "use_pseudorange"),
        (TrRtkConfig, "ratio_threshold"),
        (GraphConfig, "use_pseudoranges"),
        (SolverConfig, "elevation_mask_deg"),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_config_rejects_unknown_attribute(self, config_class, name):
        with pytest.raises(AttributeError):
            setattr(config_class(), name, False)

    def test_bad_yaml_raises_iofailure(self):
        with pytest.raises(IoFailure):
            load_scenario_yaml(io.StringIO("{unclosed"))
        with pytest.raises(IoFailure):
            load_scenario_yaml(io.StringIO("- just\n- a list"))
        with pytest.raises(IoFailure):
            load_pipeline_yaml(io.StringIO("trrtk: {no_such_field: 1}"))
