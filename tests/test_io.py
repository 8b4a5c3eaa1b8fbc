import io
import json
import warnings
from datetime import datetime

import numpy as np
import pytest

from gnssgraph.errors import (IoFailure, LengthMismatch, MalformedEpoch,
                              MalformedHeader)
from gnssgraph.geometry import EpochGeometry
from gnssgraph.fileio import (TrajectoryStatus, export_graph_json,
                              load_pipeline_yaml, load_scenario_yaml,
                              read_sat_states_csv, read_trajectory_csv,
                              save_scenario_yaml, write_sat_states_csv,
                              write_trajectory_csv)
from gnssgraph.gnsstime import GpsTime
from gnssgraph.pipeline import PipelineConfig, solve_trajectory
from gnssgraph.pointpos import SolverConfig
from gnssgraph.rinex import (RinexHeader, header_for_scenario,
                             parse_rinex_obs, write_rinex_obs)
from gnssgraph.sim import (NoiseConfig, ScenarioConfig, TrajectoryConfig,
                           run_scenario)
from gnssgraph.trrtk import BaselineStatus, TrRtkConfig
from gnssgraph.types import (CONSTELLATION_INDEX, Constellation, Epoch,
                             GeodeticPosition, SatelliteId)
from rinex_reference import parse_reference, same_epochs
from sessions import row_of, slip_schedule
from sidecar_reference import read_sat_states_reference, same_states

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
        assert all(len(e) == 4 for e in epochs)
        g01 = SatelliteId(Constellation.GPS, 1)
        first, k = epochs[0], row_of(epochs[0], g01)
        assert first.code[k] == pytest.approx(20000000.123)
        assert first.phase[k] == pytest.approx(105263157.895)
        assert first.doppler[k] == pytest.approx(1234.500)
        assert first.lock[k] == 0          # LLI bit set in fixture
        assert epochs[1].lock[row_of(epochs[1], g01)] == 1
        assert epochs[1].time - epochs[0].time == pytest.approx(1.0)

    def test_round_trip_simulator_output(self):
        truth, epochs, states, header, text = write_scenario(small_scenario())
        parsed_header, parsed = parse_rinex_obs(io.StringIO(text))
        assert len(parsed) == len(epochs)
        for original, back in zip(epochs, parsed):
            assert abs(original.time - back.time) < 1e-6
            assert np.array_equal(original.sats, back.sats)
            for name in ("code", "phase", "doppler"):
                assert getattr(back, name).tolist() == [
                    round(v, 3) for v in getattr(original, name).tolist()]
            assert back.wavelength == pytest.approx(original.wavelength,
                                                    abs=1e-12)
            assert np.array_equal(back.lock == 0, original.lock == 0)

    def test_glonass_wavelengths_from_header_table(self):
        truth, epochs, states, header, text = write_scenario(small_scenario())
        parsed_header, parsed = parse_rinex_obs(io.StringIO(text))
        glo = parsed[0].sats // 100 == CONSTELLATION_INDEX[Constellation.GLO]
        assert glo.any()
        # FDMA: distinct per slot
        assert len(set(parsed[0].wavelength[glo].tolist())) > 1
        assert np.array_equal(parsed[0].sats, epochs[0].sats)
        assert parsed[0].wavelength[glo] == pytest.approx(
            epochs[0].wavelength[glo], abs=1e-15)

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

    def test_infinite_seconds_dropped_with_warning(self):
        lines = FIXTURE.splitlines()
        lines[11] = lines[11].replace(" 1.0000000", "       inf")
        with pytest.warns(UserWarning, match="line 12: line 12: cannot "
                          "convert float infinity"):
            header, epochs = parse_rinex_obs(io.StringIO("\n".join(lines)))
        assert len(epochs) == 1
        assert epochs[0].time.to_calendar().second == 0

    @pytest.mark.parametrize("stamp, moment", [
        ("00 00 59.9999996", datetime(2022, 3, 11, 0, 1)),
        ("00 00 29.9999999", datetime(2022, 3, 11, 0, 0, 30)),
        ("23 59 59.9999999", datetime(2022, 3, 12)),
        ("00 00 29.9999994", datetime(2022, 3, 11, 0, 0, 29, 999999))])
    def test_fraction_that_rounds_up_is_the_next_second(self, stamp, moment):
        """An F11.7 second whose fraction rounds to 1 s at the microsecond,
        as clock-unsteered receivers log them, is the epoch at the next
        second, across a minute or a day; it is kept, with no warning."""
        lines = FIXTURE.splitlines()
        lines[11] = lines[11].replace("00 00  1.0000000", stamp)
        epochs, messages = parse_text("\n".join(lines))
        assert messages == []
        assert len(epochs) == 2
        assert epochs[1].time == GpsTime.from_calendar(moment)
        assert epochs[1].time.to_calendar() == moment

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
        assert len(epochs[0]) == 3

    def test_value_truncation_rule(self):
        epoch = Epoch(GpsTime(2200, 0.0),
                      sats=np.array([SatelliteId(Constellation.GPS, 1).key]),
                      code=np.array([20000000.12345]), phase=np.array([1.0]),
                      doppler=np.array([1.0]), wavelength=np.array([0.19]),
                      lock=np.array([3]), snr=np.array([40.0]))
        buf = io.StringIO()
        write_rinex_obs(RinexHeader(), [epoch], buf)
        assert "  20000000.123" in buf.getvalue()

    def test_duplicate_satellite_drops_the_epoch(self):
        lines = FIXTURE.splitlines()
        lines[14] = lines[13]                 # second epoch lists G07 twice
        with pytest.warns(UserWarning, match="line 12: duplicate satellite"):
            header, epochs = parse_rinex_obs(io.StringIO("\n".join(lines)))
        assert len(epochs) == 1
        assert epochs[0].time.to_calendar().second == 0

    def test_empty_epoch_list_round_trips(self):
        buf = io.StringIO()
        write_rinex_obs(RinexHeader(), [], buf)
        header, epochs = parse_rinex_obs(io.StringIO(buf.getvalue()))
        assert epochs == []


def record(sat, code=20000000.0, phase=105000000.0, doppler=1000.0,
           lli=" ", snr=" ", fields=None):
    """A record line: each value a number or its 14-character text, each
    followed by the LLI and SNR characters."""
    values = (code, phase, doppler) if fields is None else fields
    return sat + "".join((v if isinstance(v, str) else f"{v:14.3f}")
                         + lli + snr for v in values)


def rinex(*epochs, codes="G    3 C1C L1C D1C"):
    """A file of one SYS / # / OBS TYPES line `codes` and one epoch per
    list of record lines, 1 s apart: the epoch lines are lines 4, 5 + n1,
    ... and each epoch's records follow its line."""
    lines = ["     3.04           OBSERVATION DATA    M"
             "                   RINEX VERSION / TYPE",
             f"{codes:<60s}SYS / # / OBS TYPES",
             f"{'':60s}END OF HEADER"]
    for second, records in enumerate(epochs):
        lines.append(f"> 2022 03 11 00 00 {second:10.7f}  0"
                     f"{len(records):3d}")
        lines += records
    return "\n".join(lines) + "\n"


def parse_text(text):
    """The epochs and the warning messages of parsing `text`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, epochs = parse_rinex_obs(io.StringIO(text))
    return epochs, [str(w.message) for w in caught]


class TestRinexRecords:
    """What each record of an epoch does to the parse: its values, the
    lock counts, and which epochs a bad record drops."""

    FIRST = [record(sat, lli="1") for sat in ("G01", "G07", "G08")]

    def test_records_read_before_a_failure_advance_their_locks(self):
        epochs, messages = parse_text(rinex(
            self.FIRST,
            [record("G01"), record("G07", code="  2100000x.000"),
             record("G08")],
            [record("G01"), record("G07"), record("G08")]))
        assert messages == ["dropping epoch at line 8: line 10: bad field "
                            "'2100000x.000'"]
        # G01 was read in the dropped epoch, G08 came after its failure
        assert [e.lock.tolist() for e in epochs] == [[0, 0, 0], [2, 1, 1]]

    def test_a_satellite_listed_twice_advances_twice(self):
        epochs, messages = parse_text(rinex(
            self.FIRST, [record("G01"), record("G01"), record("G07")],
            [record("G01"), record("G07"), record("G08")]))
        assert messages == ["dropping epoch at line 8: duplicate satellite "
                            "in epoch"]
        assert [e.lock.tolist() for e in epochs] == [[0, 0, 0], [3, 2, 1]]

    def test_blank_code_field_skips_the_record_and_its_lock(self):
        epochs, messages = parse_text(rinex(
            self.FIRST, [record("G01"), record("G07", code=" " * 14),
                         record("G08")],
            [record("G01"), record("G07"), record("G08")]))
        assert messages == []
        assert [e.sats.tolist() for e in epochs] == [[1, 7, 8], [1, 8],
                                                     [1, 7, 8]]
        assert [e.lock.tolist() for e in epochs] == [[0, 0, 0], [1, 1],
                                                     [2, 1, 2]]

    @pytest.mark.parametrize("code", ["  21000000.12\x00", "\x0021000000.125"],
                             ids=["trailing", "leading"])
    def test_nul_in_a_field_drops_its_epoch(self, code):
        epochs, messages = parse_text(rinex(
            self.FIRST, [record("G01"), record("G07", code=code),
                         record("G08")]))
        assert messages == [f"dropping epoch at line 8: line 10: bad field "
                            f"{code.strip()!r}"]
        assert len(epochs) == 1

    def test_nul_at_the_end_of_a_line_drops_its_epoch(self):
        epochs, messages = parse_text(rinex(
            self.FIRST, [record("G01")[:-3] + "\x00", record("G07")]))
        assert messages == ["dropping epoch at line 8: line 9: bad field "
                            "'1000.00\\x00'"]
        assert len(epochs) == 1

    def test_fields_parse_as_float_parses_them(self):
        texts = ["\xa0 20000000.125", "20_000_000.125", "\u2003\u0662\u0660.5",
                 "      nan     ", " -Infinity   "]
        epochs, messages = parse_text(rinex([
            record(f"G{prn:02d}", code=text.rjust(14), lli="1")
            for prn, text in enumerate(texts, start=1)]))
        assert messages == []
        assert epochs[0].code.tolist() == pytest.approx(
            [float(text) for text in texts], nan_ok=True)
        assert epochs[0].code.dtype == float

    @pytest.mark.parametrize("lli, message", [
        ("x", "invalid literal for int() with base 10: 'x'"),
        ("\x00", "invalid literal for int() with base 10: '\\x00'")])
    def test_bad_lli_character_drops_the_epoch(self, lli, message):
        epochs, messages = parse_text(rinex(
            self.FIRST, [record("G01"), record("G07", lli=lli)],
            [record("G01"), record("G07")]))
        assert messages == [f"dropping epoch at line 8: {message}"]
        assert [e.lock.tolist() for e in epochs] == [[0, 0, 0], [2, 1]]

    def test_first_bad_field_of_a_record_names_the_error(self):
        epochs, messages = parse_text(rinex(
            self.FIRST, [record("G01", code="  2000000x.000", lli="x")],
            [record("G01", doppler="      100x.000", lli="x")]))
        assert messages == [
            "dropping epoch at line 8: line 9: bad field '2000000x.000'",
            "dropping epoch at line 10: invalid literal for int() with "
            "base 10: 'x'"]

    def test_lli_and_snr_digits(self):
        epochs, messages = parse_text(rinex(
            [record("G01", lli="1", snr="7"), record("G07", lli="3", snr=" "),
             record("G08", lli="\xa0", snr="\u0665")],
            [record("G01", lli="2", snr="9"), record("G07", lli="0"),
             record("G08", lli="1")]))
        assert messages == []
        assert [e.lock.tolist() for e in epochs] == [[0, 0, 0], [1, 1, 0]]
        assert [e.snr.tolist() for e in epochs] == [[42.0, 0.0, 30.0],
                                                    [54.0, 0.0, 0.0]]

    def test_bad_satellite_id_mid_epoch_drops_the_epoch(self):
        epochs, messages = parse_text(rinex(
            self.FIRST, [record("G01"), record("G0x"), record("G08")],
            [record("G01"), record("G07"), record("G08")]))
        assert messages == ["dropping epoch at line 8: line 10: bad "
                            "satellite id"]
        assert [e.lock.tolist() for e in epochs] == [[0, 0, 0], [2, 1, 1]]

    def test_fourth_code(self):
        codes = "G    4 C1C L1C D1C S1C"
        epochs, messages = parse_text(rinex(
            [record("G01", fields=(20000000.0, 1.5e8, 1000.0, 45.0),
                    lli="1"),
             record("G07", fields=(21000000.0, 1.6e8, -900.0, 44.0),
                    lli="1")],
            [record("G01", fields=(20000001.0, 1.5e8, 1000.0, "     4x.000")),
             record("G07", fields=(21000001.0, 1.6e8, -900.0, 44.0))],
            [record("G01", fields=(20000002.0, 1.5e8, 1000.0, " " * 14)),
             record("G07", fields=(21000002.0, 1.6e8, -900.0, 44.0))],
            codes=codes))
        assert messages == ["dropping epoch at line 7: line 8: bad field "
                            "'4x.000'"]
        assert [e.code.tolist() for e in epochs] == [
            [20000000.0, 21000000.0], [20000002.0, 21000002.0]]
        # the failing record is G01's: neither advances
        assert [e.lock.tolist() for e in epochs] == [[0, 0], [1, 1]]

    def test_codes_in_another_order(self):
        epochs, messages = parse_text(rinex(
            [record("G01", fields=(1.5e8, 20000000.0, 1000.0), lli="1",
                    snr="6"),
             record("G07", fields=(1.6e8, 21000000.0, -900.0), lli="1")],
            [record("G01", fields=(1.5e8, 20000001.0, 1000.0), lli="1"),
             record("G07", fields=(1.6e8, 21000001.0, -900.0))],
            codes="G    3 L1C C1C D1C"))
        assert messages == []
        assert [e.code.tolist() for e in epochs] == [
            [20000000.0, 21000000.0], [20000001.0, 21000001.0]]
        assert [e.phase.tolist() for e in epochs] == [[1.5e8, 1.6e8]] * 2
        assert [e.doppler.tolist() for e in epochs] == [[1000.0, -900.0]] * 2
        assert [e.lock.tolist() for e in epochs] == [[0, 0], [0, 1]]
        assert epochs[0].snr.tolist() == [36.0, 0.0]


class TestRinexFuzz:
    @staticmethod
    def outcome(parse, text):
        """What `parse` gives for `text`: its epochs and warning messages,
        or the class and message of what it raises."""
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = parse(text)
        except (MalformedHeader, MalformedEpoch) as exc:
            return type(exc).__name__, str(exc)
        if parse is parse_reference:
            return result
        return result[1], [str(w.message) for w in caught]

    def test_mutations_match_the_record_loop(self):
        """The table parse gives what reading record by record gives:
        the same epochs, bit for bit, the same warnings and the same
        errors, on single- and multi-byte mutations of a file of all four
        systems."""
        *_, text = write_scenario(small_scenario(duration=3.0))
        data = text.encode()
        rng = np.random.default_rng(7)
        for trial in range(600):
            blob = bytearray(data)
            for _ in range(1 if trial % 2 else rng.integers(2, 6)):
                blob[rng.integers(len(blob))] = rng.integers(256)
            mutated = blob.decode("latin-1")
            got = self.outcome(lambda t: parse_rinex_obs(io.StringIO(t)),
                               mutated)
            want = self.outcome(parse_reference, mutated)
            if isinstance(want[0], str):
                assert got == want
            else:
                assert same_epochs(got[0], want[0]) and got[1] == want[1]

    def test_long_file_matches_the_record_loop(self):
        """On a 330-epoch file of all four systems, GLONASS channels
        and LLI-flagged slips, that crosses calendar midnight and the
        GPS week, the table parse gives what reading record by record
        gives, before and after scattered byte mutations."""
        span = dict(duration=329.0,
                    start_time=GpsTime(2200, 604800.0 - 165.0))
        *_, header, text = write_scenario(small_scenario(
            **span, cycle_slips=slip_schedule(small_scenario(**span))))
        assert len(header.glonass_channels) == MIXED_COUNTS[
            Constellation.GLO]
        rng = np.random.default_rng(30)
        blob = bytearray(text.encode())
        for position in rng.integers(len(text) // 10, len(text), 40):
            blob[position] = rng.integers(256)
        outcomes = []
        for case in (text, blob.decode("latin-1")):
            got = self.outcome(lambda t: parse_rinex_obs(io.StringIO(t)),
                               case)
            want = self.outcome(parse_reference, case)
            assert same_epochs(got[0], want[0]) and got[1] == want[1]
            outcomes.append(want)
        (epochs, clean), (_, messages) = outcomes
        assert len(epochs) == 330 and not clean and len(messages) > 10
        assert {epoch.time.week for epoch in epochs} == {2200, 2201}
        assert len({e.time.to_calendar().date() for e in epochs}) == 2
        assert sum(int((e.lock == 0).sum()) for e in epochs[1:]) > 10
        assert {key // 100 for key in np.concatenate(
            [e.sats for e in epochs]).tolist()} == {0, 1, 2, 3}

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
        tow = [1000.0 + k for k in range(20)]
        positions = np.array([-3947762.0, 3364399.0, 3699430.0]) + (
            rng.normal(scale=50.0, size=(20, 3)))
        status = [TrajectoryStatus.INITIAL] * 10 + [
            TrajectoryStatus.OPTIMIZED] * 10
        buf = io.StringIO()
        write_trajectory_csv(tow, positions, status, buf)
        back_tow, back_positions, back_status = read_trajectory_csv(
            io.StringIO(buf.getvalue()))
        assert np.abs(back_positions - positions).max() < 1e-4
        assert np.abs(back_tow - tow).max() < 1e-3
        assert back_status == status

    def test_rows_as_csv_writer_writes_them(self, monkeypatch):
        """Each row is the fields, formatted one by one, that csv.writer
        joins, in slices of 1, 2, 3, 8 and 4096 rows: values that `%`
        formats in place of the column kernels (NaN, inf, a product next
        to a half, 1e20 wider than its slot, negative zero and a negative
        that rounds to zero) beside those the kernels format."""
        import csv

        from gnssgraph.coords import ecef_to_geodetic

        positions = np.array([[-3947762.25, 3364399.5, 3699430.125],
                              [np.nan, 0.0, 1.0],
                              [6378137.0, -0.0, 0.0],
                              [1e20, -0.00004, 6378137.00005],
                              [-3947762.0, 3364399.0, 3699430.0],
                              [-1e-5, 6378137.00005, 1e20],
                              [0.0, 0.0, -6356752.3142]])
        tow = [0.0005, 604799.9995, 12.25, np.inf, -0.0, np.nan, 2.5e-4]
        status = [TrajectoryStatus.TRUTH, TrajectoryStatus.INITIAL,
                  TrajectoryStatus.OPTIMIZED, TrajectoryStatus.TRUTH,
                  TrajectoryStatus.INITIAL, TrajectoryStatus.OPTIMIZED,
                  TrajectoryStatus.TRUTH]
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["tow", "x", "y", "z", "lat_deg", "lon_deg",
                         "height", "status"])
        for t, p, state in zip(tow, positions, status):
            g = ecef_to_geodetic(p)
            writer.writerow([f"{t:.3f}", f"{p[0]:.4f}", f"{p[1]:.4f}",
                             f"{p[2]:.4f}", f"{np.degrees(g.latitude):.9f}",
                             f"{np.degrees(g.longitude):.9f}",
                             f"{g.height:.4f}", state.value])
        for rows in (1, 2, 3, 8, 4096):
            monkeypatch.setattr("gnssgraph.fileio._ROW_SLICE", rows)
            buf = io.StringIO()
            write_trajectory_csv(tow, positions, status, buf)
            assert buf.getvalue() == expected.getvalue(), rows

    @pytest.mark.parametrize("tow, rows, states", [
        (3, 3, 1), (3, 1, 3), (1, 3, 3), (0, 0, 1), (4, 3, 3)])
    def test_columns_of_other_lengths_raise(self, tow, rows, states):
        """Times, positions and statuses of other lengths are refused, not
        cut to the shortest, and nothing is written."""
        buf = io.StringIO()
        with pytest.raises(LengthMismatch):
            write_trajectory_csv(np.arange(tow, dtype=float),
                                 np.ones((rows, 3)),
                                 [TrajectoryStatus.TRUTH] * states, buf)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("header, row", [
        ("tow,x,y,z,status", "1.0,abc,2.0,3.0,Truth"),
        ("tow,x,y,z,status", "1.0,1.0,2.0,3.0,Guessed"),
        ("tow,x,y,status", "1.0,1.0,2.0,Truth"),
        ("tow,x,y,z,status", "604800.0,1.0,2.0,3.0,Truth"),
        ("tow,x,y,z,status", "1.0,1.0,2.0"),
    ])
    def test_bad_content_raises_iofailure(self, header, row):
        with pytest.raises(IoFailure):
            read_trajectory_csv(io.StringIO(f"{header}\n{row}\n"))

    def test_empty_is_header_only(self):
        buf = io.StringIO()
        write_trajectory_csv([], np.zeros((0, 3)), [], buf)
        assert buf.getvalue().strip() == ("tow,x,y,z,lat_deg,lon_deg,"
                                          "height,status")
        tow, positions, status = read_trajectory_csv(
            io.StringIO(buf.getvalue()))
        assert len(tow) == len(positions) == len(status) == 0


class TestSatStateCsv:
    def test_round_trip_alignment(self):
        cfg = small_scenario()
        truth, epochs, states = run_scenario(cfg)
        buf = io.StringIO()
        write_sat_states_csv(epochs, states, buf)
        back = read_sat_states_csv(io.StringIO(buf.getvalue()), epochs)
        assert len(back) == len(states)
        # one row per observed satellite
        assert buf.getvalue().count("\n") - 1 == sum(
            map(len, epochs)) == sum(map(len, states))
        for epoch, original, parsed in zip(epochs, states, back):
            assert parsed.shape == original.shape == (len(epoch), 8)
            assert np.linalg.norm(original[:, :3] - parsed[:, :3],
                                  axis=1).max() < 1e-5
            assert np.linalg.norm(original[:, 3:6] - parsed[:, 3:6],
                                  axis=1).max() < 1e-8
            assert parsed[:, 6] == pytest.approx(original[:, 6], abs=1e-18)

    def test_geometry_round_trip(self):
        """A simulated session written to RINEX and the sidecar and read
        back gives the in-memory session geometry, at the files' printed
        precision."""
        truth, epochs, states, header, text = write_scenario(small_scenario())
        sidecar = io.StringIO()
        write_sat_states_csv(epochs, states, sidecar)
        _, parsed = parse_rinex_obs(io.StringIO(text))
        a = EpochGeometry(epochs, states)
        b = EpochGeometry(parsed, read_sat_states_csv(
            io.StringIO(sidecar.getvalue()), parsed))
        assert list(b.sats) == list(a.sats)
        assert np.array_equal(b.epoch, a.epoch)
        assert np.array_equal(b.start, a.start)
        assert np.abs(b.sat_position - a.sat_position).max() <= 1e-6
        assert np.abs(b.sat_velocity - a.sat_velocity).max() <= 1e-9
        assert np.allclose(b.clock_bias, a.clock_bias, rtol=1e-15, atol=0.0)
        assert np.allclose(b.clock_drift, a.clock_drift, rtol=1e-15,
                           atol=0.0)
        for name in ("code", "phase", "doppler"):
            assert getattr(b, name).tolist() == [
                round(v, 3) for v in getattr(a, name).tolist()]
        assert np.array_equal(b.wavelength, a.wavelength)
        assert np.array_equal(b.lock, a.lock)

    def test_bad_row_raises(self):
        text = "tow,sat,x,y,z,vx,vy,vz,clock_bias,clock_drift\n1,G01,a,b,c,0,0,0,0,0\n"
        with pytest.raises(IoFailure):
            read_sat_states_csv(io.StringIO(text), [])


SIDECAR_HEADER = "tow,sat,x,y,z,vx,vy,vz,clock_bias,clock_drift"
FIXTURE_SATS = ("G01", "G07", "E11", "E12")


def state_row(tow, sat, value):
    """A sidecar row of `sat` at `tow`: position and velocity value + 0..5,
    clock bias value * 1e-9 and drift value * 1e-15."""
    return ([f"{tow:.3f}", sat] + [f"{value + k:.6f}" for k in range(6)]
            + [f"{value * 1e-9:.15e}", f"{value * 1e-15:.15e}"])


class TestSatStateCsvEdges:
    """How the sidecar is joined to the epochs of the FIXTURE file, seen
    through the session geometry built from both."""

    def rows(self):
        """One row per observed satellite and epoch, values telling them
        apart, keyed by (epoch, satellite)."""
        epochs = parse_rinex_obs(io.StringIO(FIXTURE))[1]
        return {(e, sat): state_row(epoch.time.tow, sat, 1000.0 * (e + 1)
                                    + 10.0 * k)
                for e, epoch in enumerate(epochs)
                for k, sat in enumerate(FIXTURE_SATS)}

    def geometry(self, rows, header=SIDECAR_HEADER):
        epochs = parse_rinex_obs(io.StringIO(FIXTURE))[1]
        text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
        return EpochGeometry(epochs,
                             read_sat_states_csv(io.StringIO(text), epochs))

    @staticmethod
    def arrays(g):
        return [g.epoch, g.start, g.slot, g.prn, g.code, g.sat_position,
                g.sat_velocity, g.clock_bias, g.clock_drift]

    def assert_same(self, a, b):
        for x, y in zip(self.arrays(a), self.arrays(b)):
            assert np.array_equal(x, y)

    def test_complete_sidecar(self):
        g = self.geometry(self.rows().values())
        assert g.start.tolist() == [0, 4, 8]
        assert g.sat_position[:, 0].tolist() == [
            1000.0, 1010.0, 1020.0, 1030.0, 2000.0, 2010.0, 2020.0, 2030.0]
        assert g.sat_velocity[:, 2].tolist() == (g.sat_position[:, 0]
                                                 + 5.0).tolist()
        assert g.clock_bias.tolist() == pytest.approx(
            (g.sat_position[:, 0] * 1e-9).tolist(), rel=1e-15)

    def test_columns_in_another_order(self):
        order = [9, 3, 1, 0, 8, 2, 7, 6, 5, 4]
        header = SIDECAR_HEADER.split(",")
        shuffled = [[row[k] for k in order] for row in self.rows().values()]
        self.assert_same(
            self.geometry(shuffled, ",".join(header[k] for k in order)),
            self.geometry(self.rows().values()))

    def test_last_duplicate_row_wins(self):
        rows = self.rows()
        tow = rows[0, "G07"][0]
        lines = ([state_row(float(tow), "G07", 7000.0)] + list(rows.values())
                 + [state_row(float(tow), "G07", 5000.0)])
        g = self.geometry(lines)
        assert g.start.tolist() == [0, 4, 8]
        assert g.sat_position[1, 0] == 5000.0
        assert g.clock_drift[1] == pytest.approx(5e-12, rel=1e-15)
        assert g.sat_position[[0, 2, 3], 0].tolist() == [1000.0, 1020.0,
                                                         1030.0]

    def test_row_at_unobserved_time_is_ignored(self):
        rows = list(self.rows().values())
        stray = [state_row(432005.0, "G01", 9000.0),
                 state_row(431999.999, "E11", 9100.0)]
        self.assert_same(self.geometry(rows[:3] + stray + rows[3:]),
                         self.geometry(rows))

    def test_observed_satellite_without_row_has_no_geometry_row(self):
        rows = self.rows()
        del rows[1, "E11"]
        g = self.geometry(rows.values())
        assert g.start.tolist() == [0, 4, 7]
        assert g.epoch.tolist() == [0, 0, 0, 0, 1, 1, 1]
        assert g.prn[4:].tolist() == [1, 7, 12]
        assert g.sat_position[4:, 0].tolist() == [2000.0, 2010.0, 2030.0]

    def test_malformed_number_raises(self):
        rows = list(self.rows().values())
        rows[5] = rows[5][:7] + ["1.5e"] + rows[5][8:]
        with pytest.raises(IoFailure):
            self.geometry(rows)


def sidecar_variant(rows, case):
    """The sidecar rows (header first, each a list of fields) changed as
    `case` names."""
    header, body = rows[0], rows[1:]
    if case == "columns-in-another-order":
        order = [9, 3, 1, 0, 8, 2, 7, 6, 5, 4]
        return [[row[k] for k in order] for row in rows]
    if case == "repeated-rows":
        twice = [row[:2] + [f"{float(v) + 1.0:.6f}" for v in row[2:]]
                 for row in body[::7]]
        return [header, *twice[:5], *body, *twice[5:], *body[::11]]
    if case == "unobserved-times":
        stray = [[f"{float(row[0]) + 0.5:.3f}", *row[1:]] for row in body[::5]]
        other = [[row[0], "C30", *row[2:]] for row in body[::9]]
        return [header, *stray, *body, *other]
    if case == "quoted-fields":
        return [[f'"{field}"' if k % 3 == 0 else field
                 for k, field in enumerate(row)] for row in rows]
    if case == "blank-lines":
        return [header] + [line for row in body for line in (row, [])]
    if case == "nan-rows":
        return [header] + [row[:2] + ["nan"] * 8 if k % 6 == 0 else row
                           for k, row in enumerate(body)]
    return rows


class TestSatStateOracle:
    """`read_sat_states_csv` gives, bit for bit, what reading the sidecar
    row by row gives (`read_sat_states_reference`), on a session of all
    four systems, with either line end."""

    CASES = ["as-written", "columns-in-another-order", "repeated-rows",
             "unobserved-times", "quoted-fields", "blank-lines", "nan-rows"]
    BAD_ROWS = {"bad-number": (5, 4, "1.5e"), "bad-satellite": (7, 1, "X01"),
                "blank-satellite": (2, 1, ""), "short-row": (3, None, None),
                "long-bad-satellite": (4, 1, "X01" + "0" * 20),
                "bad-time": (9, 0, "1:00")}

    @pytest.fixture(scope="class")
    def session(self):
        truth, epochs, states, header, text = write_scenario(
            small_scenario(duration=20.0))
        sidecar = io.StringIO()
        write_sat_states_csv(epochs, states, sidecar)
        _, parsed = parse_rinex_obs(io.StringIO(text))
        rows = [line.split(",") for line in sidecar.getvalue().splitlines()]
        return parsed, rows

    @staticmethod
    def both(rows, epochs, end):
        """The reader's and the reference's outcome: states, or the class
        of what each raises."""
        text = "".join(",".join(row) + end for row in rows)
        outcomes = []
        for read in (read_sat_states_csv, read_sat_states_reference):
            try:
                outcomes.append(read(io.StringIO(text), epochs))
            except Exception as exc:
                outcomes.append(type(exc))
        return outcomes

    @pytest.mark.parametrize("end", ["\r\n", "\n"], ids=["crlf", "lf"])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_row_loop(self, session, case, end):
        epochs, rows = session
        assert {key // 100 for e in epochs for key in e.sats.tolist()} == {
            0, 1, 2, 3}
        got, want = self.both(sidecar_variant(rows, case), epochs, end)
        assert same_states(got, want)
        unknown = sum(int(np.isnan(s).all(axis=1).sum()) for s in want)
        assert (unknown > 0) == (case == "nan-rows")

    @pytest.mark.parametrize("end", ["\r\n", "\n"], ids=["crlf", "lf"])
    @pytest.mark.parametrize("bad", sorted(BAD_ROWS))
    def test_malformed_row_is_iofailure_in_both(self, session, bad, end):
        epochs, rows = session
        row, column, text = self.BAD_ROWS[bad]
        rows = [list(fields) for fields in rows]
        if column is None:
            rows[row] = rows[row][:4]
        else:
            rows[row][column] = text
        assert self.both(rows, epochs, end) == [IoFailure, IoFailure]


class TestGraphJson:
    def test_counts_and_window(self):
        cfg = small_scenario(duration=30.0, counts={Constellation.GPS: 10,
                                                    Constellation.GAL: 8})
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

    def test_edge_order_and_relinearized_rows(self):
        """One edge per factor, velocity, trrtk, pseudorange then prior,
        each with the graph's rows after the optimizer relinearized
        them, and nodes at reference + states."""
        from gnssgraph.graph import _relinearize, optimize

        cfg = ScenarioConfig(duration=30.0,
                             trajectory=TrajectoryConfig(kind="line",
                                                         speed=2.0), seed=2)
        truth, epochs, states = run_scenario(cfg)
        g = solve_trajectory(epochs, states,
                             PipelineConfig(iono=cfg.iono,
                                            tropo=cfg.tropo)).graph
        # linearize every pseudorange row 30 m away: the solve moves
        # each node back and relinearizes its rows
        away = g.initial_states.copy()
        away[:, :3] += 30.0
        _relinearize(g, away, 0.0)
        far = g.pseudorange_factors.constant.copy()
        x, report = optimize(g)
        buf = io.StringIO()
        export_graph_json(g, buf, states=x, report=report)
        data = json.loads(buf.getvalue())

        vel, tr = g.velocity_factors, g.trrtk_factors
        pr, priors = g.pseudorange_factors, g.priors
        counts = [len(vel), len(tr), len(pr), len(priors)]
        assert min(counts) > 0
        assert [edge["type"] for edge in data["edges"]] == sum(
            ([kind] * n for kind, n in zip(
                ("velocity", "trrtk", "pseudorange", "prior"), counts)), [])
        edges = iter(data["edges"])
        for nodes, velocity in zip(vel.nodes.tolist(), vel.velocity.tolist()):
            edge = next(edges)
            assert edge["nodes"] == nodes
            assert edge["measurement"] == velocity
        for nodes, baseline in zip(tr.nodes.tolist(), tr.baseline.tolist()):
            edge = next(edges)
            assert edge["nodes"] == nodes
            assert edge["measurement"] == baseline
        for node, sat, constant, before in zip(pr.node.tolist(), pr.sat,
                                               pr.constant.tolist(), far):
            edge = next(edges)
            assert edge["nodes"] == [node]
            assert edge["satellite"] == str(SatelliteId.from_key(sat))
            assert edge["measurement"] == constant != before
        for rows in np.split(np.arange(len(priors.node)), priors.start[1:]):
            edge = next(edges)
            assert edge["nodes"] == [priors.node[rows[0]]]
            assert edge["indices"] == priors.index[rows].tolist()
            assert edge["measurement"] == priors.value[rows].tolist()
        assert next(edges, None) is None
        assert [node["position"] for node in data["nodes"]] == np.round(
            g.reference_position + x[:, :3], 6).tolist()
        assert [node["clocks"] for node in data["nodes"]] == np.round(
            x[:, 3:], 6).tolist()
        assert data["optimizer"]["final_cost"] == report.final_cost

    def test_trrtk_edges_on_default_constellations(self):
        cfg = ScenarioConfig(duration=30.0,
                             trajectory=TrajectoryConfig(kind="line",
                                                         speed=2.0), seed=2)
        truth, epochs, states = run_scenario(cfg)
        result = solve_trajectory(epochs, states,
                                  PipelineConfig(iono=cfg.iono,
                                                 tropo=cfg.tropo))
        buf = io.StringIO()
        export_graph_json(result.graph, buf, states=result.states)
        edges = [edge for edge in json.loads(buf.getvalue())["edges"]
                 if edge["type"] == "trrtk"]
        fixed = [tr for _, _, tr in result.trrtk_results
                 if tr.status is BaselineStatus.FIXED]
        assert len(edges) == len(fixed) > 0
        assert all(edge["time_difference"] <= 100.0 for edge in edges)


def graph_payload(graph, states, report):
    """The graph.json payload as a dict, one dict per edge: what
    `export_graph_json` writes, by `json.dumps`."""
    def eigenvalues(information):
        return np.round(np.sort(np.linalg.eigvalsh(information)),
                        9).tolist()

    def edges(kind, **columns):
        return [{"type": kind, **dict(zip(columns, row))}
                for row in zip(*columns.values())]

    vel, tr = graph.velocity_factors, graph.trrtk_factors
    pr, priors = graph.pseudorange_factors, graph.priors
    indices, values, information = (
        [rows.tolist() for rows in np.split(column, priors.start[1:])]
        for column in (priors.index, priors.value, priors.information))
    return {
        "reference_position": graph.reference_position.tolist(),
        "nodes": [{"index": k, "position": position, "clocks": clocks}
                  for k, (position, clocks) in enumerate(zip(
                      np.round(graph.reference_position + states[:, :3],
                               6).tolist(),
                      np.round(states[:, 3:], 6).tolist()))],
        "edges": (
            edges("velocity", nodes=vel.nodes.tolist(),
                  measurement=vel.velocity.tolist(), dt=vel.dt.tolist(),
                  information_eigenvalues=eigenvalues(vel.information))
            + edges("trrtk", nodes=tr.nodes.tolist(),
                    measurement=tr.baseline.tolist(),
                    time_difference=tr.time_difference.tolist(),
                    information_eigenvalues=eigenvalues(tr.information))
            + edges("pseudorange", nodes=pr.node[:, None].tolist(),
                    satellite=[str(SatelliteId.from_key(key))
                               for key in pr.sat.tolist()],
                    measurement=pr.constant.tolist(),
                    information_eigenvalues=pr.information[:, None].tolist())
            + edges("prior", nodes=priors.node[priors.start, None].tolist(),
                    indices=indices, measurement=values,
                    information_eigenvalues=list(map(sorted, information)))),
        "optimizer": {name: getattr(report, name) for name in
                      ("initial_cost", "final_cost", "iterations",
                       "converged")}}


class TestGraphJsonText:
    """graph.json is `json.dumps` of one dict per edge, to the byte."""

    @pytest.fixture(scope="class")
    def solved(self):
        cfg = ScenarioConfig(duration=30.0,
                             trajectory=TrajectoryConfig(kind="line",
                                                         speed=2.0), seed=2)
        truth, epochs, states = run_scenario(cfg)
        return solve_trajectory(epochs, states,
                                PipelineConfig(iono=cfg.iono,
                                               tropo=cfg.tropo))

    def text(self, result):
        buf = io.StringIO()
        export_graph_json(result.graph, buf, states=result.states,
                          report=result.report)
        return buf.getvalue()

    def test_equals_the_dict_payload(self, solved):
        g = solved.graph
        assert min(len(g.velocity_factors), len(g.trrtk_factors),
                   len(g.pseudorange_factors), len(g.priors)) > 0
        assert self.text(solved) == json.dumps(
            graph_payload(g, solved.states, solved.report))

    @pytest.mark.parametrize("size", [1, 7, "pseudorange"])
    def test_slices_equal_the_dict_payload(self, solved, size, monkeypatch):
        """Edges written a slice at a time, whether a slice is one edge,
        splits every kind or ends exactly at the end of one, give the
        same text."""
        import gnssgraph.fileio
        g = solved.graph
        if size == "pseudorange":
            size = len(g.pseudorange_factors)
        monkeypatch.setattr(gnssgraph.fileio, "_ROW_SLICE", size)
        assert len(g.pseudorange_factors) > 7 and len(g.trrtk_factors) > 7
        assert self.text(solved) == json.dumps(
            graph_payload(g, solved.states, solved.report))

    def test_non_finite_and_negative_zero(self, solved):
        import copy
        result = copy.deepcopy(solved)
        g, x = result.graph, result.states
        g.velocity_factors.velocity[0, 1] = np.nan
        g.velocity_factors.dt[1] = -0.0
        g.trrtk_factors.baseline[0, 2] = np.inf
        g.trrtk_factors.time_difference[1] = -np.inf
        g.pseudorange_factors.constant[:3] = (np.nan, -0.0, np.inf)
        g.pseudorange_factors.information[3] = np.nan
        g.priors.value[0] = -0.0
        g.priors.information[:2] = (np.nan, 1.0)
        x[0, 0] = np.nan
        x[1, 3] = -1e-9                  # rounds to -0.0
        text = self.text(result)
        assert "NaN" in text and "Infinity" in text and "-0.0" in text
        assert text == json.dumps(graph_payload(g, x, result.report))


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

    def test_scenario_round_trip_without_delay_models(self):
        buf = io.StringIO()
        save_scenario_yaml(small_scenario(iono=None, tropo=None), buf)
        assert "iono: null\ntropo: null\n" in buf.getvalue()
        back = load_scenario_yaml(io.StringIO(buf.getvalue()))
        assert back.iono is None and back.tropo is None

    @pytest.mark.parametrize("text, message", [
        ("counts: {G: 1.5}", "GPS satellite count must be an integer"),
        ("counts: {G: 3, E: true}", "GAL satellite count must be an integer"),
        ("start_time: {week: 2200.9, tow: 5}", "week must be an integer"),
        ("start_time: {week: false, tow: 5}", "week must be an integer")],
        ids=["count-fraction", "count-bool", "week-fraction", "week-bool"])
    def test_counts_and_week_are_integers(self, text, message):
        """A fraction or a bool for a satellite count or a GPS week is
        refused, not cut to an integer or read as 0 or 1."""
        with pytest.raises(IoFailure, match=message):
            load_scenario_yaml(io.StringIO(text))
        back = load_scenario_yaml(io.StringIO(
            "counts: {G: 3, E: 0}\nstart_time: {week: 2200, tow: 5}"))
        assert back.counts == {Constellation.GPS: 3, Constellation.GAL: 0}
        assert back.start_time == GpsTime(2200, 5.0)

    @pytest.mark.parametrize("text, message", [
        ("start_time: {week: 2200, tow: '5'}",
         "tow must be a finite number, not '5'"),
        ("start_time: {week: 2200, tow: true}",
         "tow must be a finite number, not True"),
        ("origin: {lat_deg: true, lon_deg: 139.8}",
         "lat_deg must be a finite number >= -90 and <= 90, not True"),
        ("origin: {lat_deg: 35.7, lon_deg: 139.8, height: '50'}",
         "height must be a finite number, not '50'"),
        ("origin: {lat_deg: 95, lon_deg: 139.8}",
         "lat_deg must be a finite number >= -90 and <= 90, not 95"),
        ("origin: {lat_deg: 35.7, lon_deg: .nan}",
         "lon_deg must be a finite number >= -180 and <= 180, not nan")],
        ids=["tow-string", "tow-bool", "latitude-bool", "height-string",
             "latitude-beyond-pole", "longitude-nan"])
    def test_time_and_origin_are_numbers(self, text, message):
        """A string or a bool for the start time of week or an origin
        coordinate, or a latitude beyond a pole, is refused, not read as
        a number or kept as a string; integers read as floats."""
        with pytest.raises(IoFailure, match=message):
            load_scenario_yaml(io.StringIO(text))
        back = load_scenario_yaml(io.StringIO(
            "start_time: {week: 2200, tow: 5}\n"
            "origin: {lat_deg: -90, lon_deg: 180, height: 50}"))
        assert back.start_time == GpsTime(2200, 5.0)
        assert type(back.start_time.tow) is float
        assert back.origin == GeodeticPosition(np.radians(-90.0),
                                               np.radians(180.0), 50.0)
        assert type(back.origin.height) is float

    @pytest.mark.parametrize("value, shown", [
        ("200", "200"), ("-1", "-1"), ("true", "True"), (".nan", "nan")])
    def test_refused_mask_is_stated_in_degrees(self, value, shown):
        """A mask outside [0, 90] degrees, or not a number, is refused
        under its own key, with its value and bounds in degrees."""
        with pytest.raises(IoFailure) as refused:
            load_pipeline_yaml(io.StringIO(
                f"iono: null\nsolver: {{elevation_mask_deg: {value}}}"))
        assert str(refused.value).endswith(
            "elevation_mask_deg must be a finite number >= 0 and <= 90, "
            f"not {shown}")

    def test_scenario_file_writes_integer_waypoints_as_floats(self):
        cfg = small_scenario(trajectory=TrajectoryConfig(
            kind="waypoints", waypoints=[[0, 0, 0], [5, 0, 1]]))
        buf = io.StringIO()
        save_scenario_yaml(cfg, buf)
        assert "  waypoints:\n  - - 0.0\n    - 0.0\n    - 0.0\n" in (
            buf.getvalue())
        back = load_scenario_yaml(io.StringIO(buf.getvalue()))
        assert back.trajectory == TrajectoryConfig(
            kind="waypoints", waypoints=[[0.0, 0.0, 0.0], [5.0, 0.0, 1.0]])

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
        """The delay models, the observation spacing and the elevation
        mask are set once for the whole solve, so the trrtk section has
        no key for them; the top-level use_pseudorange is the
        pipeline's."""
        for text in ("trrtk: {interval: 5}", "trrtk: {iono: null}",
                     "trrtk: {elevation_mask_deg: 15}",
                     "trrtk: {elevation_mask_deg: 200}"):
            with pytest.raises(IoFailure):
                load_pipeline_yaml(io.StringIO("tropo: null\n" + text))
        config = load_pipeline_yaml(io.StringIO("iono: null\n"
                                                "use_pseudorange: false"))
        assert config.use_pseudorange is False
        config = load_pipeline_yaml(io.StringIO("iono: null"))
        assert config.use_pseudorange is True

    def test_pipeline_unknown_keys_raise(self):
        """A misspelt top-level key, a section the file format does not
        have, or a removed setting is a parse error, not a silent default."""
        for text in ("use_pseudoranges: false", "graph: {max_iterations: 5}",
                     "trrtk: {ratio_threshold: 3}"):
            with pytest.raises(IoFailure):
                load_pipeline_yaml(io.StringIO("iono: null\n" + text))

    @pytest.mark.parametrize("text", [
        "pair_lattice: 5", "pair_lattice: [a]", "pair_lattice: abc",
        "pair_lattice: [.inf]", 'use_trrtk: "false"', "use_trrtk: 0",
        "use_pseudorange: no_such_value", "use_pseudorange: null"])
    def test_pipeline_bad_values_raise(self, text):
        """A lattice that is not a list of finite offsets, or a flag that
        is not a YAML bool, is a parse error: "false" in quotes is not
        false, and bool() of it would read as true."""
        with pytest.raises(IoFailure):
            load_pipeline_yaml(io.StringIO("iono: null\n" + text))

    @pytest.mark.parametrize("config_class, name", [
        (PipelineConfig, "graph"),
        (TrRtkConfig, "ratio_threshold"),
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
