"""The RINEX observation and satellite-state sidecar writers equal their
per-row references (`writer_reference`) byte for byte, errors alike."""

import io

import numpy as np
import pytest

from gnssgraph.cli import main
from gnssgraph.fileio import save_scenario_yaml, write_sat_states_csv
from gnssgraph.gnsstime import GpsTime
from gnssgraph.rinex import (RinexHeader, header_for_scenario,
                             parse_rinex_obs, write_rinex_obs)
from gnssgraph.sim import ScenarioConfig, TrajectoryConfig, run_scenario
from gnssgraph.types import Constellation, Epoch, SatelliteId
from sessions import slip_schedule
from writer_reference import (write_rinex_reference,
                              write_sat_states_reference)

MIXED_COUNTS = {Constellation.GPS: 8, Constellation.GLO: 5,
                Constellation.GAL: 6, Constellation.BDS: 5}


def written(writer, *args):
    stream = io.StringIO()
    writer(*args, stream)
    return stream.getvalue()


def assert_as_reference(header, epochs, states):
    """Both files as the per-row writers write them; returns them."""
    rinex = written(write_rinex_obs, header, epochs)
    sidecar = written(write_sat_states_csv, epochs, states)
    assert rinex == written(write_rinex_reference, header, epochs)
    assert sidecar == written(write_sat_states_reference, epochs, states)
    return rinex, sidecar


def outcome(writer, *args):
    """The class and message of what `writer` raises, or its text."""
    try:
        return written(writer, *args)
    except Exception as exc:            # noqa: BLE001 - compared below
        return type(exc), str(exc)


def hand_epoch(tow, keys, snr=None, lock=None):
    n = len(keys)
    return Epoch(GpsTime(2200, tow), np.array(keys, dtype=int),
                 2e7 + np.arange(n) * 1234.5678, 1.05e8 - np.arange(n) * 7.1,
                 np.linspace(-3000.0, 3000.0, n), np.full(n, 0.19),
                 np.arange(n) if lock is None else np.array(lock),
                 np.full(n, 45.0) if snr is None else np.array(snr, float))


def hand_states(epoch):
    n = len(epoch)
    return np.column_stack([np.full((n, 3), 2.6e7) + np.arange(n)[:, None],
                            np.full((n, 3), -1234.5678912345),
                            np.full(n, 1.2345678901234567e-4),
                            np.full(n, -3.2e-12)])


HEADER = RinexHeader(marker_name="HAND", interval=1.0)


def slice_rows(monkeypatch, rows):
    """Both writers format `rows` rows at a time."""
    monkeypatch.setattr("gnssgraph.textnum.ROW_SLICE", rows)


@pytest.fixture(scope="module")
def circle():
    """The benchmark's 30-minute GPS+GAL circle (`long-cli-notr`): header,
    epochs and satellite states."""
    cfg = ScenarioConfig(duration=1800.0,
                         trajectory=TrajectoryConfig(kind="circle",
                                                     speed=1.0, radius=30.0),
                         counts={Constellation.GPS: 31,
                                 Constellation.GAL: 24}, seed=1)
    truth, epochs, states = run_scenario(cfg)
    return header_for_scenario(cfg, truth[0].position), epochs, states


def edge_session():
    """Epochs of 3, 2, 0, 4, 1 and 0 rows; rows 3, 4 and 6 have no state,
    and the clock drifts hold 0.0, -0.0 and repeats of each. Among values
    that the column kernels format sit values that `%` formats in their
    place: a product next to a half, -0.0 and a negative that rounds to
    zero, NaN, ±inf, and 1e300, wider than any slot."""
    epochs = [hand_epoch(float(t), keys, lock=[0, 2, 3, 4][:len(keys)])
              for t, keys in enumerate([[1, 2, 3], [101, 205], [],
                                        [4, 5, 301, 302], [6], []])]
    epochs[0].code[1] = 20000000.0005
    epochs[0].phase[2] = -0.0
    epochs[3].doppler[0] = 1e300
    epochs[3].code[2] = np.nan
    epochs[3].phase[3] = np.inf
    epochs[4].doppler[0] = -np.inf
    states = list(map(hand_states, epochs))
    drifts = iter([0.0, -0.0, -3.2e-12, 0.0, -0.0, -0.0, 0.0, -3.2e-12,
                   0.0, -0.0])
    for rows in states:
        rows[:, 7] = [next(drifts) for _ in rows]
    states[0][0, 0] = 1e300
    states[0][1, 1] = 5e-7
    states[0][2, 4] = -0.0
    states[1][:] = np.nan
    states[3][0, 6] = np.inf
    states[3][1, 0] = np.nan
    states[3][2, 5] = 1.0000000005
    states[3][3, 6] = -np.inf
    states[4][0, 3] = -1e-10
    states[4][0, 6] = 9.999999999999999e-05
    return epochs, states


class TestWritersAsReference:
    def test_four_constellations_with_glonass(self):
        cfg = ScenarioConfig(duration=20.0,
                             trajectory=TrajectoryConfig(kind="line",
                                                         speed=2.0),
                             counts=dict(MIXED_COUNTS), seed=2)
        truth, epochs, states = run_scenario(cfg)
        header = header_for_scenario(cfg, truth[0].position)
        rinex, _ = assert_as_reference(header, epochs, states)
        assert "GLONASS SLOT / FRQ #" in rinex
        assert {key // 100 for e in epochs for key in e.sats.tolist()} \
            == {0, 1, 2, 3}

    def test_benchmark_slip_schedule(self):
        cfg = ScenarioConfig(duration=40.0, seed=701)
        cfg.cycle_slips = slip_schedule(cfg)
        truth, epochs, states = run_scenario(cfg)
        rinex, _ = assert_as_reference(header_for_scenario(cfg), epochs,
                                       states)
        # LLI set on slips after the first epoch, not only on arc starts
        assert sum((e.lock == 0).sum() for e in epochs[1:]) > 0
        assert parse_rinex_obs(io.StringIO(rinex))[1][5].lock.tolist() \
            == epochs[5].lock.tolist()

    def test_nan_state_rows_are_skipped(self):
        cfg = ScenarioConfig(duration=5.0, seed=3)
        truth, epochs, states = run_scenario(cfg)
        states[1][0, 6] = np.nan
        states[2][:] = np.nan
        _, sidecar = assert_as_reference(header_for_scenario(cfg), epochs,
                                         states)
        assert sidecar.count("\r\n") == 1 + sum(map(len, epochs)) - 1 \
            - len(epochs[2])

    def test_snr_digit_edges(self):
        """Digits of SNR / 6 rounded half to even, clipped to 1..9, and
        the LLI digit where lock is 0."""
        snr = [0.0, 3.0, 9.0, 15.0, 27.0, 33.0, 54.0, 57.0, 100.0, -20.0]
        epoch = hand_epoch(1.0, list(range(1, 11)), snr=snr,
                           lock=[0, 3, 0, 1, 2, 0, 4, 5, 6, 7])
        rinex, _ = assert_as_reference(HEADER, [epoch], [hand_states(epoch)])
        records = rinex.splitlines()[-10:]
        assert [line[17:19] for line in records] == [
            "11", "01", "12", "02", "04", "16", "09", "09", "09", "01"]
        assert all(line[17:19] == line[33:35] == line[49:51]
                   for line in records)

    def test_empty_epoch_list(self):
        rinex, sidecar = assert_as_reference(HEADER, [], [])
        assert rinex.endswith("END OF HEADER\n")
        assert sidecar.count("\r\n") == 1

    def test_benchmark_circle(self, circle):
        header, epochs, states = circle
        assert len(epochs) == 1801
        _, sidecar = assert_as_reference(header, epochs, states)
        assert sidecar.count("\r\n") == 1 + sum(map(len, epochs)) > 33000

    @pytest.mark.parametrize("rows", range(1, 9))
    def test_slice_edges(self, rows, monkeypatch):
        """Slices that end inside an epoch, on an epoch edge, at the empty
        epoch and between the rows without a state; -0.0 and 0.0 drifts in
        one slice and apart; kernel and `%` cells side by side."""
        slice_rows(monkeypatch, rows)
        epochs, states = edge_session()
        rinex, sidecar = assert_as_reference(HEADER, epochs, states)
        assert sidecar.count(",-0.000000000000000e+00\r\n") == 3
        assert sidecar.count(",0.000000000000000e+00\r\n") == 2
        assert f"{1e300:14.3f}" in rinex and f",{1e300:.6f}," in sidecar
        assert ",inf," in sidecar and ",-inf," in sidecar

    def test_epoch_with_no_satellites(self):
        epochs = [hand_epoch(0.0, [1, 2]), hand_epoch(1.0, []),
                  hand_epoch(2.0, [101, 305])]
        rinex, _ = assert_as_reference(HEADER, epochs,
                                       list(map(hand_states, epochs)))
        assert "  0  0\n> " in rinex


# an epoch's satellite keys and SNRs, each with a bad record
RINEX_FAULTS = pytest.mark.parametrize("keys, snr", [
    ([1, 65], None), ([1, 999], None), ([-1], None),
    ([1, 2], [45.0, np.nan]), ([1, 2], [np.inf, 45.0]),
    ([1, 2], [45.0, -np.inf]),
    ([65, 2], [45.0, np.nan]), ([1, 65], [np.nan, 45.0]),
    ([1, 65], [45.0, np.nan])],
    ids=["prn-65", "no-constellation", "negative-key", "nan-snr",
         "infinite-snr", "minus-infinite-snr", "bad-key-first",
         "nan-snr-first", "both-in-one-record"])


class TestWriterErrors:
    @RINEX_FAULTS
    def test_rinex_raises_as_reference(self, keys, snr):
        epochs = [hand_epoch(0.0, [1, 2]), hand_epoch(1.0, keys, snr=snr)]
        expected = outcome(write_rinex_reference, HEADER, epochs)
        assert isinstance(expected, tuple)
        assert outcome(write_rinex_obs, HEADER, epochs) == expected

    @RINEX_FAULTS
    @pytest.mark.parametrize("rows", [1, 3])
    def test_rinex_raises_as_reference_in_a_later_slice(self, keys, snr,
                                                         rows, monkeypatch):
        """The bad epoch starts at row 5: in the sixth slice of one row, or
        across the second and third slices of three."""
        slice_rows(monkeypatch, rows)
        epochs = [hand_epoch(0.0, [1, 2, 3, 4]), hand_epoch(1.0, [5]),
                  hand_epoch(2.0, keys, snr=snr)]
        expected = outcome(write_rinex_reference, HEADER, epochs)
        assert isinstance(expected, tuple)
        assert outcome(write_rinex_obs, HEADER, epochs) == expected

    def test_sidecar_raises_as_reference(self):
        epochs = [hand_epoch(0.0, [1, 2]), hand_epoch(1.0, [3, 70])]
        states = list(map(hand_states, epochs))
        expected = outcome(write_sat_states_reference, epochs, states)
        assert expected == (ValueError, "prn out of range: 70")
        assert outcome(write_sat_states_csv, epochs, states) == expected
        # a satellite without a state is not written, nor named
        states[1][1, 0] = np.nan
        assert (written(write_sat_states_csv, epochs, states)
                == written(write_sat_states_reference, epochs, states))

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_sidecar_raises_as_reference_in_a_later_slice(self, rows,
                                                          monkeypatch):
        """The first bad row, row 6, is the fourth known one: after rows
        without a state, in a later slice and ahead of a second bad row."""
        slice_rows(monkeypatch, rows)
        epochs = [hand_epoch(0.0, [1, 2, 3, 4, 5]),
                  hand_epoch(1.0, [6, 70, 999])]
        states = list(map(hand_states, epochs))
        states[0][1:4, 5] = np.nan
        expected = outcome(write_sat_states_reference, epochs, states)
        assert expected == (ValueError, "prn out of range: 70")
        assert outcome(write_sat_states_csv, epochs, states) == expected

    def test_sidecar_refuses_states_of_another_row_count(self):
        epochs = [hand_epoch(0.0, [1, 2]), hand_epoch(1.0, [3, 4])]
        states = [hand_states(epochs[0]), hand_states(epochs[0])[:1]]
        for writer in (write_sat_states_reference, write_sat_states_csv):
            assert outcome(writer, epochs, states)[0] is IndexError


def test_simulate_writes_the_same_files_twice(tmp_path):
    """`gnssgraph simulate` of a GLONASS scenario with slips writes the
    same bytes on two runs, and the files the references write."""
    cfg = ScenarioConfig(duration=12.0, counts=dict(MIXED_COUNTS),
                         cycle_slips=[(SatelliteId(Constellation.GLO, 2), 4.0),
                                      (SatelliteId(Constellation.GPS, 5),
                                       7.0)],
                         seed=4)
    scenario = tmp_path / "scenario.yaml"
    with open(scenario, "w") as stream:
        save_scenario_yaml(cfg, stream)
    for run in ("a", "b"):
        assert main(["simulate", "--config", str(scenario),
                     "--out", str(tmp_path / run)]) == 0
    names = ("observations.rnx", "sat_states.csv", "truth.csv",
             "scenario.yaml", "solver.yaml")
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name
    truth, epochs, states = run_scenario(cfg)
    header = header_for_scenario(cfg, truth[0].position)
    assert ((tmp_path / "a" / "observations.rnx").read_text()
            == written(write_rinex_reference, header, epochs))
    assert ((tmp_path / "a" / "sat_states.csv").read_bytes().decode()
            == written(write_sat_states_reference, epochs, states))
