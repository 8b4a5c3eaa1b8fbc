"""Helpers for tests that look at or cut down an epoch's rows, a dense
loop-closure lattice, the session benchmark's slip schedule, and a fresh
interpreter."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from gnssgraph.types import SatelliteId

SRC = Path(__file__).resolve().parent.parent / "src"

# eight loop-closure offsets [s], the default lattice before it was thinned
# to three: many pairs per epoch, and offsets that coincide at coarse
# spacing, for the tests of the pair and block mechanics that count on them
EIGHT_OFFSETS = (5.0, 10.0, 20.0, 30.0, 45.0, 60.0, 80.0, 100.0)


def take(epoch, states, rows):
    """The epoch with only `rows` (indexes or a bool mask), and those rows
    of its satellite-state array."""
    return dataclasses.replace(epoch, **{
        field.name: getattr(epoch, field.name)[rows]
        for field in dataclasses.fields(epoch) if field.name != "time"}), (
        states[rows])


def row_of(epoch, sat):
    """The row of satellite `sat` (a SatelliteId or its key) in `epoch`,
    or None."""
    key = getattr(sat, "key", sat)
    k = int(np.searchsorted(epoch.sats, key))
    return k if k < len(epoch) and epoch.sats[k] == key else None


def sat_ids(epoch) -> set:
    """The satellites `epoch` observes."""
    return set(map(SatelliteId.from_key, epoch.sats.tolist()))


def position_of(epoch, states, sat) -> np.ndarray:
    """The position (3,) of satellite `sat` in `epoch`'s satellite-state
    array."""
    return states[row_of(epoch, sat), :3]


def positions_by_sat(epochs, states) -> list:
    """Per epoch, satellite -> its position, as `position_of` gives it."""
    return [{SatelliteId.from_key(key): row[:3]
             for key, row in zip(epoch.sats.tolist(), rows)}
            for epoch, rows in zip(epochs, states)]


def slip_schedule(config, window=10.0, per_window=4):
    """The session benchmark's slips: `per_window` in every `window`
    seconds, drawn from all configured satellites by the scenario seed."""
    sats = sorted((SatelliteId(const, prn)
                   for const, count in config.counts.items()
                   for prn in range(1, count + 1)),
                  key=lambda s: s.sort_key())
    rng = np.random.default_rng(config.seed + 100)
    return [(sats[k], float(window * w + rng.integers(1, 11)))
            for w in range(int(config.duration // window))
            for k in rng.choice(len(sats), per_window, replace=False)]


def fresh_interpreter(code: str) -> str:
    """The stripped stdout of `code` run by a new Python interpreter that
    imports gnssgraph from this checkout; it must exit 0."""
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout.strip()
