"""The satellite-state sidecar reader as a loop over CSV rows, one row at
a time: the reference that `read_sat_states_csv` must agree with, bit for
bit, errors alike."""

import csv
import math

import numpy as np

from gnssgraph.errors import IoFailure
from gnssgraph.fileio import SAT_STATE_COLUMNS
from gnssgraph.types import STATE_COLUMNS, SatelliteId


def _millisecond(tow):
    """A time of week to the millisecond; None for one no epoch has."""
    return round(tow * 1000.0) if math.isfinite(tow) else None


def read_sat_states_reference(stream, epochs):
    """Per epoch, an array of `STATE_COLUMNS` with, in row k, the last
    sidecar row of its satellite k at its time of week to the millisecond,
    NaN where there is none; any malformed row is an IoFailure."""
    lines = stream.read().splitlines()
    header = next(csv.reader(lines[:1]), None) or list(SAT_STATE_COLUMNS)
    try:
        tow_col, sat_col, *value_cols = (header.index(name)
                                         for name in SAT_STATE_COLUMNS)
    except ValueError as exc:
        raise IoFailure(f"bad satellite-state header: {exc}") from exc
    rows = {}
    for number, row in enumerate(csv.reader(lines[1:]), start=2):
        if not row:
            continue
        try:
            tow = float(row[tow_col])
            key = SatelliteId.parse(row[sat_col]).key
            rows[_millisecond(tow), key] = [float(row[k]) for k in value_cols]
        except (IndexError, KeyError, ValueError) as exc:
            raise IoFailure(f"line {number}: {exc!r}") from exc
    unknown = [math.nan] * len(STATE_COLUMNS)
    return [np.array([rows.get((_millisecond(epoch.time.tow), key), unknown)
                      for key in epoch.sats.tolist()],
                     dtype=float).reshape(-1, len(STATE_COLUMNS))
            for epoch in epochs]


def same_states(a, b) -> bool:
    """Whether two per-epoch state lists hold the same arrays: shapes,
    dtypes and bits, NaN alike."""
    return len(a) == len(b) and all(
        x.shape == y.shape and x.dtype == y.dtype
        and x.tobytes() == y.tobytes() for x, y in zip(a, b))
