"""Helpers for tests that look at or cut down an epoch's rows."""

import dataclasses

import numpy as np

from gnssgraph.types import SatelliteId


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
