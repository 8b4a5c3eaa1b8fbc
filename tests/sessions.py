"""Helpers for tests that look at or cut down an epoch's rows."""

import dataclasses

import numpy as np

from gnssgraph.types import SatelliteId, SatelliteState


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


def _state(row) -> SatelliteState:
    return SatelliteState(row[:3], row[3:6], row[6], row[7])


def state_of(epoch, states, sat) -> SatelliteState:
    """The state of satellite `sat` in `epoch`'s satellite-state array, as
    the one-satellite reference functions take it."""
    return _state(states[row_of(epoch, sat)])


def states_by_sat(epochs, states) -> list:
    """Per epoch, satellite -> its state, as `state_of` gives it."""
    return [{SatelliteId.from_key(key): _state(row)
             for key, row in zip(epoch.sats.tolist(), rows)}
            for epoch, rows in zip(epochs, states)]
