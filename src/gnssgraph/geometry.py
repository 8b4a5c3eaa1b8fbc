"""Satellite geometry of a whole session, shared by the epoch-wise estimators.

An `EpochGeometry` holds every epoch's observed satellites that have a
known state as flat rows, epoch after epoch, and what the estimators
need of them seen from one receiver position per epoch: line of sight,
range, elevation/azimuth and the modeled atmosphere delays. The
pipeline gathers the session once per solve, with the delay models, and
hands that unlocated geometry to SPP, which locates it afresh at each
iterate, every epoch without an error at once. SPP's last located
geometry, each epoch seen from where its last step was computed (from
its fix, if it stopped earlier), is the one that Doppler velocity,
TR-RTK and the graph's pseudorange factors use: nothing after SPP
locates the session again. Every estimator takes the rows `usable(mask)`
at the one mask of `SolverConfig`: a satellite below it or outside a
delay model is left out, never an error. A one-epoch caller passes one
epoch.
"""

from __future__ import annotations

import copy

import numpy as np

from .atmosphere import (MIN_ELEVATION, KlobucharParams, TropoModel,
                         klobuchar_delay, saastamoinen_delay)
from .constants import CLIGHT
from .coords import (check_ranges, ecef_to_geodetic, elevation_azimuth,
                     unchecked_lines_of_sight)
from .errors import DegenerateGeometry, LengthMismatch
from .types import STATE_COLUMNS


class EpochGeometry:
    """A session's satellites, and with `at`, seen from one receiver
    position per epoch.

    Built from epochs and their satellite-state arrays (see
    `types.STATE_COLUMNS`), keeping the rows whose state is known.
    Per epoch: `times` (GpsTime), `tow` [s] and `start`, whose rows
    `start[e]:start[e + 1]` are epoch e's satellites in its order.
    Per row: `epoch`, `sats` (`SatelliteId.key`), `sat_position`,
    `sat_velocity`, `clock_bias` [s], `clock_drift` [s/s], `code` [m],
    `phase` [cycles], `doppler` [Hz], `wavelength` [m], `lock` (count),
    `slot` (`CONSTELLATION_INDEX`) and `prn`. Set by
    `at(positions)`: per epoch `position` and `geodetic`, per row
    `elevation` and `azimuth` [rad], `unit` (receiver to satellite),
    Sagnac-corrected `range` [m], `iono` and `tropo` delays [m], and
    `corrected_code`, the pseudorange with the satellite clock and the
    modeled atmosphere removed [m]. A delay is zero without its model
    and NaN where its model is undefined: iono below the horizon, tropo
    at or below 1 deg; such a row is not `usable`. Every row is computed
    from its own epoch's values alone, so an epoch gets the same bits
    in any session.
    """

    def __init__(self, epochs, sat_states,
                 iono: KlobucharParams | None = None,
                 tropo: TropoModel | None = None):
        rows = list(map(len, epochs))
        if rows != list(map(len, sat_states)):
            raise LengthMismatch("satellite states do not align with the "
                                 "epochs' rows")
        self.times = tuple(epoch.time for epoch in epochs)
        self.tow = np.array([time.tow for time in self.times], dtype=float)
        self.iono_model, self.tropo_model = iono, tropo
        states = np.concatenate([np.zeros((0, len(STATE_COLUMNS))),
                                 *sat_states])
        known = ~np.isnan(states).any(axis=1)
        self.epoch = np.repeat(np.arange(len(epochs)), rows)[known]
        self.start = np.searchsorted(self.epoch, np.arange(len(epochs) + 1))
        for name, dtype in (("sats", int), ("code", float), ("phase", float),
                            ("doppler", float), ("wavelength", float),
                            ("lock", int)):
            setattr(self, name, np.concatenate([np.zeros(0, dtype), *(
                getattr(epoch, name) for epoch in epochs)])[known])
        states = states[known]
        self.sat_position, self.sat_velocity = (states[:, :3].copy(),
                                                states[:, 3:6].copy())
        self.clock_bias, self.clock_drift = (states[:, 6].copy(),
                                             states[:, 7].copy())
        self.slot, self.prn = np.divmod(self.sats, 100)

    def at(self, positions) -> "EpochGeometry":
        """These satellites seen from `positions` (epochs, 3), one receiver
        position per epoch; the satellite arrays are shared, not copied."""
        located = copy.copy(self)
        located._locate(positions)
        return located

    def _locate(self, positions) -> None:
        # assign new arrays only: the satellite arrays are shared with
        # the unlocated geometry and with every geometry located from it
        self.position = np.array(positions, dtype=float).reshape(-1, 3)
        self.geodetic = ecef_to_geodetic(self.position)
        self.elevation, self.azimuth = elevation_azimuth(
            self.geodetic, self.sat_position, self.epoch)
        self.unit, self.range, self._distance = unchecked_lines_of_sight(
            self.position[self.epoch], self.sat_position)
        n = len(self.sats)
        self.iono = np.zeros(n)
        self.tropo = np.zeros(n)
        if self.iono_model is not None:
            ok = self.elevation >= 0.0
            self.iono[~ok] = np.nan
            self.iono[ok] = klobuchar_delay(
                self.iono_model, self.tow[self.epoch[ok]],
                self.geodetic.take(self.epoch[ok]), self.elevation[ok],
                self.azimuth[ok])
        if self.tropo_model is not None:
            ok = self.elevation > MIN_ELEVATION
            self.tropo[~ok] = np.nan
            self.tropo[ok] = saastamoinen_delay(
                self.tropo_model, self.geodetic, self.elevation[ok],
                self.epoch[ok])
        self.corrected_code = (self.code + CLIGHT * self.clock_bias
                               - self.iono - self.tropo)

    def usable(self, mask: float) -> np.ndarray:
        """Bool per row: an observation of SPP, Doppler, TR-RTK and the
        graph, at or above elevation `mask` with both delays defined."""
        return ((self.elevation >= mask) & ~np.isnan(self.iono)
                & ~np.isnan(self.tropo))

    def range_faults(self, mask: float) -> dict:
        """Epoch index -> DegenerateGeometry, as `line_of_sight` raises
        it, for each epoch with a `usable(mask)` satellite closer than
        1000 km; every estimator stops on these epochs."""
        rows, faults = self.usable(mask), {}
        for e in np.unique(self.epoch[rows & (self._distance < 1e6)]).tolist():
            try:
                check_ranges(self._distance[rows & (self.epoch == e)])
            except DegenerateGeometry as exc:
                faults[e] = exc
        return faults
