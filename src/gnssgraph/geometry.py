"""Per-epoch satellite geometry shared by the epoch-wise estimators.

An `EpochGeometry` holds, as arrays in the epoch's satellite order,
every observed satellite that has a known state, and what the
estimators need of it at one receiver position: line of sight, range,
elevation/azimuth and the modeled atmosphere delays. The pipeline
gathers each epoch's satellites once, with the delay models, and every
estimator takes that unlocated geometry or one located from it: SPP
evaluates it at each iterate, the pipeline once at each final point
solution for Doppler velocity and TR-RTK, and the graph once per node
for the pseudorange factors.
"""

from __future__ import annotations

import copy

import numpy as np

from .atmosphere import (MIN_ELEVATION, KlobucharParams, TropoModel,
                         klobuchar_delay, saastamoinen_delay)
from .constants import CLIGHT
from .coords import (check_ranges, ecef_to_geodetic, elevation_azimuth,
                     unchecked_lines_of_sight)
from .errors import ElevationTooLow
from .types import CONSTELLATION_INDEX, Epoch


class EpochGeometry:
    """One epoch's satellites, and with `at`, seen from a receiver position.

    Satellite arrays (row k is `sats[k]`): `sat_position`,
    `sat_velocity`, `clock_bias` [s], `clock_drift` [s/s], `code` [m],
    `doppler` [Hz], `wavelength` [m] and `slot` (`CONSTELLATION_INDEX`).
    Set by `at(position)`: `position`, `geodetic`, `elevation` and
    `azimuth` [rad], `unit` (receiver to satellite), Sagnac-corrected
    `range` [m], `iono` and `tropo` delays [m], and `corrected_code`,
    the pseudorange with the satellite clock and the modeled atmosphere
    removed [m]. A delay is zero without its model and NaN where its
    model is undefined: iono below the horizon, tropo at or below 1 deg
    (see `require_delays`).
    """

    def __init__(self, epoch: Epoch, states: dict,
                 iono: KlobucharParams | None = None,
                 tropo: TropoModel | None = None):
        known = [(obs, state) for obs in epoch.observations
                 if (state := states.get(obs.sat)) is not None]
        self.time = epoch.time
        self.iono_model = iono
        self.tropo_model = tropo
        self.sats = tuple(obs.sat for obs, _ in known)
        self.sat_position = np.array([s.position for _, s in known],
                                     dtype=float).reshape(-1, 3)
        self.sat_velocity = np.array([s.velocity for _, s in known],
                                     dtype=float).reshape(-1, 3)
        self.clock_bias = np.array([s.clock_bias for _, s in known],
                                   dtype=float)
        self.clock_drift = np.array([s.clock_drift for _, s in known],
                                    dtype=float)
        self.code = np.array([obs.pseudorange for obs, _ in known],
                             dtype=float)
        self.doppler = np.array([obs.doppler for obs, _ in known],
                                dtype=float)
        self.wavelength = np.array([obs.wavelength for obs, _ in known],
                                   dtype=float)
        self.slot = np.array([CONSTELLATION_INDEX[sat.constellation]
                              for sat in self.sats], dtype=int)

    def at(self, position) -> "EpochGeometry":
        """These satellites seen from the receiver position `position`;
        the satellite arrays are shared, not copied."""
        located = copy.copy(self)
        located._locate(position)
        return located

    def _locate(self, position) -> None:
        # assign new arrays only: the satellite arrays are shared with
        # the unlocated geometry and with every geometry located from it
        self.position = np.array(position, dtype=float)
        self.geodetic = ecef_to_geodetic(self.position)
        self.elevation, self.azimuth = elevation_azimuth(self.geodetic,
                                                         self.sat_position)
        self.unit, self.range, self._distance = unchecked_lines_of_sight(
            self.position, self.sat_position)
        n = len(self.sats)
        self.iono = np.zeros(n)
        self.tropo = np.zeros(n)
        if self.iono_model is not None:
            ok = self.elevation >= 0.0
            self.iono[~ok] = np.nan
            self.iono[ok] = klobuchar_delay(
                self.iono_model, self.time, self.geodetic,
                self.elevation[ok], self.azimuth[ok])
        if self.tropo_model is not None:
            ok = self.elevation > MIN_ELEVATION
            self.tropo[~ok] = np.nan
            self.tropo[ok] = saastamoinen_delay(
                self.tropo_model, self.geodetic, self.elevation[ok])
        self.corrected_code = (self.code + CLIGHT * self.clock_bias
                               - self.iono - self.tropo)

    def above(self, mask: float) -> np.ndarray:
        """Row indexes of the satellites at or above elevation `mask`."""
        return np.flatnonzero(self.elevation >= mask)

    def require_ranges(self, rows) -> None:
        """Raise DegenerateGeometry if a satellite of `rows` is closer
        than 1000 km, as `lines_of_sight` does."""
        check_ranges(self._distance[rows])

    def require_delays(self, rows) -> None:
        """Raise what the delay models raise for a satellite of `rows`
        outside their domain: ValueError below the horizon (Klobuchar),
        ElevationTooLow at or below 1 deg (Saastamoinen)."""
        if np.isnan(self.iono[rows]).any():
            raise ValueError("elevation must be non-negative")
        low = np.isnan(self.tropo[rows])
        if low.any():
            lowest = np.degrees(self.elevation[rows][low].min())
            raise ElevationTooLow(f"elevation {lowest:.2f} deg below 1 deg")
