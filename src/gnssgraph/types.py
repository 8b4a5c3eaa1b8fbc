"""Core GNSS domain types.

ECEF vectors are plain numpy arrays of shape (3,) throughout the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from .gnsstime import GpsTime


class Constellation(Enum):
    GPS = "G"
    GLO = "R"
    GAL = "E"
    BDS = "C"


# Fixed ordering used for clock-bias state slots and sorting.
CONSTELLATIONS = (Constellation.GPS, Constellation.GLO,
                  Constellation.GAL, Constellation.BDS)
CONSTELLATION_INDEX = {c: i for i, c in enumerate(CONSTELLATIONS)}


@dataclass(frozen=True, order=False)
class SatelliteId:
    """A satellite; `key`, 100 * its `CONSTELLATION_INDEX` + prn, is the
    integer that stands for it in arrays and sorts as `sort_key`."""

    constellation: Constellation
    prn: int

    def __post_init__(self):
        if not 1 <= self.prn <= 64:
            raise ValueError(f"prn out of range: {self.prn}")
        # the dataclass hash would hash the enum by its name on every
        # call; this key is equal exactly when the fields are
        object.__setattr__(self, "key", 100 * CONSTELLATION_INDEX[
            self.constellation] + self.prn)

    def __hash__(self) -> int:
        return self.key

    def __str__(self) -> str:
        return f"{self.constellation.value}{self.prn:02d}"

    def sort_key(self):
        return divmod(self.key, 100)

    @staticmethod
    def parse(text: str) -> "SatelliteId":
        return SatelliteId(Constellation(text[0]), int(text[1:3]))

    @staticmethod
    @cache
    def from_key(key: int) -> "SatelliteId":
        return SatelliteId(CONSTELLATIONS[key // 100], key % 100)

    @staticmethod
    @cache
    def name_of(key: int) -> str:
        """`str` of the satellite of this key, formatted once per key."""
        return str(SatelliteId.from_key(key))


@dataclass(frozen=True)
class GeodeticPosition:
    """Latitude/longitude in radians, ellipsoidal height in meters."""

    latitude: float
    longitude: float
    height: float

    def take(self, index) -> "GeodeticPosition":
        """The positions that `index` selects of a position of arrays."""
        return GeodeticPosition(self.latitude[index], self.longitude[index],
                                self.height[index])


# an epoch's satellite-state array, one row per epoch row: ECEF position
# [m], velocity [m/s], clock bias [s] and drift [s/s]; NaN if unknown
STATE_COLUMNS = ("x", "y", "z", "vx", "vy", "vz", "clock_bias",
                 "clock_drift")


@dataclass
class Epoch:
    """One receiver time tick: its satellites' measurements, one row per
    satellite, by ascending `SatelliteId.key`."""

    time: GpsTime
    sats: np.ndarray           # SatelliteId.key
    code: np.ndarray           # pseudorange [m]
    phase: np.ndarray          # carrier phase [cycles]
    doppler: np.ndarray        # [Hz]
    wavelength: np.ndarray     # [m], per satellite (GLONASS FDMA)
    lock: np.ndarray           # epochs of continuous carrier lock
    snr: np.ndarray            # [dB-Hz]

    def __len__(self) -> int:
        return len(self.sats)
