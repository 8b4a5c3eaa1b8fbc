"""Core GNSS domain types.

ECEF vectors are plain numpy arrays of shape (3,) throughout the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

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
    constellation: Constellation
    prn: int

    def __post_init__(self):
        if not 1 <= self.prn <= 64:
            raise ValueError(f"prn out of range: {self.prn}")
        # the dataclass hash would hash the enum by its name on every
        # call; this key is equal exactly when the fields are
        object.__setattr__(self, "_key",
                           (CONSTELLATION_INDEX[self.constellation], self.prn))

    def __hash__(self) -> int:
        return hash(self._key)

    def __str__(self) -> str:
        return f"{self.constellation.value}{self.prn:02d}"

    def sort_key(self):
        return self._key

    @staticmethod
    def parse(text: str) -> "SatelliteId":
        return SatelliteId(Constellation(text[0]), int(text[1:3]))


@dataclass(frozen=True)
class GeodeticPosition:
    """Latitude/longitude in radians, ellipsoidal height in meters."""

    latitude: float
    longitude: float
    height: float


@dataclass(frozen=True)
class SatelliteState:
    """Satellite position/velocity (ECEF) and clock at signal time."""

    position: np.ndarray       # [m]
    velocity: np.ndarray       # [m/s]
    clock_bias: float          # [s]
    clock_drift: float         # [s/s]


@dataclass(frozen=True)
class Observation:
    """Single-satellite raw measurements at one epoch."""

    sat: SatelliteId
    pseudorange: float         # [m]
    carrier_phase: float       # [cycles]
    doppler: float             # [Hz]
    wavelength: float          # [m], per-satellite (GLONASS FDMA)
    lock_count: int            # epochs of continuous carrier lock
    snr: float                 # [dB-Hz]


@dataclass
class Epoch:
    """All observations of one receiver time tick, sorted and unique."""

    time: GpsTime
    observations: list[Observation] = field(default_factory=list)

    def __post_init__(self):
        self.observations = sorted(self.observations,
                                   key=lambda o: o.sat.sort_key())
        ids = [o.sat for o in self.observations]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate satellite in epoch")

    def get(self, sat: SatelliteId) -> Observation | None:
        return self._by_sat.get(sat)

    @cached_property
    def _by_sat(self) -> dict:
        """Satellite -> observation, built on the first `get`."""
        return {o.sat: o for o in self.observations}

    @property
    def sat_ids(self) -> set[SatelliteId]:
        return {o.sat for o in self.observations}
