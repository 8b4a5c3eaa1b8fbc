"""Core GNSS domain types.

ECEF vectors are plain numpy arrays of shape (3,) throughout the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache
from numbers import Integral, Real

import numpy as np

from .gnsstime import GpsTime


def setting(default, low=-math.inf, high=math.inf, *, above=None,
            length=None, required=False):
    """A config field that `Checked` holds to its domain, declared here
    once. A bool default makes a bool setting. Any other is a number, an
    integer if the default is one, else finite, in [`low`, `high`] and
    above `above` if given; a tuple default makes a tuple of finite
    numbers, `length` of them if given. A config section of a YAML file
    must give a `required` setting. The field's `domain(unit)` words the
    domain, a number's bounds passed through `unit` to state them in
    another unit, as a file that holds the setting in that unit has it."""
    def number(value) -> bool:
        return (isinstance(value, Integral if type(default) is int else Real)
                and not isinstance(value, bool) and math.isfinite(value)
                and low <= value <= high
                and (above is None or value > above))

    def admits(value) -> bool:
        if type(default) is bool:
            return isinstance(value, bool)
        if type(default) is tuple:
            return (isinstance(value, tuple) and length in (None, len(value))
                    and all(map(number, value)))
        return number(value)

    def domain(unit=float) -> str:
        if type(default) is bool:
            return "true or false"
        if type(default) is tuple:
            return f"a list of {length or 'any number of'} finite numbers"
        limits = [f">= {unit(low):g}"] if low > -math.inf else []
        limits += [f"> {unit(above):g}"] if above is not None else []
        limits += [f"<= {unit(high):g}"] if high < math.inf else []
        kind = "an integer" if type(default) is int else "a finite number"
        return f"{kind} {' and '.join(limits)}".rstrip()

    return field(default=default, metadata={
        "admits": admits, "domain": domain, "required": required})


class Checked:
    """Base of the config dataclasses: its `__post_init__` refuses
    (ValueError) a `setting` field outside its domain, so a refused value
    fails where the config is built, also by `dataclasses.replace`."""

    __slots__ = ()

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if "admits" in f.metadata and not f.metadata["admits"](value):
                raise ValueError(f"{f.name} must be "
                                 f"{f.metadata['domain']()}, not {value!r}")


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
        if not 0 <= key < 100 * len(CONSTELLATIONS):
            raise ValueError(f"satellite key out of range: {key}")
        return SatelliteId(CONSTELLATIONS[key // 100], key % 100)

    @staticmethod
    @cache
    def name_of(key: int) -> str:
        """`str` of the satellite of this key, formatted once per key."""
        return str(SatelliteId.from_key(key))

    @staticmethod
    def names_of(keys: np.ndarray) -> np.ndarray:
        """The `name_of` of each key as a row of three bytes (`uint8`), from
        a table of every key; `name_of`'s error for the first key that has
        no satellite."""
        table = _name_table()
        keys = np.asarray(keys, dtype=int)
        known = (keys >= 0) & (keys < len(table))
        rows = np.where(known, keys, 0)
        bad = ~known | (table[rows, 0] == 0)
        if bad.any():
            SatelliteId.name_of(int(keys[bad.argmax()]))
        return table[rows]


@cache
def _name_table() -> np.ndarray:
    """Per satellite key, its name's three bytes; NULs for a key that has
    no satellite."""
    def name(key):
        try:
            return SatelliteId.name_of(key)
        except ValueError:
            return ""
    return np.array([*map(name, range(100 * len(CONSTELLATIONS)))],
                    dtype="S3").view(np.uint8).reshape(-1, 3)


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
