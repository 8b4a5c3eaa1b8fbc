"""Geometric computations: WGS-84 transforms, ENU frames, line of sight."""

from __future__ import annotations

import numpy as np

from .constants import CLIGHT, OMGE, WGS84_A, WGS84_E2
from .errors import DegenerateGeometry, NearSingular
from .types import GeodeticPosition


def geodetic_to_ecef(pos: GeodeticPosition) -> np.ndarray:
    """WGS-84 geodetic coordinates to ECEF meters: (3,) for one position
    of floats, (m, 3) for one of (m,) arrays."""
    sin_lat = np.sin(pos.latitude)
    cos_lat = np.cos(pos.latitude)
    n = WGS84_A / np.sqrt(1.0 - WGS84_E2 * scalar_pow(sin_lat, 2))
    return np.array([
        (n + pos.height) * cos_lat * np.cos(pos.longitude),
        (n + pos.height) * cos_lat * np.sin(pos.longitude),
        (n * (1.0 - WGS84_E2) + pos.height) * sin_lat,
    ]).T


def ecef_to_geodetic(pos: np.ndarray) -> GeodeticPosition:
    """ECEF meters to WGS-84 geodetic, iterative latitude solution.

    `pos` is one position (3,), which gives a GeodeticPosition of
    floats, or an (m, 3) array of them, one receiver per row, which
    gives one of (m,) arrays; each row iterates until its own latitude
    settles. Raise NearSingular if a position lies within 1000 km of
    the earth's center.
    """
    pos = np.asarray(pos, dtype=float)
    r = _row_norms(pos)
    if _any(r <= 1e6):
        raise NearSingular(
            f"position norm {np.min(r):.0f} m below geodetic threshold")
    x, y, z = pos.T
    p = np.hypot(x, y)
    lon = _select(p < 1e-9, 0.0, np.arctan2(y, x))
    lat = np.arctan2(z, p * (1.0 - WGS84_E2))
    # a NaN row (no receiver) has nothing to settle
    moving = np.isfinite(p)
    for _ in range(10):
        n, h = _radius_and_height(p, z, lat)
        lat_new = np.arctan2(z, p * (1.0 - WGS84_E2 * n / (n + h)))
        unsettled = np.abs(lat_new - lat) >= 1e-14
        lat = _select(moving, lat_new, lat)
        moving = moving & unsettled
        if not _any(moving):
            break
    return GeodeticPosition(lat, lon, _radius_and_height(p, z, lat)[1])


def _radius_and_height(p, z, lat):
    """Prime-vertical radius N at latitude `lat`, and the ellipsoidal
    height of the point at distance `p` from the axis and `z` (on the
    axis, p <= 1e-9, from `z` alone)."""
    n = WGS84_A / np.sqrt(1.0 - WGS84_E2 * scalar_pow(np.sin(lat), 2))
    return n, _select(p > 1e-9, p / np.cos(lat) - n,
                      np.abs(z) - n * (1.0 - WGS84_E2))


def _select(condition, a, b):
    """`a` where `condition` holds, else `b`: elementwise for arrays, and
    without building arrays for one value."""
    if isinstance(condition, np.ndarray):
        return np.where(condition, a, b)
    return a if condition else b


def _any(flags) -> bool:
    """Whether any of `flags` (an array, or one value) holds."""
    return bool(flags.any() if isinstance(flags, np.ndarray) else flags)


def scalar_pow(base, exponent):
    """`base ** exponent` by the C library's pow for each element, as a
    float base gets it: numpy's array power and square can round the
    last bit differently, and a receiver's coordinates and delays must
    not depend on how many receivers share the call."""
    if not isinstance(base, np.ndarray):
        return base ** exponent
    return _POW(base, exponent).astype(float)


_POW = np.frompyfunc(pow, 2, 1)


def enu_rotation(origin: GeodeticPosition) -> np.ndarray:
    """Rotation matrix mapping ECEF deltas to local East-North-Up: (3, 3)
    for one origin of floats, (m, 3, 3) for one of (m,) arrays."""
    sl, cl = np.sin(origin.latitude), np.cos(origin.latitude)
    so, co = np.sin(origin.longitude), np.cos(origin.longitude)
    rotation = np.array([
        [-so, co, np.zeros_like(so)],
        [-sl * co, -sl * so, cl],
        [cl * co, cl * so, sl],
    ])
    if rotation.ndim == 2:
        return rotation
    # contiguous, so that matmul takes each receiver's 3x3 as it takes one
    return np.ascontiguousarray(rotation.transpose(2, 0, 1))


def ecef_to_enu(origin: GeodeticPosition, point: np.ndarray) -> np.ndarray:
    """ECEF point to ENU meters relative to the origin."""
    delta = np.asarray(point, dtype=float) - geodetic_to_ecef(origin)
    return enu_rotation(origin) @ delta


def line_of_sight(receiver: np.ndarray, positions: np.ndarray):
    """Unit vectors receiver->satellite and Sagnac-corrected ranges.

    `positions` is one satellite position (3,), which gives a (3,) unit
    vector and a range, or an (n, 3) array of them, seen from one
    receiver (3,) or from one each (n, 3), which gives (n, 3) and (n,).
    Each satellite position is rotated by OMGE * range/c about the earth
    axis to account for earth rotation during signal flight. Raise
    DegenerateGeometry for a satellite closer than 1000 km.
    """
    unit, rng, distance = unchecked_lines_of_sight(receiver, positions)
    check_ranges(distance)
    return unit, rng


def unchecked_lines_of_sight(receiver: np.ndarray, positions: np.ndarray):
    """`line_of_sight` without its range check, for a caller that checks
    only some satellites: also returns the distances before the Sagnac
    rotation, which `check_ranges` takes. The norms are row sums, so a
    satellite gets the same bits alone or among many, and the simulator
    and the solver the same ranges."""
    receiver = np.asarray(receiver, dtype=float)
    positions = np.asarray(positions, dtype=float)
    distance = _row_norms(positions - receiver)
    delta = _sagnac_rotated(positions, distance) - receiver
    rng = _row_norms(delta)
    return delta / rng[..., None], rng, distance


def _sagnac_rotated(positions: np.ndarray, distance) -> np.ndarray:
    """Satellite `positions` (..., 3) rotated about the earth axis by the
    earth's turn during a signal flight of `distance` (...)."""
    theta = OMGE * distance / CLIGHT
    c, s = np.cos(theta), np.sin(theta)
    rotated = np.array(positions, dtype=float)
    rotated[..., 0] = c * positions[..., 0] + s * positions[..., 1]
    rotated[..., 1] = -s * positions[..., 0] + c * positions[..., 1]
    return rotated


def check_ranges(distance: np.ndarray) -> None:
    """Raise DegenerateGeometry for a satellite closer than 1000 km."""
    if (distance < 1e6).any():
        raise DegenerateGeometry(
            f"satellite range {distance.min():.0f} m implausible")


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, as `np.linalg.norm(a, axis=-1)`."""
    return np.sqrt((a * a).sum(axis=-1))


def elevation_azimuth(receiver: GeodeticPosition, sat_pos: np.ndarray,
                      index=None):
    """Elevation [-pi/2, pi/2] and azimuth [0, 2*pi) of satellites.

    `sat_pos` is one ECEF position (3,), which gives two floats, or an
    (n, 3) array of them, which gives two (n,) arrays. `receiver` is one
    position of floats, or one of (n,) arrays: one receiver per
    satellite. With `index`, (m,) receivers, satellite k seen from
    receiver `index[k]`, each one's position and rotation computed once.
    """
    origin, rotation = geodetic_to_ecef(receiver), enu_rotation(receiver)
    if index is not None:
        origin, rotation = origin[index], rotation[index]
    delta = np.asarray(sat_pos, dtype=float) - origin
    # one 3x3 product per satellite: the same arithmetic for one or many
    enu = np.matmul(rotation, delta[..., None])[..., 0]
    horizontal = np.hypot(enu[..., 0], enu[..., 1])
    elevation = np.arctan2(enu[..., 2], horizontal)
    # the remainder adds 2*pi to a negative arctan2 and leaves the rest
    azimuth = np.arctan2(enu[..., 0], enu[..., 1]) % (2.0 * np.pi)
    return elevation, azimuth
