"""Geometric computations: WGS-84 transforms, ENU frames, line of sight."""

from __future__ import annotations

import numpy as np

from .constants import CLIGHT, OMGE, WGS84_A, WGS84_E2
from .errors import DegenerateGeometry, NearSingular
from .types import GeodeticPosition, SatelliteState


def geodetic_to_ecef(pos: GeodeticPosition) -> np.ndarray:
    """WGS-84 geodetic coordinates to ECEF meters."""
    sin_lat = np.sin(pos.latitude)
    cos_lat = np.cos(pos.latitude)
    n = WGS84_A / np.sqrt(1.0 - WGS84_E2 * sin_lat ** 2)
    return np.array([
        (n + pos.height) * cos_lat * np.cos(pos.longitude),
        (n + pos.height) * cos_lat * np.sin(pos.longitude),
        (n * (1.0 - WGS84_E2) + pos.height) * sin_lat,
    ])


def ecef_to_geodetic(pos: np.ndarray) -> GeodeticPosition:
    """ECEF meters to WGS-84 geodetic, iterative latitude solution."""
    pos = np.asarray(pos, dtype=float)
    r = np.linalg.norm(pos)
    if r <= 1e6:
        raise NearSingular(f"position norm {r:.0f} m below geodetic threshold")
    p = np.hypot(pos[0], pos[1])
    lon = 0.0 if p < 1e-9 else np.arctan2(pos[1], pos[0])
    lat = np.arctan2(pos[2], p * (1.0 - WGS84_E2))
    for _ in range(10):
        sin_lat = np.sin(lat)
        n = WGS84_A / np.sqrt(1.0 - WGS84_E2 * sin_lat ** 2)
        h = p / np.cos(lat) - n if p > 1e-9 else abs(pos[2]) - n * (1.0 - WGS84_E2)
        lat_new = np.arctan2(pos[2], p * (1.0 - WGS84_E2 * n / (n + h)))
        if abs(lat_new - lat) < 1e-14:
            lat = lat_new
            break
        lat = lat_new
    sin_lat = np.sin(lat)
    n = WGS84_A / np.sqrt(1.0 - WGS84_E2 * sin_lat ** 2)
    if p > 1e-9:
        h = p / np.cos(lat) - n
    else:
        h = abs(pos[2]) - n * (1.0 - WGS84_E2)
    return GeodeticPosition(lat, lon, h)


def enu_rotation(origin: GeodeticPosition) -> np.ndarray:
    """Rotation matrix mapping ECEF deltas to local East-North-Up."""
    sl, cl = np.sin(origin.latitude), np.cos(origin.latitude)
    so, co = np.sin(origin.longitude), np.cos(origin.longitude)
    return np.array([
        [-so, co, 0.0],
        [-sl * co, -sl * so, cl],
        [cl * co, cl * so, sl],
    ])


def ecef_to_enu(origin: GeodeticPosition, point: np.ndarray) -> np.ndarray:
    """ECEF point to ENU meters relative to the origin."""
    delta = np.asarray(point, dtype=float) - geodetic_to_ecef(origin)
    return enu_rotation(origin) @ delta


def line_of_sight(receiver: np.ndarray, sat: SatelliteState) -> tuple[np.ndarray, float]:
    """Unit vector receiver->satellite and Sagnac-corrected range.

    The satellite position is rotated by OMGE * range/c about the earth
    axis to account for earth rotation during signal flight.
    """
    receiver = np.asarray(receiver, dtype=float)
    rho = float(np.linalg.norm(sat.position - receiver))
    if rho < 1e6:
        raise DegenerateGeometry(f"satellite range {rho:.0f} m implausible")
    theta = OMGE * rho / CLIGHT
    c, s = np.cos(theta), np.sin(theta)
    rotated = np.array([
        c * sat.position[0] + s * sat.position[1],
        -s * sat.position[0] + c * sat.position[1],
        sat.position[2],
    ])
    delta = rotated - receiver
    rng = float(np.linalg.norm(delta))
    return delta / rng, rng


def lines_of_sight(receiver: np.ndarray,
                   positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`line_of_sight` for an (n, 3) array of satellite positions, seen
    from one receiver position (3,) or from one each (n, 3).

    Returns (n, 3) unit vectors receiver->satellite and the (n,)
    Sagnac-corrected ranges.
    """
    receiver = np.asarray(receiver, dtype=float)
    check_ranges(_row_norms(positions - receiver))
    unit, rng, _ = unchecked_lines_of_sight(receiver, positions)
    return unit, rng


def unchecked_lines_of_sight(receiver: np.ndarray, positions: np.ndarray):
    """`lines_of_sight` without its range check, for a caller that
    checks only some satellites: also returns the (n,) distances
    before the Sagnac rotation, which `check_ranges` takes. Any leading
    axes of `positions` (..., 3) broadcast against `receiver`."""
    receiver = np.asarray(receiver, dtype=float)
    distance = _row_norms(positions - receiver)
    theta = OMGE * distance / CLIGHT
    c, s = np.cos(theta), np.sin(theta)
    rotated = np.array(positions, dtype=float)
    rotated[..., 0] = c * positions[..., 0] + s * positions[..., 1]
    rotated[..., 1] = -s * positions[..., 0] + c * positions[..., 1]
    delta = rotated - receiver
    rng = _row_norms(delta)
    return delta / rng[..., None], rng, distance


def check_ranges(distance: np.ndarray) -> None:
    """Raise DegenerateGeometry for a satellite closer than 1000 km."""
    if (distance < 1e6).any():
        raise DegenerateGeometry(
            f"satellite range {distance.min():.0f} m implausible")


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, as `np.linalg.norm(a, axis=-1)`."""
    return np.sqrt((a * a).sum(axis=-1))


def elevation_azimuth(receiver: GeodeticPosition, sat_pos: np.ndarray):
    """Elevation [-pi/2, pi/2] and azimuth [0, 2*pi) of satellites.

    `sat_pos` is one ECEF position (3,), which gives two floats, or an
    (n, 3) array of them, which gives two (n,) arrays.
    """
    delta = np.asarray(sat_pos, dtype=float) - geodetic_to_ecef(receiver)
    # one 3x3 product per satellite: the same arithmetic for one or many
    enu = np.matmul(enu_rotation(receiver), delta[..., None])[..., 0]
    horizontal = np.hypot(enu[..., 0], enu[..., 1])
    elevation = np.arctan2(enu[..., 2], horizontal)
    # the remainder adds 2*pi to a negative arctan2 and leaves the rest
    azimuth = np.arctan2(enu[..., 0], enu[..., 1]) % (2.0 * np.pi)
    return elevation, azimuth
