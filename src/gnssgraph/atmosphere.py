"""Ionospheric (Klobuchar) and tropospheric (Saastamoinen) delay models.

Both models are used twice: to correct pseudoranges in the estimators and
to synthesize measurements in the simulator, so the two stay consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import CLIGHT
from .coords import scalar_pow
from .errors import ElevationTooLow
from .types import Checked, GeodeticPosition, setting


@dataclass(frozen=True)
class KlobucharParams(Checked):
    """Eight broadcast coefficients; all-zero degrades to the nighttime constant."""

    alpha: tuple = setting((0.0, 0.0, 0.0, 0.0), length=4, required=True)
    beta: tuple = setting((0.0, 0.0, 0.0, 0.0), length=4, required=True)

    @staticmethod
    def typical() -> "KlobucharParams":
        # representative mid-solar-cycle broadcast values
        return KlobucharParams(
            alpha=(0.1118e-7, -0.7451e-8, -0.5961e-7, 0.1192e-6),
            beta=(0.1167e6, -0.2294e6, -0.1311e6, 0.1049e7),
        )


@dataclass(frozen=True)
class TropoModel(Checked):
    """Saastamoinen with sea-level meteorological parameters."""

    pressure: float = setting(1013.25, 500.0, 1200.0)      # [hPa]
    temperature: float = setting(288.15, 180.0, 340.0)     # [K]
    humidity: float = setting(0.5, 0.0, 1.0)               # fraction


def klobuchar_delay(params: KlobucharParams, tow,
                    user: GeodeticPosition, elevation, azimuth):
    """L1 ionospheric group delay in meters (ICD-GPS-200 formulation).

    `elevation` and `azimuth` are floats or equal-shape arrays of
    satellites; the delay has their shape. `tow` [s of GPS week] and
    `user` are one receiver's time and position, or arrays of that
    shape: one receiver per satellite.
    """
    if (np.asarray(elevation) < 0.0).any():
        raise ValueError("elevation must be non-negative")
    el = elevation / np.pi          # semicircles
    lat = user.latitude / np.pi
    lon = user.longitude / np.pi

    psi = 0.0137 / (el + 0.11) - 0.022
    phi_i = lat + psi * np.cos(azimuth)
    phi_i = np.minimum(np.maximum(phi_i, -0.416), 0.416)
    lam_i = lon + psi * np.sin(azimuth) / np.cos(phi_i * np.pi)
    phi_m = phi_i + 0.064 * np.cos((lam_i - 1.617) * np.pi)
    t = 4.32e4 * lam_i + tow
    t -= np.floor(t / 86400.0) * 86400.0

    # powers are products: numpy's array power rounds a cube otherwise
    # than Python's float power, and leaves its vector loop for a
    # negative base (phi_m and x are negative in places)
    d = 0.53 - el
    f = 1.0 + 16.0 * (d * d * d)
    phi_m2 = phi_m * phi_m
    powers = (1.0, phi_m, phi_m2, phi_m2 * phi_m)
    amp = sum(a * p for a, p in zip(params.alpha, powers))
    per = sum(b * p for b, p in zip(params.beta, powers))
    amp = np.maximum(amp, 0.0)
    per = np.maximum(per, 72000.0)
    x = 2.0 * np.pi * (t - 50400.0) / per
    # the cosine term exists only inside |x| < 1.57
    day = np.abs(x) < 1.57
    x2 = x * x
    delay = f * (5e-9 + day * amp * (1.0 - x2 / 2.0 + x2 * x2 / 24.0))
    return CLIGHT * delay


# Saastamoinen's 1/cos(z) mapping holds above this elevation
MIN_ELEVATION = np.radians(1.0)


def saastamoinen_delay(model: TropoModel, user: GeodeticPosition, elevation,
                       index=None):
    """Tropospheric delay in meters with 1/cos(z) mapping.

    `elevation` is a float or an array of satellites; the delay has its
    shape. `user` is one receiver, or one of arrays of that shape: one
    receiver per satellite; with `index`, (m,) receivers, satellite k
    seen from receiver `index[k]`, each one's zenith delays computed
    once. Pressure/temperature are scaled from the
    model's sea-level values to the user height with the
    standard-atmosphere profile.
    """
    if (np.asarray(elevation) <= MIN_ELEVATION).any():
        lowest = np.degrees(np.min(elevation))
        raise ElevationTooLow(f"elevation {lowest:.2f} deg below 1 deg")
    h = np.minimum(np.maximum(user.height, 0.0), 11000.0)
    pres = model.pressure * scalar_pow(1.0 - 2.2557e-5 * h, 5.2568)
    temp = model.temperature - 6.5e-3 * h
    e = 6.108 * model.humidity * np.exp((17.15 * temp - 4684.0) / (temp - 38.45))
    dry = 0.0022768 * pres / (
        1.0 - 0.00266 * np.cos(2.0 * user.latitude) - 0.00028e-3 * h)
    wet = 0.002277 * (1255.0 / temp + 0.05) * e
    if index is not None:
        dry, wet = dry[index], wet[index]
    cos_z = np.cos(np.pi / 2.0 - elevation)
    return dry / cos_z + wet / cos_z
