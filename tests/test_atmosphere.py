import numpy as np
import pytest

from gnssgraph.atmosphere import (KlobucharParams, TropoModel, klobuchar_delay,
                                  saastamoinen_delay)
from gnssgraph.constants import CLIGHT
from gnssgraph.errors import ElevationTooLow
from gnssgraph.types import GeodeticPosition

SITE = GeodeticPosition(np.radians(35.0), np.radians(140.0), 50.0)


def klobuchar_oracle(alpha, beta, tow, lat, lon, el, az):
    """Independent scalar evaluation of the broadcast ionosphere model."""
    el_sc = el / np.pi
    psi = 0.0137 / (el_sc + 0.11) - 0.022
    phi = lat / np.pi + psi * np.cos(az)
    phi = np.clip(phi, -0.416, 0.416)
    lam = lon / np.pi + psi * np.sin(az) / np.cos(phi * np.pi)
    phi_m = phi + 0.064 * np.cos((lam - 1.617) * np.pi)
    t = (4.32e4 * lam + tow) % 86400.0
    f = 1.0 + 16.0 * (0.53 - el_sc) ** 3
    amp = max(sum(a * phi_m ** n for n, a in enumerate(alpha)), 0.0)
    per = max(sum(b * phi_m ** n for n, b in enumerate(beta)), 72000.0)
    x = 2.0 * np.pi * (t - 50400.0) / per
    if abs(x) < 1.57:
        return CLIGHT * f * (5e-9 + amp * (1 - x ** 2 / 2 + x ** 4 / 24))
    return CLIGHT * f * 5e-9


class TestKlobuchar:
    def test_zero_coefficients_nighttime_zenith(self):
        # zenith obliquity is ~1.0004, so the night constant dominates
        d = klobuchar_delay(KlobucharParams(), 0.0, SITE,
                            np.pi / 2, 0.0)
        assert abs(d - CLIGHT * 5e-9) < 1e-3
        oracle = klobuchar_oracle((0,) * 4, (0,) * 4, 0.0, SITE.latitude,
                                  SITE.longitude, np.pi / 2, 0.0)
        assert abs(d - oracle) < 1e-9

    def test_obliquity_monotone(self):
        p = KlobucharParams.typical()
        t = 50400.0
        d_high = klobuchar_delay(p, t, SITE, np.pi / 2, 1.0)
        d_low = klobuchar_delay(p, t, SITE, np.radians(15.0), 1.0)
        assert d_low > d_high

    def test_full_worked_case_matches_oracle(self):
        p = KlobucharParams.typical()
        t = 45000.0
        el, az = np.radians(40.0), np.radians(210.0)
        d = klobuchar_delay(p, t, SITE, el, az)
        oracle = klobuchar_oracle(p.alpha, p.beta, 45000.0, SITE.latitude,
                                  SITE.longitude, el, az)
        assert abs(d - oracle) < 1e-4
        assert d > 0.0

    def test_periodic_in_day(self):
        p = KlobucharParams.typical()
        for tow in (1000.0, 30000.0, 60000.0):
            d1 = klobuchar_delay(p, tow, SITE, 0.7, 2.0)
            d2 = klobuchar_delay(p, tow + 86400.0, SITE, 0.7, 2.0)
            assert abs(d1 - d2) < 1e-9

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(2)
        p = KlobucharParams.typical()
        for _ in range(200):
            d = klobuchar_delay(p, rng.uniform(0, 604800), SITE,
                                rng.uniform(0, np.pi / 2),
                                rng.uniform(0, 2 * np.pi))
            assert d >= 0.0


class TestKlobucharArrays:
    def test_array_matches_scalar_calls_and_oracle(self):
        """Both sides of |x| = 1.57 and of the +-0.416 latitude clamp.

        The typical coefficients give no daytime amplitude far south, so
        a flat amplitude makes the clamp visible there too.
        """
        rng = np.random.default_rng(8)
        branches, clamps = set(), set()
        for p, lat_deg in ((KlobucharParams.typical(), 70.0),
                           (KlobucharParams.typical(), 35.0),
                           (KlobucharParams((3e-8, 0.0, 0.0, 0.0),
                                            (1e5, 0.0, 0.0, 0.0)), -70.0)):
            site = GeodeticPosition(np.radians(lat_deg), np.radians(140.0), 50.0)
            for tow in np.linspace(0.0, 86400.0, 25):
                el = rng.uniform(0.0, np.pi / 2, 30)
                az = rng.uniform(0.0, 2 * np.pi, 30)
                t = float(tow)
                delays = klobuchar_delay(p, t, site, el, az)
                assert delays.shape == (30,)
                for k in range(30):
                    scalar = klobuchar_delay(p, t, site, el[k], az[k])
                    oracle = klobuchar_oracle(p.alpha, p.beta, float(tow),
                                              site.latitude, site.longitude,
                                              el[k], az[k])
                    assert same_bits(delays[k], scalar)
                    assert delays[k] == pytest.approx(oracle, rel=1e-12)
                    f = 1.0 + 16.0 * (0.53 - el[k] / np.pi) ** 3
                    branches.add(bool(delays[k] > CLIGHT * f * 5e-9 * (1 + 1e-9)))
                    psi = 0.0137 / (el[k] / np.pi + 0.11) - 0.022
                    phi = site.latitude / np.pi + psi * np.cos(az[k])
                    clamps.add(int(np.sign(phi)) if abs(phi) > 0.416 else 0)
        assert branches == {True, False}
        assert clamps == {-1, 0, 1}

    def test_negative_powers_match_scalar_calls_and_oracle(self):
        """South of the geomagnetic equator before 14:00 local time, where
        phi_m and x are negative and their third and fourth powers are
        formed as products: each satellite of an array call gets the bits
        of a call with it alone, and both agree with the oracle."""
        rng = np.random.default_rng(31)
        p = KlobucharParams((3e-8, 1e-8, -2e-8, 1e-8),
                            (1e5, 1e4, -1e4, 5e4))
        site = GeodeticPosition(np.radians(-45.0), np.radians(140.0), 50.0)
        el = rng.uniform(np.radians(30.0), np.pi / 2, 200)
        az = rng.uniform(0.0, 2 * np.pi, 200)
        tow = 86400.0 + 12000.0         # about 12:40 local time
        # the pierce point's geomagnetic latitude and local time, as the
        # oracle forms them
        psi = 0.0137 / (el / np.pi + 0.11) - 0.022
        phi = np.clip(site.latitude / np.pi + psi * np.cos(az), -0.416, 0.416)
        lam = site.longitude / np.pi + psi * np.sin(az) / np.cos(phi * np.pi)
        phi_m = phi + 0.064 * np.cos((lam - 1.617) * np.pi)
        t = (4.32e4 * lam + tow) % 86400.0
        per = np.polynomial.polynomial.polyval(phi_m, p.beta)
        x = 2.0 * np.pi * (t - 50400.0) / per
        assert (phi_m < 0.0).all() and (x < 0.0).all()
        assert (np.abs(x) < 1.57).all() and (per > 72000.0).all()
        delays = klobuchar_delay(p, tow, site, el, az)
        for k in range(len(el)):
            assert same_bits(delays[k], klobuchar_delay(
                p, tow, site, el[k:k + 1], az[k:k + 1]))
            assert delays[k] == pytest.approx(klobuchar_oracle(
                p.alpha, p.beta, tow, site.latitude, site.longitude,
                el[k], az[k]), rel=1e-12)

    def test_negative_elevation_in_array_rejected(self):
        with pytest.raises(ValueError):
            klobuchar_delay(KlobucharParams.typical(), 0.0,
                            SITE, np.array([0.5, -0.01]), np.array([1.0, 2.0]))


def saastamoinen_oracle(pres, temp, humi, lat, h, el):
    """Independent evaluation of the Saastamoinen closed form."""
    h = min(max(h, 0.0), 11000.0)
    p = pres * (1.0 - 2.2557e-5 * h) ** 5.2568
    t = temp - 6.5e-3 * h
    e = 6.108 * humi * np.exp((17.15 * t - 4684.0) / (t - 38.45))
    cosz = np.cos(np.pi / 2 - el)
    dry = 0.0022768 * p / (1 - 0.00266 * np.cos(2 * lat) - 0.00028e-3 * h) / cosz
    wet = 0.002277 * (1255.0 / t + 0.05) * e / cosz
    return dry + wet


class TestSaastamoinen:
    def test_sea_level_zenith_range(self):
        model = TropoModel()
        d = saastamoinen_delay(model, GeodeticPosition(np.radians(35.0), 0.0, 0.0),
                               np.pi / 2)
        assert 2.2 < d < 2.5
        oracle = saastamoinen_oracle(1013.25, 288.15, 0.5, np.radians(35.0),
                                     0.0, np.pi / 2)
        assert abs(d - oracle) < 1e-9

    def test_height_decay(self):
        model = TropoModel()
        low = saastamoinen_delay(model, GeodeticPosition(0.6, 0.0, 0.0), np.pi / 2)
        high = saastamoinen_delay(model, GeodeticPosition(0.6, 0.0, 10000.0),
                                  np.pi / 2)
        assert high < low

    def test_mapping_close_to_cosecant(self):
        model = TropoModel()
        site = GeodeticPosition(np.radians(35.0), 0.0, 0.0)
        zenith = saastamoinen_delay(model, site, np.pi / 2)
        slanted = saastamoinen_delay(model, site, np.radians(30.0))
        assert abs(slanted - zenith / np.sin(np.radians(30.0))) < 0.1 * slanted

    def test_low_elevation_rejected(self):
        with pytest.raises(ElevationTooLow):
            saastamoinen_delay(TropoModel(), SITE, np.radians(0.5))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            TropoModel(pressure=100.0)
        with pytest.raises(ValueError):
            TropoModel(temperature=500.0)


class TestSaastamoinenArrays:
    def test_array_matches_scalar_calls_and_oracle(self):
        model = TropoModel(pressure=1000.0, temperature=280.0, humidity=0.7)
        for site in (SITE, GeodeticPosition(-0.8, 2.0, 3000.0)):
            els = np.radians(np.linspace(1.01, 90.0, 200))
            delays = saastamoinen_delay(model, site, els)
            assert delays.shape == els.shape
            for e, d in zip(els, delays):
                assert d == pytest.approx(saastamoinen_delay(model, site, e),
                                          rel=1e-14)
                assert d == pytest.approx(saastamoinen_oracle(
                    1000.0, 280.0, 0.7, site.latitude, site.height, e),
                    rel=1e-12)

    def test_one_low_elevation_rejects_the_array(self):
        els = np.radians(np.array([45.0, 30.0, 0.99, 60.0]))
        with pytest.raises(ElevationTooLow):
            saastamoinen_delay(TropoModel(), SITE, els)
        with pytest.raises(ElevationTooLow):
            saastamoinen_delay(TropoModel(), SITE, np.radians(1.0))


class TestCommonProperties:
    def test_monotone_nonincreasing_in_elevation(self):
        model = TropoModel()
        p = KlobucharParams()
        t = 3600.0  # nighttime-local branch is purely obliquity
        els = np.radians(np.linspace(5.0, 90.0, 60))
        tropo = [saastamoinen_delay(model, SITE, e) for e in els]
        iono = [klobuchar_delay(p, t, SITE, e, 1.3) for e in els]
        assert all(np.diff(tropo) <= 1e-12)
        assert all(np.diff(iono) <= 1e-12)

    def test_continuous_in_elevation(self):
        model = TropoModel()
        p = KlobucharParams.typical()
        t = 45000.0
        els = np.radians(np.linspace(2.0, 90.0, 8000))
        tropo = np.array([saastamoinen_delay(model, SITE, e) for e in els])
        iono = np.array([klobuchar_delay(p, t, SITE, e, 0.4) for e in els])
        # no jumps: steps shrink with the grid and are bounded by the local slope
        assert np.max(np.abs(np.diff(tropo))) < 0.5
        assert np.max(np.abs(np.diff(iono))) < 0.05


def same_bits(a, b) -> bool:
    return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()


class TestPerRowReceivers:
    """One receiver per satellite gives, bit for bit, what a call per
    receiver with its satellites gives."""

    PER_SITE = 6

    def rows(self, values):
        """Each receiver's value repeated for its satellites."""
        return np.repeat(values, self.PER_SITE)

    def receivers(self, sites):
        return GeodeticPosition(*(self.rows([getattr(s, name) for s in sites])
                                  for name in ("latitude", "longitude",
                                               "height")))

    def test_klobuchar_with_a_time_per_receiver(self):
        rng = np.random.default_rng(14)
        p = KlobucharParams.typical()
        sites = [GeodeticPosition(rng.uniform(-1.2, 1.2),
                                  rng.uniform(-3.0, 3.0), 50.0)
                 for _ in range(16)]
        # a day of local times: inside and outside the daytime cosine
        tows = np.linspace(0.0, 86400.0, len(sites))
        el = rng.uniform(0.0, np.pi / 2, (len(sites), self.PER_SITE))
        az = rng.uniform(0.0, 2 * np.pi, (len(sites), self.PER_SITE))
        delays = klobuchar_delay(p, self.rows(tows), self.receivers(sites),
                                 el.ravel(), az.ravel())
        night = CLIGHT * 5e-9 * (1.0 + 16.0 * (0.53 - el.ravel() / np.pi) ** 3)
        assert {bool(d) for d in delays > night * (1 + 1e-9)} == {True, False}
        for k, site in enumerate(sites):
            own = slice(k * self.PER_SITE, (k + 1) * self.PER_SITE)
            assert same_bits(delays[own], klobuchar_delay(
                p, float(tows[k]), site, el[k], az[k]))

    def test_saastamoinen_with_clamped_heights(self):
        rng = np.random.default_rng(15)
        model = TropoModel(pressure=1000.0, temperature=280.0, humidity=0.7)
        heights = [-300.0, 0.0, 40.0, 5000.0, 11000.0, 15000.0]
        heights += list(rng.uniform(0.0, 11000.0, 500))
        sites = [GeodeticPosition(0.6, 2.4, h) for h in heights]
        el = rng.uniform(0.05, np.pi / 2, self.PER_SITE)
        delays = saastamoinen_delay(model, self.receivers(sites),
                                    np.tile(el, len(sites)))
        # each site's zenith terms once, gathered for its satellites
        assert same_bits(delays, saastamoinen_delay(
            model, GeodeticPosition(*(np.array([getattr(s, name)
                                                for s in sites])
                                      for name in ("latitude", "longitude",
                                                   "height"))),
            np.tile(el, len(sites)), self.rows(np.arange(len(sites)))))
        by_site = delays.reshape(len(sites), self.PER_SITE)
        for k, site in enumerate(sites):
            assert same_bits(by_site[k], saastamoinen_delay(model, site, el))
        # heights outside [0, 11000] m are clamped to the nearest end
        assert same_bits(by_site[0], by_site[1])
        assert same_bits(by_site[5], by_site[4])
        assert not same_bits(by_site[2], by_site[1])
