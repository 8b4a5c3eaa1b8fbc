import numpy as np
import pytest

from gnssgraph.constants import CLIGHT, OMGE, WGS84_A, WGS84_B, WGS84_E2
from gnssgraph.coords import (ecef_to_enu, ecef_to_geodetic, elevation_azimuth,
                              enu_rotation, geodetic_to_ecef, line_of_sight)
from gnssgraph.errors import DegenerateGeometry, NearSingular
from gnssgraph.gnsstime import GpsTime
from gnssgraph.types import GeodeticPosition


class TestGeodeticToEcef:
    def test_equator(self):
        p = geodetic_to_ecef(GeodeticPosition(0.0, 0.0, 0.0))
        assert np.allclose(p, [WGS84_A, 0.0, 0.0], atol=1e-9)

    def test_pole(self):
        p = geodetic_to_ecef(GeodeticPosition(np.pi / 2, 0.0, 0.0))
        assert np.allclose(p, [0.0, 0.0, WGS84_B], atol=1e-6)

    def test_hand_evaluated_case(self):
        # independent closed-form evaluation for lat 35 deg, lon 140 deg, h 35 m
        lat, lon, h = np.radians(35.0), np.radians(140.0), 35.0
        n = WGS84_A / np.sqrt(1.0 - WGS84_E2 * np.sin(lat) ** 2)
        expected = np.array([
            (n + h) * np.cos(lat) * np.cos(lon),
            (n + h) * np.cos(lat) * np.sin(lon),
            (n * (1 - WGS84_E2) + h) * np.sin(lat),
        ])
        got = geodetic_to_ecef(GeodeticPosition(lat, lon, h))
        assert np.allclose(got, expected, atol=1e-9)


class TestEcefToGeodetic:
    def test_equator_inverse(self):
        g = ecef_to_geodetic(np.array([WGS84_A, 0.0, 0.0]))
        assert abs(g.latitude) < 1e-12
        assert abs(g.longitude) < 1e-12
        assert abs(g.height) < 1e-7

    def test_pole_longitude_convention(self):
        g = ecef_to_geodetic(np.array([0.0, 0.0, WGS84_B]))
        assert abs(g.latitude - np.pi / 2) < 1e-9
        assert g.longitude == 0.0
        assert abs(g.height) < 1e-6

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            lat = rng.uniform(-np.pi / 2, np.pi / 2)
            lon = rng.uniform(-np.pi, np.pi)
            h = rng.uniform(-1000.0, 50000.0)
            p = GeodeticPosition(lat, lon, h)
            q = ecef_to_geodetic(geodetic_to_ecef(p))
            assert abs(q.latitude - lat) < 1e-9
            assert abs(q.height - h) < 1e-6
            if abs(abs(lat) - np.pi / 2) > 1e-6:
                dlon = (q.longitude - lon + np.pi) % (2 * np.pi) - np.pi
                assert abs(dlon) < 1e-9

    def test_near_center_rejected(self):
        with pytest.raises(NearSingular):
            ecef_to_geodetic(np.array([1000.0, 0.0, 0.0]))


class TestEcefToEnu:
    def test_origin_maps_to_zero(self):
        origin = GeodeticPosition(np.radians(35.0), np.radians(140.0), 35.0)
        assert np.allclose(ecef_to_enu(origin, geodetic_to_ecef(origin)), 0.0,
                           atol=1e-9)

    def test_radial_offset_is_up(self):
        # 100 m along the ellipsoid normal is pure up
        origin = GeodeticPosition(np.radians(40.0), np.radians(-75.0), 0.0)
        raised = GeodeticPosition(origin.latitude, origin.longitude, 100.0)
        enu = ecef_to_enu(origin, geodetic_to_ecef(raised))
        assert np.allclose(enu, [0.0, 0.0, 100.0], atol=1e-6)

    def test_isometry(self):
        rng = np.random.default_rng(11)
        origin = GeodeticPosition(np.radians(35.0), np.radians(140.0), 0.0)
        for _ in range(100):
            p = rng.uniform(-1e7, 1e7, 3)
            q = rng.uniform(-1e7, 1e7, 3)
            d_ecef = np.linalg.norm(p - q)
            d_enu = np.linalg.norm(ecef_to_enu(origin, p) - ecef_to_enu(origin, q))
            assert abs(d_enu - d_ecef) < 1e-9 * max(d_ecef, 1.0)

    def test_rotation_orthonormal(self):
        r = enu_rotation(GeodeticPosition(0.3, -2.1, 0.0))
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-14)


class TestLineOfSight:
    def test_collinear(self):
        rec = np.array([WGS84_A, 0.0, 0.0])
        unit, rng_m = line_of_sight(rec, [WGS84_A + 2.0e7, 0.0, 0.0])
        # Sagnac rotation moves the satellite slightly off-axis
        assert abs(rng_m - 2.0e7) < 50.0
        assert abs(unit[0] - 1.0) < 1e-6

    def test_unit_norm(self):
        rng = np.random.default_rng(3)
        rec = np.array([WGS84_A, 0.0, 0.0])
        for _ in range(1000):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            sat = rec + direction * rng.uniform(1.9e7, 2.6e7)
            unit, _ = line_of_sight(rec, sat)
            assert abs(np.linalg.norm(unit) - 1.0) < 1e-12

    def test_sagnac_against_fixed_point_oracle(self):
        # two-step fixed-point iteration of the transmit-time solution
        rec = np.array([WGS84_A, 0.0, 0.0])
        sat_pos = np.array([WGS84_A + 0.5e7, 1.9e7, 0.5e7])
        _, rng_m = line_of_sight(rec, sat_pos)

        tau = np.linalg.norm(sat_pos - rec) / CLIGHT
        for _ in range(2):
            theta = OMGE * tau * CLIGHT / CLIGHT * 1.0
            theta = OMGE * tau
            c, s = np.cos(theta), np.sin(theta)
            rotated = np.array([c * sat_pos[0] + s * sat_pos[1],
                                -s * sat_pos[0] + c * sat_pos[1], sat_pos[2]])
            tau = np.linalg.norm(rotated - rec) / CLIGHT
        oracle = tau * CLIGHT
        assert abs(rng_m - oracle) < 1e-4

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateGeometry):
            line_of_sight(np.array([WGS84_A, 0.0, 0.0]),
                          [WGS84_A + 100.0, 0.0, 0.0])


class TestElevationAzimuth:
    def test_overhead(self):
        origin = GeodeticPosition(np.radians(35.0), np.radians(140.0), 0.0)
        above = GeodeticPosition(origin.latitude, origin.longitude, 2.0e7)
        el, _ = elevation_azimuth(origin, geodetic_to_ecef(above))
        assert abs(el - np.pi / 2) < 1e-9

    def test_horizon(self):
        origin = GeodeticPosition(0.0, 0.0, 0.0)
        # point in the local horizontal plane (due north along z)
        point = geodetic_to_ecef(origin) + np.array([0.0, 0.0, 1.0e6])
        el, az = elevation_azimuth(origin, point)
        assert abs(el) < 1e-9
        assert abs(az) < 1e-9

    def test_matches_enu_arctangent_oracle(self):
        rng = np.random.default_rng(5)
        origin = GeodeticPosition(np.radians(35.0), np.radians(140.0), 50.0)
        for _ in range(100):
            p = geodetic_to_ecef(origin) + rng.normal(scale=1e7, size=3)
            enu = ecef_to_enu(origin, p)
            el_oracle = np.arctan2(enu[2], np.hypot(enu[0], enu[1]))
            az_oracle = np.arctan2(enu[0], enu[1]) % (2 * np.pi)
            el, az = elevation_azimuth(origin, p)
            assert abs(el - el_oracle) < 1e-12
            assert abs(az - az_oracle) < 1e-12


class TestGpsTime:
    def test_difference_antisymmetric(self):
        a = GpsTime(2200, 100.0)
        b = GpsTime(2201, 50.0)
        assert a - b == -(b - a)
        assert b - a == 604800.0 - 50.0

    def test_transitive(self):
        a, b, c = GpsTime(2200, 0.0), GpsTime(2200, 1e5), GpsTime(2202, 3.5)
        assert abs((c - a) - ((c - b) + (b - a))) < 1e-9

    def test_add_normalizes(self):
        t = GpsTime(2200, 604799.0).add(2.0)
        assert t.week == 2201
        assert abs(t.tow - 1.0) < 1e-9

    def test_tow_range_enforced(self):
        with pytest.raises(ValueError):
            GpsTime(2200, 604800.0)


class TestElevationAzimuthArrays:
    def test_array_matches_scalar_calls_and_oracle(self):
        rng = np.random.default_rng(11)
        origin = GeodeticPosition(np.radians(-33.0), np.radians(151.0), 80.0)
        up = enu_rotation(origin).T @ np.array([0.0, 0.0, 1.0])
        north = enu_rotation(origin).T @ np.array([0.0, 1.0, 0.0])
        east = enu_rotation(origin).T @ np.array([1.0, 0.0, 0.0])
        base = geodetic_to_ecef(origin)
        points = [base + rng.normal(scale=1e7, size=3) for _ in range(40)]
        # azimuth just east and just west of north: the wrap at 0 / 2*pi
        for side in (1e-9, -1e-9, 1e-3, -1e-3):
            points.append(base + 2e7 * (up + north) + 2e7 * side * east)
        points = np.array(points)
        el, az = elevation_azimuth(origin, points)
        assert el.shape == az.shape == (len(points),)
        for k, p in enumerate(points):
            el_k, az_k = elevation_azimuth(origin, p)
            assert el[k] == el_k and az[k] == az_k
            enu = ecef_to_enu(origin, p)
            assert abs(el[k] - np.arctan2(enu[2], np.hypot(enu[0], enu[1]))) < 1e-12
            assert abs(az[k] - np.arctan2(enu[0], enu[1]) % (2 * np.pi)) < 1e-12
        assert np.all((0.0 <= az) & (az < 2 * np.pi))
        assert az[-4] < 1e-6 and az[-2] < 1e-2            # east of north
        assert az[-3] > 2 * np.pi - 1e-6 and az[-1] > 2 * np.pi - 1e-2


def same_bits(a, b) -> bool:
    return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()


class TestPerRowReceivers:
    """One receiver per row gives, bit for bit, what a call per receiver
    gives."""

    # sin(lat) ** 2 by numpy's square and by the C library's pow
    # round apart here, and the difference reaches N
    SQUARE_APART = GeodeticPosition(0.5902723591413954, 0.3, 100.0)

    def sites(self, rng, n):
        return [self.SQUARE_APART] + [
            GeodeticPosition(rng.uniform(-1.5, 1.5), rng.uniform(-3.0, 3.0),
                             rng.uniform(-500.0, 20000.0))
            for _ in range(n)]

    def test_ecef_to_geodetic(self):
        rng = np.random.default_rng(12)
        points = [geodetic_to_ecef(s) for s in self.sites(rng, 2000)]
        # on the polar axis, p < 1e-9: longitude 0, height from z alone
        points += [np.array([0.0, 0.0, WGS84_B + 10.0]),
                   np.array([1e-10, 0.0, -WGS84_B - 5.0])]
        rows = ecef_to_geodetic(np.array(points))
        assert rows.latitude.shape == rows.height.shape == (len(points),)
        for k, p in enumerate(points):
            one = ecef_to_geodetic(p)
            assert same_bits(rows.latitude[k], one.latitude)
            assert same_bits(rows.longitude[k], one.longitude)
            assert same_bits(rows.height[k], one.height)
        assert rows.longitude[-2] == rows.longitude[-1] == 0.0
        assert abs(rows.height[-2] - 10.0) < 1e-6
        assert abs(rows.height[-1] - 5.0) < 1e-6

    def test_one_row_near_the_center_rejects_the_call(self):
        good = geodetic_to_ecef(GeodeticPosition(0.6, 2.4, 50.0))
        with pytest.raises(NearSingular):
            ecef_to_geodetic(np.array([good, [1000.0, 0.0, 0.0], good]))

    def test_elevation_azimuth(self):
        rng = np.random.default_rng(13)
        sites = self.sites(rng, 500)
        per_site = 3
        sats = [geodetic_to_ecef(s)
                + rng.normal(scale=1.5e7, size=(per_site, 3)) for s in sites]
        rows = GeodeticPosition(*(np.repeat([getattr(s, name) for s in sites],
                                            per_site)
                                  for name in ("latitude", "longitude",
                                               "height")))
        el, az = elevation_azimuth(rows, np.concatenate(sats))
        # each site's ECEF position and rotation once, gathered
        by_site = GeodeticPosition(*(np.array([getattr(s, name)
                                               for s in sites])
                                     for name in ("latitude", "longitude",
                                                  "height")))
        el_i, az_i = elevation_azimuth(
            by_site, np.concatenate(sats),
            np.repeat(np.arange(len(sites)), per_site))
        assert same_bits(el_i, el) and same_bits(az_i, az)
        ecef = geodetic_to_ecef(rows)
        for k, (site, positions) in enumerate(zip(sites, sats)):
            el_k, az_k = elevation_azimuth(site, positions)
            own = slice(k * per_site, (k + 1) * per_site)
            assert same_bits(el[own], el_k) and same_bits(az[own], az_k)
            assert same_bits(ecef[own], [geodetic_to_ecef(site)] * per_site)
