import pytest

from gnssgraph.types import CONSTELLATIONS, Constellation, SatelliteId


class TestSatelliteIdHash:
    def test_equal_ids_hash_equal(self):
        for const in CONSTELLATIONS:
            for prn in (1, 17, 64):
                a, b = SatelliteId(const, prn), SatelliteId(const, prn)
                assert a == b and a is not b
                assert hash(a) == hash(b)
                assert {a: 1}[b] == 1

    def test_same_prn_in_two_constellations_is_two_keys(self):
        keys = {SatelliteId(const, 5): const for const in CONSTELLATIONS}
        assert len(keys) == len(CONSTELLATIONS)
        assert keys[SatelliteId(Constellation.GAL, 5)] is Constellation.GAL
        assert SatelliteId(Constellation.GPS, 5) != SatelliteId(
            Constellation.BDS, 5)
        assert SatelliteId(Constellation.GPS, 5) != SatelliteId(
            Constellation.GPS, 6)

    def test_sort_key_and_parse_unchanged(self):
        sat = SatelliteId.parse("E07")
        assert sat == SatelliteId(Constellation.GAL, 7)
        assert sat.sort_key() == (2, 7)
        assert str(sat) == "E07"
        with pytest.raises(ValueError):
            SatelliteId(Constellation.GPS, 0)
