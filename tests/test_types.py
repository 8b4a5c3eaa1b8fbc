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


class TestSatelliteKey:
    def test_every_key_names_its_satellite(self):
        for const in CONSTELLATIONS:
            for prn in (1, 17, 64):
                sat = SatelliteId(const, prn)
                assert SatelliteId.from_key(sat.key) == sat
                assert SatelliteId.name_of(sat.key) == str(sat)
        assert SatelliteId.name_of(207) == "E07"

    @pytest.mark.parametrize("key", [-150, -1, 400, 450])
    def test_key_outside_the_constellations_is_value_error(self, key):
        """A negative key does not wrap round to another constellation
        (-150 is not E50), and one past the last is no IndexError."""
        for function in (SatelliteId.from_key, SatelliteId.name_of):
            with pytest.raises(ValueError, match="key out of range"):
                function(key)

    @pytest.mark.parametrize("key", [0, 100, 165, 399])
    def test_key_of_no_prn_is_value_error(self, key):
        with pytest.raises(ValueError, match="prn out of range"):
            SatelliteId.from_key(key)
