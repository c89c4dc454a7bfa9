"""Tests for repro.common.units."""

from repro.common.units import GB, KIB, MB


class TestUnitsConstants:
    def test_decimal_units(self):
        assert MB == 1000 * 1000
        assert GB == 1000 * MB

    def test_binary_units(self):
        assert KIB == 1024
