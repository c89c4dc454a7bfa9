"""Tests for repro.common.units."""

import pytest

from repro.common.units import GB, KIB, MB, cycles_to_seconds


class TestConversions:
    def test_cycles_to_seconds_at_1ghz(self):
        assert cycles_to_seconds(1_000_000_000, clock_ghz=1.0) == pytest.approx(1.0)

    def test_cycles_to_seconds_at_3_6ghz(self):
        assert cycles_to_seconds(3_600_000_000, clock_ghz=3.6) == pytest.approx(1.0)

    def test_invalid_clock_rejected(self):
        with pytest.raises(ValueError):
            cycles_to_seconds(1, clock_ghz=0)


class TestUnitsConstants:
    def test_decimal_units(self):
        assert MB == 1000 * 1000
        assert GB == 1000 * MB

    def test_binary_units(self):
        assert KIB == 1024
