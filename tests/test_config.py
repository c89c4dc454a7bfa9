"""Tests for the configuration dataclasses (Table I parameters)."""

import pytest

from repro.common.config import (
    CacheLevelConfig,
    CerealConfig,
    DRAMConfig,
    HostCPUConfig,
    SystemConfig,
)
from repro.common.errors import ConfigError
from repro.common.units import GB, KIB


class TestCacheLevelConfig:
    def test_sets_computed(self):
        level = CacheLevelConfig("L1", 32 * KIB, line_bytes=64, associativity=8)
        assert level.num_sets == 64

    def test_size_must_divide(self):
        with pytest.raises(ConfigError):
            CacheLevelConfig("bad", 100, line_bytes=64)

    def test_positive_size(self):
        with pytest.raises(ConfigError):
            CacheLevelConfig("bad", 0)


class TestHostCPUConfig:
    def test_table_i_defaults(self):
        host = HostCPUConfig()
        assert host.cores == 8
        assert host.clock_ghz == 3.6
        assert host.l1.size_bytes == 32 * KIB
        assert host.l3.size_bytes == 11 * 1024 * KIB

    def test_scaled_caches_shrinks(self):
        host = HostCPUConfig().scaled_caches(100)
        assert host.l3.size_bytes < HostCPUConfig().l3.size_bytes
        assert host.l3.size_bytes >= host.l3.line_bytes * host.l3.associativity

    def test_scaled_caches_keeps_geometry_valid(self):
        for factor in (2, 64, 1024, 10**6):
            host = HostCPUConfig().scaled_caches(factor)
            # Construction revalidates: sets divide evenly.
            assert host.l1.num_sets >= 1
            assert host.l2.num_sets >= 1

    def test_scaled_caches_changes_only_name_and_caches(self):
        host = HostCPUConfig().scaled_caches(64)
        assert host == HostCPUConfig(
            name="Intel i7-7820X (caches/64)",
            l1=CacheLevelConfig("L1D", 512, associativity=8, latency_cycles=4),
            l2=CacheLevelConfig("L2", 16 * KIB, associativity=16, latency_cycles=14),
            l3=CacheLevelConfig("L3", 176 * KIB, associativity=11, latency_cycles=44),
        )

    def test_scaled_caches_bad_factor(self):
        with pytest.raises(ConfigError):
            HostCPUConfig().scaled_caches(0)

    def test_invalid_cores(self):
        with pytest.raises(ConfigError):
            HostCPUConfig(cores=0)


class TestDRAMConfig:
    def test_table_i_peak_bandwidth(self):
        assert DRAMConfig().peak_bandwidth_bytes_per_sec == 76.8 * GB

    def test_invalid_channels(self):
        with pytest.raises(ConfigError):
            DRAMConfig(channels=0)

    def test_negative_latency(self):
        with pytest.raises(ConfigError):
            DRAMConfig(zero_load_latency_ns=-1)


class TestCerealConfig:
    def test_table_i_defaults(self):
        config = CerealConfig()
        assert config.num_serializer_units == 8
        assert config.num_deserializer_units == 8
        assert config.block_reconstructors_per_du == 4
        assert config.max_class_types == 4096

    def test_vanilla_removes_fine_grained_parallelism(self):
        vanilla = CerealConfig().vanilla()
        assert vanilla.pipelined is False
        assert vanilla.block_reconstructors_per_du == 1
        assert vanilla.du_prefetch_depth == 1
        # Operation-level parallelism (unit counts) is retained.
        assert vanilla.num_serializer_units == 8

    def test_vanilla_preserves_coherence_setting(self):
        vanilla = CerealConfig(coherence_extra_read_ns=25.0).vanilla()
        assert vanilla.coherence_extra_read_ns == 25.0

    def test_invalid_unit_counts(self):
        with pytest.raises(ConfigError):
            CerealConfig(num_serializer_units=0)

    def test_block_bytes_alignment(self):
        with pytest.raises(ConfigError):
            CerealConfig(block_bytes=60)

    def test_frozen(self):
        config = CerealConfig()
        with pytest.raises(Exception):
            config.num_serializer_units = 4  # type: ignore[misc]


class TestSystemConfig:
    def test_composes_defaults(self):
        system = SystemConfig()
        assert system.host.name.startswith("Intel")
        assert system.cereal.num_serializer_units == 8
