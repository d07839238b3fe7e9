"""Tests for the SSD configuration."""

from dataclasses import FrozenInstanceError, asdict, replace

import pytest

from repro.ftl.config import NandTiming, SsdConfig
from repro.errors import ConfigurationError


class TestTiming:
    def test_paper_table6_defaults(self):
        timing = NandTiming()
        assert timing.read_us == 90.0
        assert timing.program_us == 1000.0
        assert timing.erase_us == 3000.0

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            NandTiming(read_us=0.0)
        with pytest.raises(ConfigurationError):
            NandTiming(buffer_hit_us=-1.0)


class TestSsdConfig:
    def test_capacity_arithmetic(self):
        config = SsdConfig(n_blocks=100, pages_per_block=64)
        assert config.physical_pages == 6400
        assert config.logical_pages == int(6400 / 1.27)
        assert config.logical_capacity_bytes == config.logical_pages * config.page_size_bytes

    def test_paper_block_geometry(self):
        """Paper Table 6: 1 MB blocks of 16 KB pages = 64 pages/block."""
        config = SsdConfig()
        assert config.pages_per_block * config.page_size_bytes == 1 << 20

    def test_reduced_pages_per_block(self):
        config = SsdConfig(pages_per_block=64)
        assert config.reduced_pages_per_block == 48

    def test_zero_op_allows_full_mapping(self):
        config = SsdConfig(n_blocks=64, pages_per_block=16, over_provisioning=0.0)
        assert config.logical_pages == config.physical_pages

    def test_rejects_bad_op(self):
        with pytest.raises(ConfigurationError):
            SsdConfig(over_provisioning=1.0)
        with pytest.raises(ConfigurationError):
            SsdConfig(over_provisioning=-0.1)

    def test_rejects_bad_reduced_factor(self):
        with pytest.raises(ConfigurationError):
            SsdConfig(reduced_capacity_factor=0.0)
        with pytest.raises(ConfigurationError):
            SsdConfig(reduced_capacity_factor=1.5)

    def test_rejects_gc_threshold_extremes(self):
        with pytest.raises(ConfigurationError):
            SsdConfig(gc_free_block_threshold=0)
        with pytest.raises(ConfigurationError):
            SsdConfig(n_blocks=10, gc_free_block_threshold=5)

    def test_logical_pages_is_cached_outside_the_fields(self):
        config = SsdConfig(n_blocks=100, pages_per_block=64)
        fresh = SsdConfig(n_blocks=100, pages_per_block=64)
        assert config.logical_pages == int(6400 / 1.27)
        assert config.__dict__["logical_pages"] == config.logical_pages
        assert config == fresh and hash(config) == hash(fresh)
        assert asdict(config) == asdict(fresh)
        with pytest.raises(FrozenInstanceError):
            config.logical_pages = 1
        assert replace(config, n_blocks=200).logical_pages == int(12800 / 1.27)
