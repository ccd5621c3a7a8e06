"""Configuration validation and factory helpers."""

import pytest

from repro.config import (
    DiskConfig,
    GuestConfig,
    ClusterConfig,
    HostConfig,
    VmConfig,
    VSwapperConfig,
    scaled_pages,
)
from repro.errors import ConfigError
from repro.units import mib_pages


def test_default_machine_config_validates():
    ClusterConfig().validate()


def test_disk_kind_checked():
    with pytest.raises(ConfigError):
        DiskConfig(kind="floppy").validate()


def test_disk_bandwidth_checked():
    with pytest.raises(ConfigError):
        DiskConfig(bandwidth_bytes_per_sec=0).validate()


def test_host_fraction_bounds():
    with pytest.raises(ConfigError):
        HostConfig(named_fraction=1.2).validate()
    with pytest.raises(ConfigError):
        HostConfig(reclaim_noise=-0.1).validate()
    with pytest.raises(ConfigError):
        HostConfig(code_cache_hit_rate=1.5).validate()


def test_host_positive_sizes():
    with pytest.raises(ConfigError):
        HostConfig(total_memory_pages=0).validate()
    with pytest.raises(ConfigError):
        HostConfig(swap_cluster_pages=0).validate()
    with pytest.raises(ConfigError):
        HostConfig(reclaim_batch_pages=0).validate()


def test_guest_config_bounds():
    with pytest.raises(ConfigError):
        GuestConfig(memory_pages=0).validate()
    with pytest.raises(ConfigError):
        GuestConfig(unaligned_io_fraction=2.0).validate()


def test_guest_derived_watermarks():
    guest = GuestConfig(memory_pages=mib_pages(512))
    assert 0 < guest.derived_free_min < guest.derived_free_target
    explicit = GuestConfig(free_min_pages=10, free_target_pages=20)
    assert explicit.derived_free_min == 10
    assert explicit.derived_free_target == 20


def test_vswapper_factories():
    assert not VSwapperConfig.off().enable_mapper
    assert VSwapperConfig.mapper_only().enable_mapper
    assert not VSwapperConfig.mapper_only().enable_preventer
    full = VSwapperConfig.full()
    assert full.enable_mapper and full.enable_preventer


def test_vswapper_bounds():
    with pytest.raises(ConfigError):
        VSwapperConfig(preventer_window=0).validate()
    with pytest.raises(ConfigError):
        VSwapperConfig(preventer_max_pages=0).validate()


def test_vm_config_image_must_exceed_guest_swap():
    with pytest.raises(ConfigError):
        VmConfig(
            guest=GuestConfig(guest_swap_pages=mib_pages(100)),
            image_size_pages=mib_pages(50),
        ).validate()


def test_scaled_pages():
    assert scaled_pages(1000, 4) == 250
    assert scaled_pages(1, 100) == 1  # floor of one page
    with pytest.raises(ConfigError):
        scaled_pages(100, 0)


def test_configs_are_frozen():
    config = HostConfig()
    with pytest.raises(AttributeError):
        config.total_memory_pages = 1
