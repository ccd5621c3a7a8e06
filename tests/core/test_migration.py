"""Live-migration planner (paper Section 7 extension)."""

import pytest

from repro.config import VSwapperConfig
from repro.core.mapper import METADATA_BYTES_PER_PAGE
from repro.core.migration import MigrationPlan, MigrationPlanner
from repro.guest.kernel import Transfer
from repro.mem.page import AnonContent
from repro.units import PAGE_SIZE
from tests.conftest import small_vm_config


def test_empty_vm_plans_zero(vm):
    plan = MigrationPlanner().plan(vm)
    assert plan.baseline_bytes == 0
    assert plan.vswapper_bytes == 0
    assert plan.savings_fraction == 0.0


def test_private_pages_counted_in_both(host, vm):
    for i in range(10):
        host.hypervisor.touch_page(vm, 0x100 + i, write=True)
    plan = MigrationPlanner().plan(vm)
    assert plan.private_pages == 10
    assert plan.baseline_bytes == 10 * PAGE_SIZE
    assert plan.vswapper_bytes == 10 * PAGE_SIZE


def test_zero_pages_skipped(host, vm):
    for i in range(10):
        host.hypervisor.touch_page(vm, 0x100 + i, write=False)
    plan = MigrationPlanner().plan(vm)
    assert plan.zero_pages == 10
    assert plan.baseline_bytes == 0


def test_mapped_pages_become_references(cluster, host):
    vm = cluster.create_vm(small_vm_config(
        vswapper=VSwapperConfig.mapper_only()))
    host.hypervisor.virtio_read(
        vm, [Transfer(100 + i, 0x100 + i) for i in range(20)])
    plan = MigrationPlanner().plan(vm)
    assert plan.mapped_pages == 20
    assert plan.baseline_bytes == 20 * PAGE_SIZE
    assert plan.vswapper_bytes == 20 * METADATA_BYTES_PER_PAGE
    assert plan.savings_fraction > 0.9


def test_discarded_pages_cost_references_only(cluster, host):
    vm = cluster.create_vm(small_vm_config(
        vswapper=VSwapperConfig.mapper_only(), resident_limit_mib=4))
    host.hypervisor.virtio_read(
        vm, [Transfer(100 + i, 0x100 + i) for i in range(2048)])
    plan = MigrationPlanner().plan(vm)
    assert plan.discarded_pages > 0
    assert plan.vswapper_bytes < plan.baseline_bytes


def test_swapped_private_pages_cost_full_both_ways(host, tight_vm):
    for i in range(2048):
        host.hypervisor.touch_page(tight_vm, 0x100 + i, write=True)
    plan = MigrationPlanner().plan(tight_vm)
    assert plan.swapped_private_pages > 0
    assert plan.baseline_bytes == plan.vswapper_bytes  # no mapper


def test_plan_dataclass_math():
    plan = MigrationPlan(
        private_pages=10, mapped_pages=100, discarded_pages=50,
        swapped_private_pages=5, zero_pages=3)
    assert plan.baseline_bytes == 165 * PAGE_SIZE
    assert plan.vswapper_bytes == (
        15 * PAGE_SIZE + 150 * METADATA_BYTES_PER_PAGE)
    assert 0 < plan.savings_fraction < 1


def test_study_experiment_runs():
    from repro.experiments.registry import run_experiment
    result = run_experiment("migration-study", scale=16)
    rows = result.series
    assert rows["vswapper"]["savings"] > 0.5
    assert rows["baseline"]["savings"] == pytest.approx(0.0)
    assert "migration" in result.rendered.lower()
