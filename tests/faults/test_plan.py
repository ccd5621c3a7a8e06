"""FaultPlan determinism, the circuit breaker, and config validation."""

import pytest

from repro.config import FaultConfig
from repro.errors import ConfigError
from repro.faults.breaker import CircuitBreaker
from repro.faults.plan import FaultPlan
from repro.sim.rng import DeterministicRng


def make_plan(seed=7, **overrides):
    defaults = dict(enabled=True, disk_transient_error_rate=0.3,
                    disk_latency_spike_rate=0.2,
                    swap_read_error_rate=0.3,
                    mapper_invalidation_rate=0.3)
    defaults.update(overrides)
    return FaultPlan(FaultConfig(**defaults), DeterministicRng(seed))


def test_same_seed_same_schedule():
    a = make_plan(seed=11)
    b = make_plan(seed=11)
    draws_a = [(a.disk_transient_error(), a.swap_read_failure(),
                a.mapper_invalidation()) for _ in range(100)]
    draws_b = [(b.disk_transient_error(), b.swap_read_failure(),
                b.mapper_invalidation()) for _ in range(100)]
    assert draws_a == draws_b


def test_different_seeds_diverge():
    a = make_plan(seed=11)
    b = make_plan(seed=12)
    draws_a = [a.disk_transient_error() for _ in range(100)]
    draws_b = [b.disk_transient_error() for _ in range(100)]
    assert draws_a != draws_b


def test_layers_draw_from_independent_substreams():
    """Consuming one layer's stream must not shift another's."""
    a = make_plan(seed=11)
    b = make_plan(seed=11)
    for _ in range(50):
        a.disk_transient_error()  # only a consumes the disk stream
    draws_a = [a.swap_read_failure() for _ in range(50)]
    draws_b = [b.swap_read_failure() for _ in range(50)]
    assert draws_a == draws_b


def test_disabled_plan_never_faults():
    plan = make_plan(enabled=False, disk_transient_error_rate=1.0,
                     disk_latency_spike_rate=1.0,
                     disk_torn_write_rate=1.0,
                     swap_read_error_rate=1.0,
                     swap_slot_corruption_rate=1.0,
                     mapper_invalidation_rate=1.0)
    assert not plan.enabled
    assert not plan.disk_transient_error()
    assert plan.disk_latency_spike() == 0.0
    assert not plan.disk_torn_write()
    assert not plan.swap_read_failure()
    assert not plan.swap_slot_corrupted()
    assert not plan.mapper_invalidation()


def test_chaos_preset_is_valid_and_enabled():
    cfg = FaultConfig.chaos()
    cfg.validate()
    assert cfg.enabled
    assert cfg.watchdog_max_events is not None


def test_config_rejects_bad_rates():
    with pytest.raises(ConfigError):
        FaultConfig(disk_transient_error_rate=1.5).validate()
    with pytest.raises(ConfigError):
        FaultConfig(max_retries=-1).validate()
    with pytest.raises(ConfigError):
        FaultConfig(backoff_factor=0.5).validate()
    with pytest.raises(ConfigError):
        FaultConfig(mapper_breaker_threshold=0).validate()
    with pytest.raises(ConfigError):
        FaultConfig(watchdog_max_events=0).validate()


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------

def test_breaker_trips_once_at_threshold():
    breaker = CircuitBreaker(3)
    assert not breaker.record()
    assert not breaker.record()
    assert breaker.record()       # the trip
    assert breaker.tripped
    assert not breaker.record()   # already open: no second trip
    assert breaker.count == 4


def test_breaker_rejects_bad_threshold():
    with pytest.raises(ValueError):
        CircuitBreaker(0)


def test_plan_builds_breakers_at_configured_threshold():
    plan = make_plan(mapper_breaker_threshold=5)
    breaker = plan.new_breaker()
    assert breaker.threshold == 5
    assert not breaker.tripped


# ----------------------------------------------------------------------
# store fault config
# ----------------------------------------------------------------------

def test_store_fault_config_validates_rates_and_bounds():
    from repro.faults.plan import StoreFaultConfig, StoreFaultPoint

    StoreFaultConfig().validate()
    StoreFaultConfig.chaos(rate=1.0).validate()
    with pytest.raises(ConfigError):
        StoreFaultConfig(enabled=True, torn_write_rate=1.5).validate()
    with pytest.raises(ConfigError):
        StoreFaultConfig(enabled=True,
                         crash_before_rename_rate=-0.1).validate()
    with pytest.raises(ConfigError):
        StoreFaultConfig(enabled=True, lock_stall_seconds=-1.0).validate()
    with pytest.raises(ConfigError):
        StoreFaultConfig(enabled=True, max_strikes=0).validate()
    # Every crash point maps to exactly one configured rate.
    config = StoreFaultConfig.chaos(rate=0.125)
    assert {config.rate_for(point) for point in StoreFaultPoint} == {0.125}
