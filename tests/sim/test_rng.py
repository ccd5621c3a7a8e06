"""Deterministic RNG behaviour."""

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import DeterministicRng


def test_same_seed_same_stream():
    a = DeterministicRng(42)
    b = DeterministicRng(42)
    assert [a.randint(0, 100) for _ in range(20)] == \
           [b.randint(0, 100) for _ in range(20)]


def test_different_seeds_differ():
    a = DeterministicRng(1)
    b = DeterministicRng(2)
    assert [a.randint(0, 10**9) for _ in range(5)] != \
           [b.randint(0, 10**9) for _ in range(5)]


def test_fork_is_deterministic():
    a = DeterministicRng(7).fork("guest")
    b = DeterministicRng(7).fork("guest")
    assert a.randint(0, 10**9) == b.randint(0, 10**9)


def test_fork_seed_is_stable_across_interpreters():
    """Fork derivation must not use hash(): string hashing is salted
    per process, so a hash-derived child seed would give every
    interpreter launch a different schedule.  Pin the exact value."""
    assert DeterministicRng(7).fork("guest").seed == 98374863


def _forked_random(seed: int, label: str) -> random.Random:
    """Reference fork: the child stream derived from scratch, the way
    forking has derived it since seeds were first pinned."""
    digest = hashlib.sha256(f"{seed}\x00{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:4], "big") & 0x7FFFFFFF)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63),
       label=st.text(max_size=40))
def test_keyed_draws_equal_forked_draws(seed, label):
    """``keyed`` skips the parent stream but yields the identical child,
    so switching a call site to it keeps every cached result valid."""
    keyed = DeterministicRng.keyed(seed, label)
    forked = DeterministicRng(seed).fork(label)
    reference = _forked_random(seed, label)
    assert keyed.seed == forked.seed
    draws = [(keyed.uniform(0.0, 1.0), keyed.chance(0.5),
              keyed.randint(0, 10**9)) for _ in range(3)]
    assert draws == [(forked.uniform(0.0, 1.0), forked.chance(0.5),
                      forked.randint(0, 10**9)) for _ in range(3)]
    assert draws == [(reference.uniform(0.0, 1.0),
                      reference.random() < 0.5,
                      reference.randint(0, 10**9)) for _ in range(3)]


def test_fork_labels_independent():
    a = DeterministicRng(7).fork("guest")
    b = DeterministicRng(7).fork("host")
    assert [a.randint(0, 10**9) for _ in range(5)] != \
           [b.randint(0, 10**9) for _ in range(5)]


def test_fork_does_not_disturb_parent():
    parent = DeterministicRng(7)
    first = parent.randint(0, 10**9)
    parent2 = DeterministicRng(7)
    parent2.fork("child")
    assert parent2.randint(0, 10**9) == first


def test_uniform_range():
    rng = DeterministicRng(3)
    for _ in range(100):
        value = rng.uniform(2.0, 5.0)
        assert 2.0 <= value < 5.0


def test_chance_extremes():
    rng = DeterministicRng(3)
    assert not any(rng.chance(0.0) for _ in range(50))
    assert all(rng.chance(1.0) for _ in range(50))


def test_choice_and_sample():
    rng = DeterministicRng(3)
    items = list(range(10))
    assert rng.choice(items) in items
    sample = rng.sample(items, 4)
    assert len(sample) == 4
    assert len(set(sample)) == 4


def test_shuffle_preserves_elements():
    rng = DeterministicRng(3)
    items = list(range(20))
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
