"""Deterministic randomness for reproducible simulations.

All stochastic choices in the simulator (workload access jitter, hash
bucket spreads, scheduling noise) must flow through one
:class:`DeterministicRng` seeded from the experiment configuration, so
that every run of an experiment is bit-for-bit repeatable.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A seeded random stream with the handful of draws the models need.

    This thin wrapper around :class:`random.Random` exists so the rest
    of the codebase never touches the global :mod:`random` state, and so
    substreams can be forked per component without correlation.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._random = random.Random(seed)

    @property
    def seed(self) -> int:
        """Seed this stream was created with."""
        return self._seed

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent substream identified by ``label``.

        Forking with the same (seed, label) pair always yields the same
        substream, so components can be created in any order without
        perturbing each other's randomness.  The child seed must not
        come from :func:`hash`: string hashing is salted per process
        (PYTHONHASHSEED), which would make "the same seed" produce a
        different schedule on every interpreter launch.
        """
        return DeterministicRng.keyed(self._seed, label)

    @classmethod
    def keyed(cls, seed: int, label: str) -> "DeterministicRng":
        """The substream ``DeterministicRng(seed).fork(label)`` yields,
        without first building the parent's :class:`random.Random`.

        For draws that are pure in ``(seed, label)`` and made once per
        key (fault decisions, per-slot compression ratios).
        """
        digest = hashlib.sha256(f"{seed}\x00{label}".encode()).digest()
        return cls(int.from_bytes(digest[:4], "big") & 0x7FFFFFFF)

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in ``[lo, hi)``."""
        return self._random.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi]`` inclusive."""
        return self._random.randint(lo, hi)

    def choice(self, seq: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        return self._random.choice(seq)

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        """``k`` distinct elements sampled without replacement."""
        return self._random.sample(seq, k)

    def expovariate(self, rate: float) -> float:
        """Exponentially distributed value with the given rate."""
        return self._random.expovariate(rate)

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        return self._random.random() < probability
