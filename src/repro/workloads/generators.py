"""Key-distribution generators for workload drivers.

The paper's low-contention experiments use *uniform random keys*; a bounded
Zipf option is provided to explore skew (skewed keys concentrate traffic on
a few nodes and re-introduce contention, which is a useful knob when
studying where leases start to matter in search structures).
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Iterator

from ..structures.workers import set_op


class UniformKeys:
    """Uniform keys over ``range(key_range)``."""

    def __init__(self, key_range: int) -> None:
        if key_range <= 0:
            raise ValueError("key_range must be positive")
        self.key_range = key_range

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.key_range)


class ZipfKeys:
    """Bounded Zipf(s) keys over ``range(key_range)`` via inverse-CDF.

    ``s=0`` degenerates to uniform; larger ``s`` concentrates probability
    on small keys.  The CDF is precomputed once, so sampling is
    O(log key_range).
    """

    def __init__(self, key_range: int, s: float = 1.0) -> None:
        if key_range <= 0:
            raise ValueError("key_range must be positive")
        if s < 0:
            raise ValueError("zipf exponent must be >= 0")
        self.key_range = key_range
        self.s = s
        weights = [1.0 / (k + 1) ** s for k in range(key_range)]
        total = sum(weights)
        self._cdf = list(itertools.accumulate(w / total for w in weights))
        self._cdf[-1] = 1.0   # guard against float drift

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random())


class HotSetKeys:
    """Hot-set-shifting keys: a ``frac`` share of draws lands in a window
    of ``size`` consecutive keys that slides by ``size`` after every
    ``shift_every`` draws (wrapping mod ``key_range``); the rest are
    uniform over the whole range.

    This models popularity churn -- "the hot key moved" -- the open-loop
    traffic scenario the ROADMAP asks about.  The instance is *stateful*
    (it counts its own draws to know the current window), so give each
    arrival stream its own instance; for a fixed draw sequence the key
    sequence is deterministic.
    """

    def __init__(self, key_range: int, *, frac: float = 0.9, size: int = 8,
                 shift_every: int = 256) -> None:
        if key_range <= 0:
            raise ValueError("key_range must be positive")
        if not 0.0 <= frac <= 1.0:
            raise ValueError("hot fraction must be in [0, 1]")
        if size <= 0 or shift_every <= 0:
            raise ValueError("hot-set size and shift interval must be "
                             "positive")
        self.key_range = key_range
        self.frac = frac
        self.size = min(size, key_range)
        self.shift_every = shift_every
        self._drawn = 0

    def sample(self, rng: random.Random) -> int:
        base = (self._drawn // self.shift_every) * self.size % self.key_range
        self._drawn += 1
        if rng.random() < self.frac:
            return (base + rng.randrange(self.size)) % self.key_range
        return rng.randrange(self.key_range)


def op_mix(rng: random.Random, update_pct: int) -> str:
    """Draw one operation from the paper's mix: ``update_pct`` percent
    updates split between inserts and deletes, the rest searches.

    An odd ``update_pct`` cannot split evenly; the extra percentage
    point goes to inserts (``ceil(pct/2)`` inserts, ``floor(pct/2)``
    deletes), so ``update_pct=5`` means exactly 3% inserts / 2% deletes
    -- the split of :func:`~repro.structures.workers.set_op`, which the
    closed- and open-loop set workers use too.
    """
    return set_op(rng.randrange(100), update_pct)


def key_stream(dist, rng: random.Random) -> Iterator[int]:
    """Infinite stream of keys from a distribution."""
    while True:
        yield dist.sample(rng)
