"""Fixed-bucket log-scale latency histogram (cycle-valued).

Open-loop traffic (see :mod:`repro.traffic`) records one enqueue->complete
latency per admitted operation.  Tail percentiles are the whole point of
that exercise, so the histogram must be cheap to record into (one integer
index computation, one dict bump), mergeable across lanes/runs, and --
because the simulator's identity contracts extend to it -- **bit-exact**:
two runs that execute the same schedule produce byte-identical bucket
maps, whether or not a checkpoint/restore cut the run in half.

The bucket layout is HdrHistogram-lite: values below ``SUB_BUCKETS`` get
one exact bucket each; above that, every power-of-two octave is split
into ``SUB_BUCKETS`` linear sub-buckets, bounding the relative rounding
error of any reported percentile by ``1/SUB_BUCKETS`` (6.25%).  Buckets
are stored sparsely, so an idle histogram costs nothing and a typical
run touches a few dozen entries.

Percentiles are deterministic by construction: ``percentile(q)`` returns
the *upper bound* of the bucket where the cumulative count first reaches
``ceil(q * total)``.  No interpolation -- interpolation would reintroduce
float ordering hazards into an otherwise integer-exact pipeline.
"""

from __future__ import annotations

import math

__all__ = ["LatencyHistogram", "SUB_BUCKETS", "bucket_bounds"]

#: Linear sub-buckets per power-of-two octave; also the exact-bucket range
#: floor (values < SUB_BUCKETS each get their own bucket).  16 bounds the
#: percentile rounding error at 1/16.
SUB_BUCKETS = 16

_SUB_SHIFT = SUB_BUCKETS.bit_length() - 1     # log2(SUB_BUCKETS) = 4


def bucket_index(value: int) -> int:
    """Map a non-negative latency (cycles) to its bucket index."""
    if value < SUB_BUCKETS:
        return value if value > 0 else 0
    top = value.bit_length() - 1              # octave: value in [2^top, 2^(top+1))
    shift = top - _SUB_SHIFT                  # sub-bucket width 2^shift
    return ((top - _SUB_SHIFT + 1) << _SUB_SHIFT) + ((value >> shift)
                                                     - SUB_BUCKETS)


def bucket_bounds(index: int) -> tuple[int, int]:
    """Inclusive ``(low, high)`` value range of bucket ``index``."""
    if index < SUB_BUCKETS:
        return index, index
    group, sub = divmod(index, SUB_BUCKETS)
    shift = group - 1
    low = (SUB_BUCKETS + sub) << shift
    return low, low + (1 << shift) - 1


class LatencyHistogram:
    """Sparse log-linear histogram of integer latencies (cycle units)."""

    __slots__ = ("counts", "total", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.total = 0
        self.sum = 0
        self.min: int | None = None
        self.max: int | None = None

    # -- recording ----------------------------------------------------------

    def record(self, value: int) -> None:
        """Record one latency sample (negative values clamp to 0)."""
        if value < 0:
            value = 0
        idx = bucket_index(value)
        self.counts[idx] = self.counts.get(idx, 0) + 1
        self.total += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s samples into this histogram (in place)."""
        for idx, n in other.counts.items():
            self.counts[idx] = self.counts.get(idx, 0) + n
        self.total += other.total
        self.sum += other.sum
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max

    # -- queries ------------------------------------------------------------

    def percentile(self, q: float) -> int | None:
        """Upper bound of the bucket holding the ``q``-quantile sample
        (``q`` in [0, 1]); None on an empty histogram."""
        if self.total == 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} out of range [0, 1]")
        rank = max(1, math.ceil(q * self.total))
        seen = 0
        for idx in sorted(self.counts):
            seen += self.counts[idx]
            if seen >= rank:
                high = bucket_bounds(idx)[1]
                # Never report past the true extremes: the top bucket's
                # range may overshoot the largest recorded sample.
                return min(high, self.max if self.max is not None else high)
        return self.max  # pragma: no cover - unreachable (seen == total)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def percentiles(self) -> dict[str, int]:
        """The standard tail triple (empty dict on an empty histogram)."""
        if self.total == 0:
            return {}
        return {"p50": self.percentile(0.50),
                "p99": self.percentile(0.99),
                "p999": self.percentile(0.999)}

    # -- identity / serialization -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return (self.counts == other.counts and self.total == other.total
                and self.sum == other.sum and self.min == other.min
                and self.max == other.max)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<LatencyHistogram n={self.total} min={self.min} "
                f"max={self.max} buckets={len(self.counts)}>")

    def state_dict(self) -> dict:
        """JSON-safe snapshot: sorted bucket list keeps serialization
        byte-stable so identical histograms dump to identical JSON."""
        return {
            "counts": [[idx, self.counts[idx]]
                       for idx in sorted(self.counts)],
            "total": self.total,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    def load_state(self, state: dict) -> None:
        self.counts = {int(idx): int(n) for idx, n in state["counts"]}
        self.total = int(state["total"])
        self.sum = int(state["sum"])
        self.min = state["min"]
        self.max = state["max"]

    @classmethod
    def from_state(cls, state: dict) -> "LatencyHistogram":
        h = cls()
        h.load_state(state)
        return h
