"""Open-loop traffic source: per-core lanes with bounded admission queues.

A :class:`TrafficSource` owns one :class:`Lane` per core.  Each lane
merges ``tenants`` independent arrival streams (each with its own seeded
RNG, arrival process, and key distribution) into a bounded admission
queue; the lane's worker *pulls* admitted ops instead of self-pacing.
An arrival that finds the queue full is **shed**: counted, traced as an
``OpShed`` event, never executed -- exactly what a production admission
controller does under overload.

Determinism contract (what makes the identity checks in
``bench tail_latency`` / ``python -m repro check identity`` possible):
lanes are mutated *only* from inside thread generator bodies, and every
input to that mutation is either the machine clock at the poll site, a
replayed yield value, or the lane's private RNGs.  Checkpoint replay
re-executes the same polls at the same clock values, so lane state --
queues, RNG streams, histograms, shed counts -- reconstructs
bit-identically without being serialized.

Lane protocol (see :mod:`repro.traffic.workers`)::

    item = lane.poll(ctx)
    #  (enqueue_cycle, tenant, key)  -> run this op, then lane.complete(...)
    #  int n                         -> idle: yield Work(n), poll again
    #  None                          -> streams dry and queue empty: stop

Latency is ``complete_cycle - enqueue_cycle`` where the enqueue cycle is
the op's *intended arrival time* -- the queue-wait is part of the number,
which is the whole coordinated-omission point.
"""

from __future__ import annotations

import random
from collections import deque

from ..stats.latency import LatencyHistogram
from .arrivals import make_arrivals
from .spec import TrafficSpec, parse_traffic_spec

__all__ = ["TrafficSource", "Lane", "evaluate_slo"]

#: Stream-RNG seed mixing: distinct from the per-thread Ctx stream
#: (``(seed << 20) ^ (tid + 1)``) so traffic draws never collide with
#: workload-body draws, and distinct per (lane, tenant).
_LANE_MIX = 0x9E3779B1
_TENANT_MIX = 0x85EBCA77


def _make_keys(spec: TrafficSpec, key_range: int):
    # Imported here, not at module level: repro.workloads imports this
    # package for its open-loop driver variants.
    from ..workloads.generators import HotSetKeys, UniformKeys, ZipfKeys
    if spec.keys == "zipf":
        return ZipfKeys(key_range, spec.zipf_s)
    if spec.keys == "hotset":
        return HotSetKeys(key_range, frac=spec.hot_frac,
                          size=spec.hot_size, shift_every=spec.hot_shift)
    return UniformKeys(key_range)


class _Stream:
    """One tenant's arrival stream on one lane."""

    __slots__ = ("tenant", "rng", "arrivals", "keys", "remaining", "pending")

    def __init__(self, spec: TrafficSpec, *, seed: int, lane: int,
                 tenant: int, key_range: int, ops: int) -> None:
        self.tenant = tenant
        self.rng = random.Random(
            (seed << 24) ^ (lane * _LANE_MIX) ^ (tenant * _TENANT_MIX)
            ^ 0x7F4A7C15)
        self.arrivals = make_arrivals(spec, self.rng)
        self.keys = _make_keys(spec, key_range)
        self.remaining = ops
        #: next undelivered arrival as (cycle, key), or None when dry.
        self.pending: tuple[int, int] | None = None
        self.advance()

    def advance(self) -> None:
        if self.remaining <= 0:
            self.pending = None
            return
        self.remaining -= 1
        t = self.arrivals.next_arrival()
        key = self.keys.sample(self.rng)
        self.pending = (t, key)


class Lane:
    """One core's admission queue fed by that core's tenant streams."""

    __slots__ = ("depth", "queue", "hist", "admitted", "shed", "streams")

    def __init__(self, spec: TrafficSpec, *, seed: int, lane: int,
                 key_range: int, ops: int) -> None:
        self.depth = spec.queue_depth
        self.queue: deque[tuple[int, int, int]] = deque()
        self.hist = LatencyHistogram()
        self.admitted = 0
        self.shed = 0
        self.streams = [
            _Stream(spec, seed=seed, lane=lane, tenant=t,
                    key_range=key_range, ops=ops)
            for t in range(spec.tenants)
        ]

    def _admit_up_to(self, now: int, trace, core_id: int) -> None:
        """Admit (or shed) every arrival at or before ``now``, in global
        (cycle, tenant) order so multi-tenant merges are deterministic."""
        while True:
            best = None
            for s in self.streams:
                if s.pending is not None and s.pending[0] <= now:
                    if best is None or ((s.pending[0], s.tenant)
                                        < (best.pending[0], best.tenant)):
                        best = s
            if best is None:
                return
            t_arrive, key = best.pending
            if len(self.queue) < self.depth:
                self.queue.append((t_arrive, best.tenant, key))
                self.admitted += 1
                trace.op_admitted(core_id, best.tenant, len(self.queue))
            else:
                self.shed += 1
                trace.op_shed(core_id, best.tenant)
            best.advance()

    def poll(self, ctx):
        """Next admitted op, a wait hint, or None when the lane is done.

        Returns ``(enqueue_cycle, tenant, key)`` when an op is ready,
        an ``int`` count of cycles until the next possible arrival when
        the queue is empty but streams remain, or ``None`` when every
        stream is dry and the queue is drained.
        """
        now = ctx.machine.now
        self._admit_up_to(now, ctx.machine.trace, ctx.core_id)
        if self.queue:
            return self.queue.popleft()
        nxt = None
        for s in self.streams:
            if s.pending is not None and (nxt is None or s.pending[0] < nxt):
                nxt = s.pending[0]
        if nxt is None:
            return None
        return max(1, nxt - now)

    def complete(self, enqueue_cycle: int, now: int) -> None:
        """Record one op's enqueue->complete latency."""
        self.hist.record(now - enqueue_cycle)


class TrafficSource:
    """All lanes of one open-loop run, plus run-level accounting."""

    def __init__(self, spec: TrafficSpec | str, *, num_lanes: int, seed: int,
                 key_range: int = 1, default_ops: int = 16) -> None:
        if isinstance(spec, str):
            spec = parse_traffic_spec(spec)
        if spec.empty:
            raise ValueError("TrafficSource needs a non-empty TrafficSpec")
        self.spec = spec
        ops = spec.ops or default_ops
        self.lanes = [
            Lane(spec, seed=seed, lane=i, key_range=key_range, ops=ops)
            for i in range(num_lanes)
        ]

    def lane(self, i: int) -> Lane:
        return self.lanes[i]

    @property
    def admitted(self) -> int:
        return sum(lane.admitted for lane in self.lanes)

    @property
    def shed(self) -> int:
        return sum(lane.shed for lane in self.lanes)

    def histogram(self) -> LatencyHistogram:
        """All lanes' latencies merged into one histogram."""
        merged = LatencyHistogram()
        for lane in self.lanes:
            merged.merge(lane.hist)
        return merged

    def summary(self) -> dict:
        """The latency payload attached to ``RunResult.latency``."""
        hist = self.histogram()
        offered = self.admitted + self.shed
        shed_frac = self.shed / offered if offered else 0.0
        out: dict = {
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_frac": shed_frac,
            "mean": hist.mean,
        }
        out.update(hist.percentiles())
        out["slo"] = evaluate_slo(self.spec, hist, shed_frac)
        out["hist"] = hist.state_dict()
        return out


def evaluate_slo(spec: TrafficSpec, hist: LatencyHistogram,
                 shed_frac: float) -> str:
    """``pass``/``fail`` against the spec's SLO clause, ``n/a`` without
    one.  Every stated bound must hold; an empty histogram (everything
    shed) fails any latency bound."""
    if not spec.has_slo:
        return "n/a"
    if spec.slo_p99 is not None:
        p99 = hist.percentile(0.99)
        if p99 is None or p99 > spec.slo_p99:
            return "fail"
    if spec.slo_p999 is not None:
        p999 = hist.percentile(0.999)
        if p999 is None or p999 > spec.slo_p999:
            return "fail"
    if spec.slo_shed is not None and shed_frac > spec.slo_shed:
        return "fail"
    return "pass"
