"""2-D mesh on-chip network latency model.

Tiles are laid out row-major on the smallest square mesh that holds all
cores; message latency is ``base + hop_latency * manhattan_distance`` plus a
serialization term for data-carrying messages.  The network is contention-
free (Graphite's default analytical model is similarly simple); coherence
*protocol* queuing -- the effect the paper studies -- is modeled exactly, at
the directory and at leased cores.
"""

from __future__ import annotations

from typing import Any, Callable

from ..config import NetworkConfig
from ..engine import Simulator
from ..trace import TraceBus
from .messages import MessageKind


class MeshNetwork:
    """Computes message latencies, traces traffic, and schedules delivery."""

    __slots__ = ("config", "num_tiles", "sim", "trace", "faults", "dim",
                 "_hops", "_lat", "_ctl", "_data")

    #: True on :class:`~repro.coherence.links.LinkedNetwork` only; gates
    #: checkpoint state and result extras.
    contended = False

    def __init__(self, config: NetworkConfig, num_tiles: int,
                 sim: Simulator, trace: TraceBus, faults=None) -> None:
        self.config = config
        self.num_tiles = num_tiles
        self.sim = sim
        self.trace = trace
        #: Optional :class:`~repro.faults.FaultPlan`; when set, each send
        #: may suffer extra (seeded) latency at the hop-latency point.
        self.faults = faults
        self.dim = 1
        while self.dim * self.dim < num_tiles:
            self.dim += 1
        # Precomputed hop distance table (num_tiles is small, <= 64ish).
        self._hops = [
            [self._manhattan(a, b) for b in range(num_tiles)]
            for a in range(num_tiles)
        ]
        # Control-message latency per (src, dst); data-carrying kinds add
        # the fixed serialization term on top.
        self._lat = [
            [config.base_latency + config.hop_latency * h for h in row]
            for row in self._hops
        ]
        # Fused (latency, hops) rows -- one control, one data-carrying --
        # so the send hot path does a single table walk per message.
        self._ctl = [
            [(lat, h) for lat, h in zip(lrow, hrow)]
            for lrow, hrow in zip(self._lat, self._hops)
        ]
        self._data = [
            [(lat + config.data_latency, h) for lat, h in zip(lrow, hrow)]
            for lrow, hrow in zip(self._lat, self._hops)
        ]

    def _coords(self, tile: int) -> tuple[int, int]:
        return tile % self.dim, tile // self.dim

    def _manhattan(self, a: int, b: int) -> int:
        ax, ay = self._coords(a)
        bx, by = self._coords(b)
        return abs(ax - bx) + abs(ay - by)

    def hops(self, src: int, dst: int) -> int:
        return self._hops[src][dst]

    def latency(self, src: int, dst: int, kind: MessageKind) -> int:
        lat = self._lat[src][dst]
        if kind.carries:
            lat += self.config.data_latency
        return lat

    def send(self, src: int, dst: int, kind: MessageKind,
             fn: Callable[..., Any], *args: Any) -> None:
        """Trace one ``kind`` message from tile ``src`` to ``dst`` and
        schedule ``fn(*args)`` at its delivery time."""
        carries = kind.carries
        lat, hops = (self._data if carries else self._ctl)[src][dst]
        if self.faults is not None:
            extra = self.faults.net_extra()
            if extra:
                lat += extra
                self.trace.fault_injected("net_jitter", dst, extra)
        self.trace.message(src, dst, kind.val, hops, carries)
        sim = self.sim
        sim.queue.schedule(sim.now + lat, fn, *args)

    def grant_delivery(self, src: int, dst: int, kind: MessageKind,
                       fetch_cycles: int, fn: Callable[..., Any],
                       *args: Any) -> None:
        """Perform a directory grant's L2/memory fetch (``fetch_cycles``)
        and then send the response message.  Here the fetch is a pure
        delay -- the scheduled event is exactly the ``send`` call the
        directory used to schedule itself, so behaviour and checkpoint
        encoding are unchanged; :class:`~repro.coherence.links.
        LinkedNetwork` overrides this to serialize the fetch through the
        home tile's memory port."""
        sim = self.sim
        sim.queue.schedule(sim.now + fetch_cycles, self.send,
                           src, dst, kind, fn, *args)
