"""Contended interconnect: finite-bandwidth links, arbitration, ports.

:class:`~repro.coherence.network.MeshNetwork` is a pure latency
calculator: every message is scheduled independently, so the network
itself can never saturate.  This module models the interconnect as a set
of *serialized resources*:

* one **egress link** per tile (``link:`` clause) with a finite bandwidth
  in cycles per flit -- control messages are one flit, data-carrying
  messages ``flits`` flits -- and a bounded egress queue;
* one **intake port** per tile (``port:dir=N``) serializing delivery into
  the directory slice / core at N cycles per message;
* one **memory-controller port** per tile (``port:mem=N``) serializing L2
  fetches performed while granting directory requests.

Messages that find a resource busy wait in per-flow queues (flow 0 =
control, flow 1 = data) and a pluggable :class:`Arbiter` picks which flow
is served next: :class:`FifoArbiter` (global arrival order),
:class:`WrrArbiter` (weighted round-robin between the flows) or
:class:`PriorityArbiter` (control before data).  A full bounded queue
never drops: the offer is retried after a deterministic backoff.

The spec grammar is the ``--faults`` one (``;``-separated ``name:k=v,...``
clauses, see :mod:`repro.spec`)::

    link:bw=2,queue=16,flits=4;arb:wrr,weights=2:1;port:dir=2,mem=4

An empty spec (or the literal ``infinite``) builds no queues at all:
:func:`build_network` returns the plain contention-free
:class:`MeshNetwork` and behaviour is bit-identical to a build without
this module.  Everything here is deterministic: all waiting is resolved
through the simulator's ``(time, seq)`` event order, and per-link RNG
never exists (the only randomness, ``link_degrade``, comes from the
seeded fault plan at build time).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable

from ..config import NetworkConfig
from ..engine import Simulator
from ..spec import Clause, Grammar, Param, Row, at_least_one, integer
from ..trace import TraceBus
from .messages import MessageKind
from .network import MeshNetwork

__all__ = ["NetSpec", "parse_network_spec", "build_network",
           "Arbiter", "FifoArbiter", "WrrArbiter", "PriorityArbiter",
           "Link", "LinkedNetwork"]

#: Flow classes every contended resource arbitrates between.
CONTROL, DATA = 0, 1
NUM_FLOWS = 2

#: Valid ``arb:`` policies.
ARBITERS = ("fifo", "wrr", "priority")

#: Data-carrying messages occupy this many flits unless ``flits=`` says
#: otherwise (one cache line split into link-width chunks).
DEFAULT_DATA_FLITS = 4


# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetSpec:
    """Parsed, validated ``--network`` parameters.

    ``empty`` specs build no queues; see :func:`build_network`.
    """

    #: the original spec string, verbatim (travels inside NetworkConfig).
    raw: str = ""
    #: cycles per flit on each egress link; 0 = infinite bandwidth.
    link_bw: int = 0
    #: bounded egress-queue capacity per link; 0 = unbounded.
    link_queue: int = 0
    #: flits per data-carrying message (control messages are 1 flit).
    data_flits: int = DEFAULT_DATA_FLITS
    #: arbitration policy for every contended resource.
    arbiter: str = "fifo"
    #: WRR weights as (control, data) grant credits per round.
    wrr_weights: tuple[int, int] = (2, 1)
    #: cycles per message at each tile's directory/core intake port;
    #: 0 = no intake serialization.
    dir_port: int = 0
    #: cycles of controller overhead per serialized L2 fetch; 0 = fetches
    #: do not serialize.
    mem_port: int = 0
    #: bounded queue capacity per port; 0 = unbounded.
    port_queue: int = 0

    @property
    def empty(self) -> bool:
        """True when no resource is finite -> plain MeshNetwork."""
        return (self.link_bw == 0 and self.dir_port == 0
                and self.mem_port == 0)


def _weights(c: Clause, key: str, text: str) -> tuple[int, ...]:
    parts = text.split(":")
    if len(parts) != NUM_FLOWS:
        raise c.error(f"weights must be <control>:<data>, got {text!r}")
    return tuple(integer(1)(c, key, p) for p in parts)


def _arb(c: Clause, fields: dict) -> None:
    """``arb:<policy>[,weights=<control>:<data>]``."""
    policy, _, rest = c.body.partition(",")
    policy = policy.strip()
    if policy not in ARBITERS:
        raise c.error(f"unknown arbiter {policy!r} "
                      f"(known: {', '.join(ARBITERS)})")
    fields["arbiter"] = policy
    given = replace(c, body=rest).params()
    if given and policy != "wrr":
        raise c.error("weights= only applies to arb:wrr")
    fields.update(c.convert(given))


_GRAMMAR = Grammar("network spec", NetSpec, (
    Row("link", (Param("bw", "link_bw", integer(1), "<cycles per flit>"),
                 Param("queue", "link_queue", integer(1)),
                 Param("flits", "data_flits", integer(1)))),
    Row("arb", (Param("weights", "wrr_weights", _weights),), _arb),
    Row("port", (Param("dir", "dir_port", integer(1)),
                 Param("mem", "mem_port", integer(1)),
                 Param("queue", "port_queue", integer(1))),
        at_least_one("dir=<cycles> and/or mem=<cycles>")),
))


def parse_network_spec(spec: str) -> NetSpec:
    """Parse a ``--network`` spec string.  Empty/whitespace and the
    literal ``infinite`` yield an empty spec (``NetSpec.empty`` is true ->
    the plain contention-free mesh is built and behaviour is bit-identical
    to a build without the links module)."""
    spec = (spec or "").strip()
    return _GRAMMAR.parse("" if spec.lower() == "infinite" else spec)


# ---------------------------------------------------------------------------
# Arbiters
# ---------------------------------------------------------------------------

class Arbiter:
    """Picks which flow a free resource serves next.

    ``pick(queues)`` receives the per-flow deques (items are tuples whose
    first element is the per-resource enqueue sequence number) and returns
    the flow index to serve, or -1 when every queue is empty.  Arbiters
    must be deterministic and allocation-free; stateful arbiters override
    ``state_dict``/``load_state`` so checkpoints roundtrip.
    """

    kind = "base"

    def pick(self, queues) -> int:
        raise NotImplementedError

    def state_dict(self) -> dict:
        return {}

    def load_state(self, state: dict) -> None:
        pass


class FifoArbiter(Arbiter):
    """Global arrival order: the head with the smallest enqueue seq wins."""

    kind = "fifo"

    def pick(self, queues) -> int:
        best = -1
        best_seq = None
        for flow, q in enumerate(queues):
            if q and (best_seq is None or q[0][0] < best_seq):
                best = flow
                best_seq = q[0][0]
        return best


class PriorityArbiter(Arbiter):
    """Strict priority: control messages always beat data payloads."""

    kind = "priority"

    def pick(self, queues) -> int:
        for flow, q in enumerate(queues):
            if q:
                return flow
        return -1


class WrrArbiter(Arbiter):
    """Weighted round-robin over the flows.

    The current flow is served until its per-round credit is spent or its
    queue drains, then the rotor moves on (credits refill on entry).  Over
    a long backlog on every flow, grants approach the weight ratio.
    """

    kind = "wrr"

    __slots__ = ("weights", "_flow", "_credit")

    def __init__(self, weights: tuple[int, ...] = (2, 1)) -> None:
        self.weights = tuple(weights)
        self._flow = 0
        self._credit = self.weights[0]

    def pick(self, queues) -> int:
        n = len(queues)
        for _ in range(2 * n):
            if queues[self._flow] and self._credit > 0:
                self._credit -= 1
                return self._flow
            self._flow = (self._flow + 1) % n
            self._credit = self.weights[self._flow]
        return -1

    def state_dict(self) -> dict:
        return {"flow": self._flow, "credit": self._credit}

    def load_state(self, state: dict) -> None:
        self._flow = state["flow"]
        self._credit = state["credit"]


def make_arbiter(spec: NetSpec) -> Arbiter:
    """One fresh arbiter instance (WRR carries rotor state) per resource."""
    if spec.arbiter == "wrr":
        return WrrArbiter(spec.wrr_weights)
    if spec.arbiter == "priority":
        return PriorityArbiter()
    return FifoArbiter()


# ---------------------------------------------------------------------------
# The serialized resource
# ---------------------------------------------------------------------------

#: Roles decide which trace events a resource emits.
ROLE_LINK, ROLE_PORT = "link", "port"


class Link:
    """One serialized resource: an egress link or an intake/memory port.

    Holds per-flow queues and the in-service item; all scheduling and
    event emission happens in :class:`LinkedNetwork` so the engine only
    ever sees network-level callables (which the checkpoint codec
    registers by name).
    """

    __slots__ = ("rid", "label", "role", "cycles", "cap", "arbiter",
                 "queues", "serving", "busy_cycles", "seq")

    def __init__(self, rid: int, label: str, role: str, cycles: int,
                 cap: int, arbiter: Arbiter) -> None:
        self.rid = rid
        self.label = label
        self.role = role
        #: cycles per flit (links) / base cycles per message (ports).
        self.cycles = cycles
        #: bounded queue capacity across flows; 0 = unbounded.
        self.cap = cap
        self.arbiter = arbiter
        self.queues = tuple(deque() for _ in range(NUM_FLOWS))
        #: the item currently in service, or None when idle.
        self.serving: tuple | None = None
        #: total cycles spent serving (per-link utilization numerator).
        self.busy_cycles = 0
        #: per-resource enqueue sequence (feeds FIFO arbitration).
        self.seq = 0

    @property
    def depth(self) -> int:
        return sum(len(q) for q in self.queues)

    # -- checkpointing (repro.state) ----------------------------------------

    def state_dict(self, codec) -> dict:
        return {
            "seq": self.seq,
            "busy_cycles": self.busy_cycles,
            "serving": codec.encode(self.serving),
            "queues": [codec.encode(list(q)) for q in self.queues],
            "arb": self.arbiter.state_dict(),
        }

    def load_state(self, state: dict, codec) -> None:
        self.seq = state["seq"]
        self.busy_cycles = state["busy_cycles"]
        self.serving = codec.decode(state["serving"])
        for q, items in zip(self.queues, state["queues"]):
            q.clear()
            q.extend(codec.decode(items))
        self.arbiter.load_state(state["arb"])


# ---------------------------------------------------------------------------
# The contended network
# ---------------------------------------------------------------------------

class LinkedNetwork(MeshNetwork):
    """MeshNetwork with finite-bandwidth links and serialized ports.

    The routing latency tables are inherited unchanged; on top of them a
    message now (1) waits for and occupies its source tile's egress link
    for ``flits * bw`` cycles, (2) traverses the route (the inherited
    analytic latency), and (3) waits for and occupies the destination
    tile's intake port before the delivery callback runs.  Directory
    grants additionally serialize their L2 fetch through the home tile's
    memory port (see :meth:`grant_delivery`).
    """

    contended = True

    __slots__ = ("spec", "_data_flits", "_egress", "_ports", "_mem",
                 "_resources")

    def __init__(self, config: NetworkConfig, num_tiles: int,
                 sim: Simulator, trace: TraceBus, faults=None,
                 spec: NetSpec | None = None) -> None:
        super().__init__(config, num_tiles, sim, trace, faults=faults)
        self.spec = spec if spec is not None else parse_network_spec(
            getattr(config, "spec", ""))
        self._data_flits = self.spec.data_flits
        self._resources: list[Link] = []

        def build(role: str, name: str, cycles: int, cap: int):
            group = []
            for tile in range(num_tiles):
                link = Link(len(self._resources), f"{name}{tile}", role,
                            cycles, cap, make_arbiter(self.spec))
                self._resources.append(link)
                group.append(link)
            return group

        s = self.spec
        self._egress = (build(ROLE_LINK, "link", s.link_bw, s.link_queue)
                        if s.link_bw else None)
        self._ports = (build(ROLE_PORT, "dir", s.dir_port, s.port_queue)
                       if s.dir_port else None)
        self._mem = (build(ROLE_PORT, "mem", s.mem_port, s.port_queue)
                     if s.mem_port else None)
        # Seeded per-link degradation (repro.faults link_degrade hook):
        # consulted once per resource in deterministic build order, so the
        # same seed + spec degrades the same links on every run.
        if faults is not None and faults.spec.link_degrade_p > 0.0:
            factor = faults.spec.link_degrade_factor
            shrink = faults.spec.link_degrade_queue
            for link in self._resources:
                if not faults.link_degrade_hit():
                    continue
                link.cycles *= factor
                if shrink:
                    link.cap = (min(link.cap, shrink) if link.cap
                                else shrink)
                trace.fault_injected("link_degrade", link.rid, factor)

    # -- the send path -------------------------------------------------------

    def send(self, src: int, dst: int, kind: MessageKind,
             fn: Callable[..., Any], *args: Any) -> None:
        """Trace one message and route it through the contended path:
        egress link at ``src`` -> mesh route -> intake port at ``dst``."""
        carries = kind.carries
        lat, hops = (self._data if carries else self._ctl)[src][dst]
        if self.faults is not None:
            extra = self.faults.net_extra()
            if extra:
                lat += extra
                self.trace.fault_injected("net_jitter", dst, extra)
        self.trace.message(src, dst, kind.val, hops, carries)
        flow = DATA if carries else CONTROL
        flits = self._data_flits if carries else 1
        if self._egress is not None:
            link = self._egress[src]
            self._offer(link, flow, flits, flits * link.cycles,
                        self._route, (dst, flow, flits, lat, fn, args))
        else:
            sim = self.sim
            sim.queue.schedule(sim.now + lat, self._enter_port,
                               dst, flow, flits, fn, args)

    def grant_delivery(self, src: int, dst: int, kind: MessageKind,
                       fetch_cycles: int, fn: Callable[..., Any],
                       *args: Any) -> None:
        """Serialize a directory grant's L2 fetch through the home tile's
        memory port, then send the response message normally."""
        if self._mem is None:
            super().grant_delivery(src, dst, kind, fetch_cycles, fn, *args)
            return
        port = self._mem[src]
        flow = DATA if kind.carries else CONTROL
        self._offer(port, flow, 1, port.cycles + fetch_cycles,
                    self._mem_done, (src, dst, kind, fn, args))

    # -- resource mechanics --------------------------------------------------

    def _offer(self, link: Link, flow: int, flits: int, service: int,
               fn: Callable[..., Any], args: tuple,
               arrival: int | None = None) -> None:
        """Enqueue one item on ``link`` and serve it when its turn comes.
        A full bounded queue backpressures: the offer is retried after a
        deterministic delay, preserving the original arrival stamp so the
        extra wait still lands in the stall accounting."""
        now = self.sim.now
        if arrival is None:
            arrival = now
        if (link.cap and link.serving is not None
                and link.depth >= link.cap):
            self.sim.queue.schedule(
                now + max(1, link.cycles), self._retry,
                link.rid, flow, flits, service, fn, args, arrival)
            return
        if link.serving is not None or link.depth:
            if link.role == ROLE_LINK:
                self.trace.link_queued(link.rid, flow, link.depth + 1)
            else:
                self.trace.port_busy(link.rid, link.depth + 1)
        link.queues[flow].append(
            (link.seq, arrival, flow, flits, service, fn, args))
        link.seq += 1
        self._pump(link)

    def _retry(self, rid: int, flow: int, flits: int, service: int,
               fn: Callable[..., Any], args: tuple, arrival: int) -> None:
        self._offer(self._resources[rid], flow, flits, service, fn, args,
                    arrival)

    def _pump(self, link: Link) -> None:
        if link.serving is not None:
            return
        flow = link.arbiter.pick(link.queues)
        if flow < 0:
            return
        item = link.queues[flow].popleft()
        now = self.sim.now
        if link.role == ROLE_LINK:
            # waited = grant time - first-offer time (includes any
            # bounded-queue backpressure retries).
            self.trace.link_granted(link.rid, flow, item[3], now - item[1])
        link.serving = item
        service = item[4]
        link.busy_cycles += service
        self.sim.queue.schedule(now + service, self._service_done, link.rid)

    def _service_done(self, rid: int) -> None:
        link = self._resources[rid]
        item = link.serving
        link.serving = None
        item[5](*item[6])
        self._pump(link)

    # -- continuations (registered with the checkpoint codec by name) -------

    def _route(self, dst: int, flow: int, flits: int, lat: int,
               fn: Callable[..., Any], args: tuple) -> None:
        """Egress service finished: traverse the route, then enter the
        destination's intake port (or deliver directly without one)."""
        sim = self.sim
        if self._ports is not None:
            sim.queue.schedule(sim.now + lat, self._enter_port,
                               dst, flow, flits, fn, args)
        else:
            sim.queue.schedule(sim.now + lat, self._deliver, fn, args)

    def _enter_port(self, dst: int, flow: int, flits: int,
                    fn: Callable[..., Any], args: tuple) -> None:
        if self._ports is None:
            self._deliver(fn, args)
            return
        port = self._ports[dst]
        self._offer(port, flow, flits, port.cycles, self._deliver,
                    (fn, args))

    def _deliver(self, fn: Callable[..., Any], args: tuple) -> None:
        fn(*args)

    def _mem_done(self, src: int, dst: int, kind: MessageKind,
                  fn: Callable[..., Any], args: tuple) -> None:
        self.send(src, dst, kind, fn, *args)

    # -- reporting -----------------------------------------------------------

    def utilization(self) -> dict[str, float]:
        """Per-role mean busy fraction over the run so far (0..1)."""
        now = self.sim.now
        if not now:
            return {}
        out: dict[str, list[int]] = {}
        for link in self._resources:
            role = "link" if link.role == ROLE_LINK else link.label.rstrip(
                "0123456789")
            out.setdefault(role, []).append(link.busy_cycles)
        return {role: sum(vals) / (len(vals) * now)
                for role, vals in out.items()}

    # -- checkpointing (repro.state) ----------------------------------------

    def state_dict(self, codec) -> dict:
        return {"resources": [r.state_dict(codec) for r in self._resources]}

    def load_state(self, state: dict, codec) -> None:
        for link, st in zip(self._resources, state["resources"]):
            link.load_state(st, codec)


def build_network(config: NetworkConfig, num_tiles: int, sim: Simulator,
                  trace: TraceBus, faults=None) -> MeshNetwork:
    """Build the network the config's spec asks for: the plain
    contention-free :class:`MeshNetwork` for an empty/``infinite`` spec
    (bit-identical to the pre-links model -- no queues exist at all), or a
    :class:`LinkedNetwork` when any resource is finite."""
    spec = parse_network_spec(getattr(config, "spec", ""))
    if spec.empty:
        return MeshNetwork(config, num_tiles, sim, trace, faults=faults)
    return LinkedNetwork(config, num_tiles, sim, trace, faults=faults,
                         spec=spec)
