"""The typed trace-event taxonomy.

Every observable action in the simulated machine -- coherence requests,
probes, lease transitions, cache/L2/network activity, synchronization
outcomes, completed operations -- is described by exactly one event class
below.  Hot-path code constructs an event and hands it to the machine's
:class:`~repro.trace.bus.TraceBus`; sinks (counters, JSONL writers,
heatmaps, invariant checkers) consume the stream.

An event is its ``kind``, its payload ``__slots__`` and its docstring.
:class:`TraceEvent` generates each class's constructor from its slots, in
order, and the counters sink compiles its handlers with the same
parameters (:func:`param_list`), so a class declares its fields once.
Events are plain ``__slots__`` objects: cheap to construct, and
``to_dict()`` flattens them for JSONL serialization.  The ``t`` field (the
simulation cycle) is stamped by the bus at emit time, so call sites never
pass timestamps.

Taxonomy overview (``kind`` strings):

===================  ====================================================
coherence requests    ``req_issued``, ``req_queued``, ``req_granted``
probes                ``probe_sent``, ``probe_deferred``,
                      ``probe_serviced``, ``lease_probe_queued``
leases                ``lease_requested``, ``lease_noop``,
                      ``lease_ignored``, ``lease_started``,
                      ``lease_released``, ``multilease``
evictions             ``eviction_issued``, ``eviction_applied``
caches / memory       ``l1_hit``, ``l1_miss``, ``l1_evicted``,
                      ``mesi_upgrade``, ``l2_access``, ``writeback``
network               ``message``
interconnect          ``link_queued``, ``link_granted``, ``port_busy``
synchronization       ``cas``, ``lock_attempt``, ``lock_failed``, ``stm``
workload              ``op_completed``
open-loop traffic     ``op_admitted``, ``op_shed``
faults                ``fault_injected``, ``dir_nack``, ``retry_scheduled``
checkpoints           ``checkpoint_saved``, ``checkpoint_restored``
cluster network       ``node_msg``, ``node_msg_dropped``, ``node_msg_dup``
cluster leases        ``paxos_round``, ``cluster_lease_acquired``,
                      ``cluster_lease_expired``, ``cluster_lease_released``,
                      ``cluster_guard_denied``
===================  ====================================================

What each kind does to the flat counters is one row of
:data:`repro.trace.sinks.COUNTER_RULES`.
"""

from __future__ import annotations

from typing import Any, Mapping

#: Every concrete event type, in definition order; the bus pre-binds one
#: emit slot per entry, named by its ``kind``.
EVENT_TYPES: list[type["TraceEvent"]] = []


def param_list(cls: type["TraceEvent"], defaults: str) -> str:
    """``cls``'s constructor parameters as source: its slots in order, a
    field of ``cls.DEFAULTS`` defaulting to ``<defaults>[<field>]``."""
    return ", ".join(f"{f}={defaults}[{f!r}]" if f in cls.DEFAULTS else f
                     for f in cls.__slots__)


class TraceEvent:
    """Base class of all trace events.

    ``t`` is the simulation cycle at emit time (stamped by the bus).  A
    subclass declares its ``kind`` and its payload in ``__slots__``; its
    constructor takes the payload fields in slot order.  Trailing fields a
    caller may omit take their defaults from ``DEFAULTS``, a mapping
    because a slot and a class attribute cannot share a name.
    """

    __slots__ = ("t",)
    kind: str = "event"
    DEFAULTS: Mapping[str, Any] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        """Generate ``cls``'s constructor, which zeroes ``t`` and assigns
        each payload field in slot order, and register ``cls``."""
        super().__init_subclass__(**kwargs)
        body = "".join(f"\n    self.{f} = {f}" for f in cls.__slots__)
        ns: dict[str, Any] = {"_defaults": cls.DEFAULTS}
        exec(f"def __init__(self, {param_list(cls, '_defaults')}):\n"
             f"    self.t = 0{body}", ns)
        init = ns["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__module__ = cls.__module__
        setattr(cls, "__init__", init)
        EVENT_TYPES.append(cls)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind, "t": self.t}
        for name in self.__slots__:
            out[name] = getattr(self, name)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        fields = ", ".join(f"{k}={v!r}" for k, v in self.to_dict().items()
                           if k != "kind")
        return f"<{type(self).__name__} {fields}>"


# ---------------------------------------------------------------------------
# Coherence requests (core -> directory)
# ---------------------------------------------------------------------------

class ReqIssued(TraceEvent):
    """A GetS/GetX request left a core for the line's home tile."""

    __slots__ = ("core", "line", "req", "is_lease")
    kind = "req_issued"


class ReqQueued(TraceEvent):
    """A request arrived at a busy directory entry and joined the line's
    FIFO queue at depth ``depth`` (the paper's per-line waiting room)."""

    __slots__ = ("core", "line", "depth")
    kind = "req_queued"


class ReqGranted(TraceEvent):
    """The directory granted ``line`` to ``core`` in ``state``."""

    __slots__ = ("core", "line", "state", "fetch")
    kind = "req_granted"


# ---------------------------------------------------------------------------
# Probes (directory -> core)
# ---------------------------------------------------------------------------

class ProbeSent(TraceEvent):
    """An invalidation/downgrade probe left the home tile for ``target``."""

    __slots__ = ("target", "line", "probe")
    kind = "probe_sent"


class ProbeDeferred(TraceEvent):
    """A probe reached a core between grant and access commit and was
    deferred until the waiting access completes."""

    __slots__ = ("core", "line")
    kind = "probe_deferred"


class ProbeServiced(TraceEvent):
    """A core serviced a probe (possibly after a lease delay).  ``stale``
    means the line was already gone; ``data`` means the reply carried a
    dirty line back home."""

    __slots__ = ("core", "line", "probe", "stale", "data")
    kind = "probe_serviced"


class LeaseProbeQueued(TraceEvent):
    """A probe hit a leased line and was queued at the core (Algorithm 1's
    deferral -- the mechanism the whole paper is about)."""

    __slots__ = ("core", "line")
    kind = "lease_probe_queued"


# ---------------------------------------------------------------------------
# Leases
# ---------------------------------------------------------------------------

class LeaseRequested(TraceEvent):
    """A ``Lease`` instruction reached the core's lease manager."""

    __slots__ = ("core", "line", "site")
    kind = "lease_requested"


class LeaseNoop(TraceEvent):
    """Lease on an already-leased line: no-op (no extension, footnote 1)."""

    __slots__ = ("core", "line")
    kind = "lease_noop"


class LeaseIgnored(TraceEvent):
    """The Section 5 predictor skipped a lease at a misbehaving site."""

    __slots__ = ("core", "line", "site")
    kind = "lease_ignored"


class LeaseStarted(TraceEvent):
    """Ownership is held and the lease countdown started (lease acquired)."""

    __slots__ = ("core", "line", "duration")
    kind = "lease_started"


class LeaseReleased(TraceEvent):
    """A lease ended.  ``mode`` is one of ``voluntary`` (Release/ReleaseAll),
    ``expired`` (timer ran out), ``broken`` (Section 5 prioritization), or
    ``fifo`` (table full, oldest evicted)."""

    __slots__ = ("core", "line", "mode")
    kind = "lease_released"

    MODES = ("voluntary", "expired", "broken", "fifo")


class MultiLeaseIssued(TraceEvent):
    """A MultiLease instruction was executed over ``n`` lines; ``ignored``
    when the group would exceed MAX_NUM_LEASES."""

    __slots__ = ("core", "n", "ignored")
    kind = "multilease"


# ---------------------------------------------------------------------------
# Evictions (core -> directory notices)
# ---------------------------------------------------------------------------

class EvictionIssued(TraceEvent):
    """A PutM/PutS notice left ``core`` for the home tile."""

    __slots__ = ("core", "line", "notice")
    kind = "eviction_issued"


class EvictionApplied(TraceEvent):
    """The directory processed an eviction notice.  ``applied`` is False
    when the notice was stale (the core had re-acquired the line)."""

    __slots__ = ("core", "line", "applied")
    kind = "eviction_applied"


# ---------------------------------------------------------------------------
# Caches / memory hierarchy
# ---------------------------------------------------------------------------

class L1Hit(TraceEvent):
    __slots__ = ("core", "line")
    kind = "l1_hit"


class L1Miss(TraceEvent):
    __slots__ = ("core", "line")
    kind = "l1_miss"


class L1Evicted(TraceEvent):
    """A fill displaced ``line`` from ``core``'s L1.  ``overflow`` means
    every way was pinned and the set over-filled instead (the line is the
    *incoming* one in that case)."""

    __slots__ = ("core", "line", "overflow")
    kind = "l1_evicted"


class MesiUpgrade(TraceEvent):
    """Silent E->M upgrade on first write (MESI only)."""

    __slots__ = ("core", "line")
    kind = "mesi_upgrade"


class L2Access(TraceEvent):
    """An L2 data fetch at the home slice; ``dram`` on cold first touch."""

    __slots__ = ("line", "dram")
    kind = "l2_access"


class Writeback(TraceEvent):
    """A dirty line was written back into its L2 slice."""

    __slots__ = ("line",)
    kind = "writeback"


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

class MessageSent(TraceEvent):
    """One coherence message traversed the mesh."""

    __slots__ = ("src", "dst", "msg", "hops", "data")
    kind = "message"


# ---------------------------------------------------------------------------
# Interconnect resources (repro.coherence.links; only a contended
# ``--network`` spec emits these -- the default analytic mesh never does)
# ---------------------------------------------------------------------------

class LinkQueued(TraceEvent):
    """A message found link ``link`` busy and joined flow ``flow``'s
    egress queue at depth ``depth`` (0 = control, 1 = data)."""

    __slots__ = ("link", "flow", "depth")
    kind = "link_queued"


class LinkGranted(TraceEvent):
    """The arbiter granted link ``link`` to a message of flow ``flow``:
    it starts serializing ``flits`` flits after ``waited`` cycles of
    queueing (0 = the link was idle at offer time)."""

    __slots__ = ("link", "flow", "flits", "waited")
    kind = "link_granted"


class PortBusy(TraceEvent):
    """A message (or serialized L2 fetch) found intake/memory port
    ``port`` busy and queued at depth ``depth``."""

    __slots__ = ("port", "depth")
    kind = "port_busy"


# ---------------------------------------------------------------------------
# Synchronization / workload
# ---------------------------------------------------------------------------

class CasOutcome(TraceEvent):
    """A CAS (or TAS-as-CAS) committed; ``ok`` is the success flag."""

    __slots__ = ("core", "addr", "ok")
    kind = "cas"


class LockAttempt(TraceEvent):
    __slots__ = ("core",)
    kind = "lock_attempt"


class LockFailed(TraceEvent):
    __slots__ = ("core",)
    kind = "lock_failed"


class StmOutcome(TraceEvent):
    """A TL2 transaction attempt ended: committed or aborted."""

    __slots__ = ("core", "committed")
    kind = "stm"


# ---------------------------------------------------------------------------
# Fault injection (repro.faults)
# ---------------------------------------------------------------------------

class FaultInjected(TraceEvent):
    """The fault plan fired at a hook ``site`` (``net_jitter``,
    ``timer_skew``, ``slow_core``).  ``magnitude`` is the site-specific
    size: extra latency cycles, signed skew cycles, or the slowdown
    multiplier.  (Directory NACKs get their own ``dir_nack`` event, which
    carries the retry attempt instead.)"""

    __slots__ = ("site", "core", "magnitude")
    kind = "fault_injected"


class DirNack(TraceEvent):
    """The directory NACKed ``core``'s request for ``line`` on its
    ``attempt``-th try (fault-injected resource pressure)."""

    __slots__ = ("core", "line", "attempt")
    kind = "dir_nack"


class RetryScheduled(TraceEvent):
    """A NACKed request was scheduled for re-issue after ``delay`` cycles
    of randomized exponential backoff."""

    __slots__ = ("core", "line", "attempt", "delay")
    kind = "retry_scheduled"


# ---------------------------------------------------------------------------
# Checkpoint/restore (repro.state)
# ---------------------------------------------------------------------------

class CheckpointSaved(TraceEvent):
    """The machine's state was snapshotted at ``cycle``.  ``log_entries``
    is the length of the resume log captured with it (a rough size/depth
    measure of the checkpoint)."""

    __slots__ = ("cycle", "log_entries")
    kind = "checkpoint_saved"


class CheckpointRestored(TraceEvent):
    """A snapshot taken at ``cycle`` was restored into this machine,
    re-materializing ``threads`` thread generators from the resume log."""

    __slots__ = ("cycle", "threads")
    kind = "checkpoint_restored"


class OpCompleted(TraceEvent):
    """One data-structure operation completed (the throughput unit).

    When the worker reports its operation (all benchmark workers do), the
    event doubles as one *history record* for the :mod:`repro.check`
    linearizability checker: ``tid``/``op``/``args``/``result`` identify
    the operation and its outcome, ``start`` is the invocation cycle and
    the bus-stamped ``t`` is the response cycle.  A bare ``OpCompleted(
    core)`` (op=None) still counts for throughput but carries no history.
    """

    __slots__ = ("core", "tid", "op", "args", "result", "start")
    kind = "op_completed"
    DEFAULTS = {"tid": None, "op": None, "args": (), "result": None,
                "start": None}


# ---------------------------------------------------------------------------
# Cluster layer (repro.cluster): inter-node messages + PaxosLease
# ---------------------------------------------------------------------------

class NodeMsgSent(TraceEvent):
    """An inter-node message left ``src`` for ``dst`` over the cluster
    network; it will be delivered ``latency`` cycles later (unless it is
    also duplicated, in which case the copy draws its own latency)."""

    __slots__ = ("src", "dst", "msg", "latency")
    kind = "node_msg"


class NodeMsgDropped(TraceEvent):
    """An inter-node message was lost.  ``reason`` is ``"loss"`` for the
    random per-message loss stream or ``"partition"`` when the link is
    currently cut."""

    __slots__ = ("src", "dst", "msg", "reason")
    kind = "node_msg_dropped"


class NodeMsgDuplicated(TraceEvent):
    """The cluster network delivered a second copy of an inter-node
    message (PaxosLease must tolerate duplicates idempotently)."""

    __slots__ = ("src", "dst", "msg")
    kind = "node_msg_dup"


class PaxosRoundStarted(TraceEvent):
    """Node ``node`` opened a PaxosLease round for ``obj`` with ballot
    ``ballot``; ``extend`` marks a renewal by the current holder."""

    __slots__ = ("node", "obj", "ballot", "extend")
    kind = "paxos_round"


class ClusterLeaseAcquired(TraceEvent):
    """Node ``node`` won a majority of accepts for ``obj`` and now holds
    the cluster lease until ``expires_at`` (local clock, already shortened
    by the proposer's skew guard)."""

    __slots__ = ("node", "obj", "ballot", "expires_at")
    kind = "cluster_lease_acquired"


class ClusterLeaseExpired(TraceEvent):
    """Node ``node``'s cluster lease on ``obj`` ran out before a renewal
    round completed; the node stops treating itself as owner."""

    __slots__ = ("node", "obj", "ballot")
    kind = "cluster_lease_expired"


class ClusterLeaseReleased(TraceEvent):
    """Node ``node`` voluntarily stopped renewing ``obj`` (interest
    dropped to zero) and discarded its still-valid cluster lease."""

    __slots__ = ("node", "obj", "ballot")
    kind = "cluster_lease_released"


class ClusterGuardDenied(TraceEvent):
    """A worker on node ``node`` asked for an intra-node lease on a line
    belonging to cluster object ``obj`` while the node did not hold the
    cluster lease; the distributed manager refused the fast path."""

    __slots__ = ("node", "obj")
    kind = "cluster_guard_denied"


# ---------------------------------------------------------------------------
# Open-loop traffic (repro.traffic): admission-queue outcomes
# ---------------------------------------------------------------------------

class OpAdmitted(TraceEvent):
    """One open-loop arrival was admitted into core ``core``'s bounded
    queue (``depth`` is the queue depth right after admission; watching
    it grow toward the cap is the early-warning signal for shed)."""

    __slots__ = ("core", "tenant", "depth")
    kind = "op_admitted"


class OpShed(TraceEvent):
    """One open-loop arrival found core ``core``'s admission queue full
    and was shed -- counted against the SLO's shed budget, never run."""

    __slots__ = ("core", "tenant")
    kind = "op_shed"
