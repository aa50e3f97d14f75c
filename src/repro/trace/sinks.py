"""The stock trace sinks: counters, JSONL/ring-buffer capture, heatmap.

``CountersTracer`` is what keeps the rest of the repo oblivious to the
refactor: it folds the event stream back into the flat
:class:`~repro.stats.Counters` that reports, the energy model and the test
suite consume.  Because the counters are now *derived* from the same events
a trace captures, any written trace reconciles with the run's counter
totals by construction -- :func:`reconcile` checks exactly that.

``CountersTracer`` additionally provides *fast handlers* (see
:meth:`~repro.trace.bus.Tracer.fast_handlers`): payload-level callables
that update the same counters by the same arithmetic without an event
object ever being built.  When it is the only consumer of an event type --
the default machine configuration -- the bus routes that type through
these handlers and the per-event allocation disappears from the hot loop.
Capture sinks (``JsonlTracer``, ``RingBufferTracer``) consume every type
as objects, so attaching one restores the full construct-and-fan-out path;
``ContentionHeatmap`` declares interest in just the four kinds it reads.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, TYPE_CHECKING, Any, Callable, Collection, Mapping

from ..stats import Counters
from ..stats.report import format_table
from . import events as ev
from .bus import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..core.machine import Machine


class CountersTracer(Tracer):
    """Rebuilds the classic flat :class:`Counters` from the event stream.

    One instance is attached to every machine by default;
    ``machine.counters`` is this sink's ``counters`` attribute, so all
    existing result/report/energy code works unchanged.
    """

    def __init__(self, counters: Counters | None = None) -> None:
        self.counters = counters or Counters()
        k = self.counters
        # type -> handler; dispatch is one dict lookup per event.
        self._handlers: dict[type, Callable[[Any], None]] = {
            ev.L1Hit: lambda e: self._bump("l1_hits"),
            ev.L1Miss: lambda e: self._bump("l1_misses"),
            ev.L1Evicted: self._on_l1_evicted,
            ev.MesiUpgrade: lambda e: self._bump("mesi_silent_upgrades"),
            ev.L2Access: self._on_l2_access,
            ev.Writeback: self._on_writeback,
            ev.MessageSent: self._on_message,
            ev.LinkQueued: lambda e: self._bump("link_queued"),
            ev.LinkGranted: self._on_link_granted,
            ev.PortBusy: lambda e: self._bump("port_stalls"),
            ev.ReqIssued: self._on_req_issued,
            ev.ReqQueued: self._on_req_queued,
            ev.ProbeSent: self._on_probe_sent,
            ev.ProbeServiced: self._on_probe_serviced,
            ev.ProbeDeferred: lambda e: self._bump(
                "probes_deferred_mid_access"),
            ev.LeaseProbeQueued: lambda e: self._bump(
                "probes_queued_at_core"),
            ev.LeaseRequested: lambda e: self._bump("leases_requested"),
            ev.LeaseNoop: lambda e: self._bump("leases_noop_already_held"),
            ev.LeaseIgnored: lambda e: self._bump(
                "leases_ignored_by_predictor"),
            ev.LeaseStarted: lambda e: self._bump("leases_granted"),
            ev.LeaseReleased: self._on_lease_released,
            ev.MultiLeaseIssued: self._on_multilease,
            ev.CasOutcome: self._on_cas,
            ev.LockAttempt: lambda e: self._bump("lock_acquire_attempts"),
            ev.LockFailed: lambda e: self._bump("lock_acquire_failures"),
            ev.StmOutcome: self._on_stm,
            ev.OpCompleted: lambda e: k.note_op(e.core),
            ev.OpAdmitted: lambda e: self._bump("traffic_admitted"),
            ev.OpShed: lambda e: self._bump("traffic_shed"),
            ev.FaultInjected: lambda e: self._bump("faults_injected"),
            ev.DirNack: lambda e: self._bump("dir_nacks"),
            ev.RetryScheduled: lambda e: self._bump("dir_retries"),
            ev.CheckpointSaved: lambda e: self._bump("checkpoints_saved"),
            ev.CheckpointRestored: lambda e: self._bump(
                "checkpoints_restored"),
            ev.NodeMsgSent: lambda e: self._bump("node_msgs_sent"),
            ev.NodeMsgDropped: lambda e: self._bump("node_msgs_dropped"),
            ev.NodeMsgDuplicated: lambda e: self._bump(
                "node_msgs_duplicated"),
            ev.PaxosRoundStarted: lambda e: self._bump("paxos_rounds"),
            ev.ClusterLeaseAcquired: lambda e: self._bump(
                "cluster_leases_acquired"),
            ev.ClusterLeaseExpired: lambda e: self._bump(
                "cluster_leases_expired"),
            ev.ClusterLeaseReleased: lambda e: self._bump(
                "cluster_leases_released"),
            ev.ClusterGuardDenied: lambda e: self._bump(
                "cluster_guard_denied"),
        }
        self._release_fields = {
            "voluntary": "releases_voluntary",
            "expired": "releases_involuntary",
            "broken": "releases_broken_by_priority",
            "fifo": "releases_fifo_eviction",
        }

    def _bump(self, field: str) -> None:
        k = self.counters
        setattr(k, field, getattr(k, field) + 1)

    # -- composite handlers -------------------------------------------------

    def _on_l1_evicted(self, e: ev.L1Evicted) -> None:
        if e.overflow:
            self.counters.l1_eviction_overflows += 1
        else:
            self.counters.l1_evictions += 1

    def _on_l2_access(self, e: ev.L2Access) -> None:
        k = self.counters
        k.l2_accesses += 1
        if e.dram:
            k.dram_accesses += 1

    def _on_writeback(self, e: ev.Writeback) -> None:
        k = self.counters
        k.l2_accesses += 1
        k.writebacks += 1

    def _on_message(self, e: ev.MessageSent) -> None:
        k = self.counters
        k.messages += 1
        k.hops += e.hops
        if e.data:
            k.data_messages += 1

    def _on_link_granted(self, e: ev.LinkGranted) -> None:
        k = self.counters
        k.link_msgs += 1
        k.link_flits += e.flits
        k.link_stall_cycles += e.waited

    def _on_req_issued(self, e: ev.ReqIssued) -> None:
        if e.req == "GetS":
            self.counters.gets_requests += 1
        else:
            self.counters.getx_requests += 1

    def _on_req_queued(self, e: ev.ReqQueued) -> None:
        k = self.counters
        k.dir_queued_requests += 1
        if e.depth > k.dir_max_queue_depth:
            k.dir_max_queue_depth = e.depth

    def _on_probe_sent(self, e: ev.ProbeSent) -> None:
        if e.probe == "Inv":
            self.counters.invalidations_sent += 1
        else:
            self.counters.downgrades_sent += 1

    def _on_probe_serviced(self, e: ev.ProbeServiced) -> None:
        if e.stale:
            self.counters.stale_probes += 1

    def _on_lease_released(self, e: ev.LeaseReleased) -> None:
        self._bump(self._release_fields[e.mode])

    def _on_multilease(self, e: ev.MultiLeaseIssued) -> None:
        k = self.counters
        k.multilease_calls += 1
        if e.ignored:
            k.multilease_ignored += 1

    def _on_cas(self, e: ev.CasOutcome) -> None:
        k = self.counters
        k.cas_attempts += 1
        if not e.ok:
            k.cas_failures += 1

    def _on_stm(self, e: ev.StmOutcome) -> None:
        if e.committed:
            self.counters.stm_commits += 1
        else:
            self.counters.stm_aborts += 1

    # -- sink interface -----------------------------------------------------

    def on_event(self, event: ev.TraceEvent) -> None:
        handler = self._handlers.get(type(event))
        if handler is not None:
            handler(event)

    def interests(self) -> Collection[type]:
        return frozenset(self._handlers)

    def fast_handlers(self) -> Mapping[type, Callable[..., None]]:
        """Payload-level counter updates, bit-identical to the event-object
        handlers above (the test suite asserts equality across both paths).
        Parameter names mirror each event constructor so keyword call sites
        work on either path."""
        k = self.counters
        release_fields = self._release_fields

        def l1_hit(core, line):
            k.l1_hits += 1

        def l1_miss(core, line):
            k.l1_misses += 1

        def l1_evicted(core, line, overflow):
            if overflow:
                k.l1_eviction_overflows += 1
            else:
                k.l1_evictions += 1

        def mesi_upgrade(core, line):
            k.mesi_silent_upgrades += 1

        def l2_access(line, dram):
            k.l2_accesses += 1
            if dram:
                k.dram_accesses += 1

        def writeback(line):
            k.l2_accesses += 1
            k.writebacks += 1

        def message(src, dst, msg, hops, data):
            k.messages += 1
            k.hops += hops
            if data:
                k.data_messages += 1

        def link_queued(link, flow, depth):
            k.link_queued += 1

        def link_granted(link, flow, flits, waited):
            k.link_msgs += 1
            k.link_flits += flits
            k.link_stall_cycles += waited

        def port_busy(port, depth):
            k.port_stalls += 1

        def req_issued(core, line, req, is_lease):
            if req == "GetS":
                k.gets_requests += 1
            else:
                k.getx_requests += 1

        def req_queued(core, line, depth):
            k.dir_queued_requests += 1
            if depth > k.dir_max_queue_depth:
                k.dir_max_queue_depth = depth

        def probe_sent(target, line, probe):
            if probe == "Inv":
                k.invalidations_sent += 1
            else:
                k.downgrades_sent += 1

        def probe_serviced(core, line, probe, stale, data):
            if stale:
                k.stale_probes += 1

        def probe_deferred(core, line):
            k.probes_deferred_mid_access += 1

        def lease_probe_queued(core, line):
            k.probes_queued_at_core += 1

        def lease_requested(core, line, site):
            k.leases_requested += 1

        def lease_noop(core, line):
            k.leases_noop_already_held += 1

        def lease_ignored(core, line, site):
            k.leases_ignored_by_predictor += 1

        def lease_started(core, line, duration):
            k.leases_granted += 1

        def lease_released(core, line, mode):
            f = release_fields[mode]
            setattr(k, f, getattr(k, f) + 1)

        def multilease(core, n, ignored):
            k.multilease_calls += 1
            if ignored:
                k.multilease_ignored += 1

        def cas(core, addr, ok):
            k.cas_attempts += 1
            if not ok:
                k.cas_failures += 1

        def lock_attempt(core):
            k.lock_acquire_attempts += 1

        def lock_failed(core):
            k.lock_acquire_failures += 1

        def stm(core, committed):
            if committed:
                k.stm_commits += 1
            else:
                k.stm_aborts += 1

        def op_completed(core, tid=None, op=None, args=(), result=None,
                         start=None):
            k.note_op(core)

        def op_admitted(core, tenant=0, depth=0):
            k.traffic_admitted += 1

        def op_shed(core, tenant=0):
            k.traffic_shed += 1

        def fault_injected(site, core, magnitude):
            k.faults_injected += 1

        def dir_nack(core, line, attempt):
            k.dir_nacks += 1

        def retry_scheduled(core, line, attempt, delay):
            k.dir_retries += 1

        def checkpoint_saved(cycle, log_entries):
            k.checkpoints_saved += 1

        def checkpoint_restored(cycle, threads):
            k.checkpoints_restored += 1

        def node_msg(src, dst, msg, latency):
            k.node_msgs_sent += 1

        def node_msg_dropped(src, dst, msg, reason):
            k.node_msgs_dropped += 1

        def node_msg_dup(src, dst, msg):
            k.node_msgs_duplicated += 1

        def paxos_round(node, obj, ballot, extend=False):
            k.paxos_rounds += 1

        def cluster_lease_acquired(node, obj, ballot, expires_at):
            k.cluster_leases_acquired += 1

        def cluster_lease_expired(node, obj, ballot):
            k.cluster_leases_expired += 1

        def cluster_lease_released(node, obj, ballot):
            k.cluster_leases_released += 1

        def cluster_guard_denied(node, obj):
            k.cluster_guard_denied += 1

        return {
            ev.L1Hit: l1_hit, ev.L1Miss: l1_miss, ev.L1Evicted: l1_evicted,
            ev.MesiUpgrade: mesi_upgrade, ev.L2Access: l2_access,
            ev.Writeback: writeback, ev.MessageSent: message,
            ev.LinkQueued: link_queued, ev.LinkGranted: link_granted,
            ev.PortBusy: port_busy,
            ev.ReqIssued: req_issued, ev.ReqQueued: req_queued,
            ev.ProbeSent: probe_sent, ev.ProbeServiced: probe_serviced,
            ev.ProbeDeferred: probe_deferred,
            ev.LeaseProbeQueued: lease_probe_queued,
            ev.LeaseRequested: lease_requested, ev.LeaseNoop: lease_noop,
            ev.LeaseIgnored: lease_ignored, ev.LeaseStarted: lease_started,
            ev.LeaseReleased: lease_released,
            ev.MultiLeaseIssued: multilease, ev.CasOutcome: cas,
            ev.LockAttempt: lock_attempt, ev.LockFailed: lock_failed,
            ev.StmOutcome: stm, ev.OpCompleted: op_completed,
            ev.OpAdmitted: op_admitted, ev.OpShed: op_shed,
            ev.FaultInjected: fault_injected, ev.DirNack: dir_nack,
            ev.RetryScheduled: retry_scheduled,
            ev.CheckpointSaved: checkpoint_saved,
            ev.CheckpointRestored: checkpoint_restored,
            ev.NodeMsgSent: node_msg,
            ev.NodeMsgDropped: node_msg_dropped,
            ev.NodeMsgDuplicated: node_msg_dup,
            ev.PaxosRoundStarted: paxos_round,
            ev.ClusterLeaseAcquired: cluster_lease_acquired,
            ev.ClusterLeaseExpired: cluster_lease_expired,
            ev.ClusterLeaseReleased: cluster_lease_released,
            ev.ClusterGuardDenied: cluster_guard_denied,
        }

    # -- checkpointing (repro.state) ----------------------------------------

    def state_dict(self, codec=None) -> dict:
        return self.counters.state_dict()

    def load_state(self, state: dict, codec=None) -> None:
        """Restore counter totals *in place* -- ``machine.counters`` is
        this sink's ``counters`` object and must keep its identity."""
        self.counters.load_state(state)


class RingBufferTracer(Tracer):
    """Keeps the last ``capacity`` events in memory (bounded), while
    tallying per-kind counts over the *whole* stream."""

    def __init__(self, capacity: int = 65536) -> None:
        self.buffer: deque[ev.TraceEvent] = deque(maxlen=capacity)
        self.counts: dict[str, int] = {}
        self.total = 0

    def on_event(self, event: ev.TraceEvent) -> None:
        self.buffer.append(event)
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1
        self.total += 1

    def events(self) -> list[ev.TraceEvent]:
        return list(self.buffer)

    def dump(self, fp: IO[str]) -> int:
        """Write the buffered events as JSONL; returns lines written."""
        n = 0
        for event in self.buffer:
            fp.write(json.dumps(event.to_dict(), separators=(",", ":")))
            fp.write("\n")
            n += 1
        return n


class JsonlTracer(Tracer):
    """Streams every event as one JSON line to a file (or file object).

    ``annotate(**fields)`` attaches context fields (e.g. variant name,
    thread count) to every subsequent line -- handy when one file covers a
    whole sweep.  ``max_events`` bounds the number of lines *written*;
    per-kind counts always cover the full stream so reconciliation against
    the run's counters stays exact even for truncated files.
    """

    def __init__(self, path_or_fp: str | IO[str], *,
                 max_events: int | None = None) -> None:
        if isinstance(path_or_fp, str):
            self._fp: IO[str] = open(path_or_fp, "w", encoding="utf-8")
            self._owns_fp = True
        else:
            self._fp = path_or_fp
            self._owns_fp = False
        self.max_events = max_events
        self.written = 0
        self.total = 0
        self.counts: dict[str, int] = {}
        self._extra: dict[str, Any] = {}

    def annotate(self, **fields: Any) -> None:
        """Set context fields merged into every subsequent event line."""
        self._extra = dict(fields)

    def on_event(self, event: ev.TraceEvent) -> None:
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1
        self.total += 1
        if self.max_events is not None and self.written >= self.max_events:
            return
        d = event.to_dict()
        if self._extra:
            d.update(self._extra)
        self._fp.write(json.dumps(d, separators=(",", ":")))
        self._fp.write("\n")
        self.written += 1

    def write_line(self, record: Mapping[str, Any]) -> None:
        """Write an out-of-band record (e.g. a run summary) to the file."""
        self._fp.write(json.dumps(dict(record), separators=(",", ":")))
        self._fp.write("\n")

    def close(self) -> None:
        if self._owns_fp:
            self._fp.close()
        else:
            self._fp.flush()

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class _LineStats:
    __slots__ = ("queued", "max_depth", "probes", "deferrals", "lines")

    def __init__(self) -> None:
        self.queued = 0
        self.max_depth = 0
        self.probes = 0
        self.deferrals = 0
        self.lines: set[int] = set()


class ContentionHeatmap(Tracer):
    """Per-line contention statistics keyed by symbolic allocation name.

    Aggregates directory queueing (how long requests wait behind the
    single in-flight transaction per line), probe traffic, and probe
    deferrals (lease queueing + mid-access deferral) per allocation label
    (see ``Allocator.label_of``), reproducing the paper's "messages per
    op" story at individual-variable granularity.
    """

    def __init__(self) -> None:
        self._stats: dict[str, _LineStats] = {}
        self._resolve: Callable[[int], str | None] = lambda line: None

    def bind(self, machine: "Machine") -> None:
        self._resolve = machine.alloc.label_of

    def _rec(self, line: int) -> _LineStats:
        name = self._resolve(line) or f"line#{line}"
        rec = self._stats.get(name)
        if rec is None:
            rec = self._stats[name] = _LineStats()
        rec.lines.add(line)
        return rec

    def on_event(self, event: ev.TraceEvent) -> None:
        t = type(event)
        if t is ev.ReqQueued:
            rec = self._rec(event.line)
            rec.queued += 1
            if event.depth > rec.max_depth:
                rec.max_depth = event.depth
        elif t is ev.ProbeSent:
            self._rec(event.line).probes += 1
        elif t is ev.LeaseProbeQueued or t is ev.ProbeDeferred:
            self._rec(event.line).deferrals += 1

    def interests(self) -> Collection[type]:
        """Only the four contention kinds: every other event type stays on
        the bus's allocation-free fast path while a heatmap is attached."""
        return frozenset((ev.ReqQueued, ev.ProbeSent, ev.LeaseProbeQueued,
                          ev.ProbeDeferred))

    def rows(self, top: int | None = None) -> list[dict[str, Any]]:
        """Hottest allocations first (by directory queueing, then probes)."""
        ranked = sorted(self._stats.items(),
                        key=lambda kv: (kv[1].queued, kv[1].probes),
                        reverse=True)
        if top is not None:
            ranked = ranked[:top]
        return [{
            "allocation": name,
            "lines": len(rec.lines),
            "dir_queued": rec.queued,
            "max_queue_depth": rec.max_depth,
            "probes": rec.probes,
            "probe_deferrals": rec.deferrals,
        } for name, rec in ranked]

    def report(self, top: int | None = 20) -> str:
        rows = self.rows(top)
        if not rows:
            return "(no contention recorded)"
        return format_table(rows)


#: (description, event-count expression, counter expression) triplets used
#: to cross-check a captured trace against the run's Counters totals.
_RECONCILE_RULES: tuple[tuple[str, Callable[[Mapping[str, int]], int],
                              Callable[[Mapping[str, int]], int]], ...] = (
    ("messages", lambda c: c.get("message", 0),
     lambda k: k["messages"]),
    ("l1 hits", lambda c: c.get("l1_hit", 0),
     lambda k: k["l1_hits"]),
    ("l1 misses", lambda c: c.get("l1_miss", 0),
     lambda k: k["l1_misses"]),
    ("link grants", lambda c: c.get("link_granted", 0),
     lambda k: k.get("link_msgs", 0)),
    ("link queueings", lambda c: c.get("link_queued", 0),
     lambda k: k.get("link_queued", 0)),
    ("port stalls", lambda c: c.get("port_busy", 0),
     lambda k: k.get("port_stalls", 0)),
    ("requests issued", lambda c: c.get("req_issued", 0),
     lambda k: k["gets_requests"] + k["getx_requests"]),
    ("requests queued", lambda c: c.get("req_queued", 0),
     lambda k: k["dir_queued_requests"]),
    ("probes sent", lambda c: c.get("probe_sent", 0),
     lambda k: k["invalidations_sent"] + k["downgrades_sent"]),
    ("writebacks", lambda c: c.get("writeback", 0),
     lambda k: k["writebacks"]),
    ("l2 accesses", lambda c: c.get("l2_access", 0) + c.get("writeback", 0),
     lambda k: k["l2_accesses"]),
    ("leases requested", lambda c: c.get("lease_requested", 0),
     lambda k: k["leases_requested"]),
    ("leases started", lambda c: c.get("lease_started", 0),
     lambda k: k["leases_granted"]),
    ("probes queued at cores", lambda c: c.get("lease_probe_queued", 0),
     lambda k: k["probes_queued_at_core"]),
    ("multilease calls", lambda c: c.get("multilease", 0),
     lambda k: k["multilease_calls"]),
    ("cas attempts", lambda c: c.get("cas", 0),
     lambda k: k["cas_attempts"]),
    ("lock attempts", lambda c: c.get("lock_attempt", 0),
     lambda k: k["lock_acquire_attempts"]),
    ("stm attempts", lambda c: c.get("stm", 0),
     lambda k: k["stm_commits"] + k["stm_aborts"]),
    ("ops completed", lambda c: c.get("op_completed", 0),
     lambda k: k["ops_completed"]),
    ("ops admitted", lambda c: c.get("op_admitted", 0),
     lambda k: k.get("traffic_admitted", 0)),
    ("ops shed", lambda c: c.get("op_shed", 0),
     lambda k: k.get("traffic_shed", 0)),
    ("faults injected", lambda c: c.get("fault_injected", 0),
     lambda k: k["faults_injected"]),
    ("directory nacks", lambda c: c.get("dir_nack", 0),
     lambda k: k["dir_nacks"]),
    ("retries scheduled", lambda c: c.get("retry_scheduled", 0),
     lambda k: k["dir_retries"]),
    ("node messages sent", lambda c: c.get("node_msg", 0),
     lambda k: k.get("node_msgs_sent", 0)),
    ("node messages dropped", lambda c: c.get("node_msg_dropped", 0),
     lambda k: k.get("node_msgs_dropped", 0)),
    ("node messages duplicated", lambda c: c.get("node_msg_dup", 0),
     lambda k: k.get("node_msgs_duplicated", 0)),
    ("paxos rounds", lambda c: c.get("paxos_round", 0),
     lambda k: k.get("paxos_rounds", 0)),
    ("cluster leases acquired", lambda c: c.get("cluster_lease_acquired", 0),
     lambda k: k.get("cluster_leases_acquired", 0)),
    ("cluster leases expired", lambda c: c.get("cluster_lease_expired", 0),
     lambda k: k.get("cluster_leases_expired", 0)),
    ("cluster leases released", lambda c: c.get("cluster_lease_released", 0),
     lambda k: k.get("cluster_leases_released", 0)),
    ("cluster guard denials", lambda c: c.get("cluster_guard_denied", 0),
     lambda k: k.get("cluster_guard_denied", 0)),
)


def reconcile(event_counts: Mapping[str, int],
              counters: Counters | Mapping[str, int]) -> list[str]:
    """Cross-check per-kind trace event counts against Counters totals.

    Returns a list of human-readable mismatch descriptions (empty when the
    trace reconciles exactly).  ``counters`` may be a live ``Counters`` or
    a ``snapshot()`` dict.
    """
    snap = counters.snapshot() if isinstance(counters, Counters) else counters
    problems = []
    for desc, from_events, from_counters in _RECONCILE_RULES:
        a, b = from_events(event_counts), from_counters(snap)
        if a != b:
            problems.append(f"{desc}: trace={a} counters={b}")
    return problems
