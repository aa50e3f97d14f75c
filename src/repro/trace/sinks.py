"""The stock trace sinks: counters, JSONL/ring-buffer capture, heatmap.

``CountersTracer`` folds the event stream back into the flat
:class:`~repro.stats.Counters` that reports, the energy model and the test
suite consume.  What one event of each kind does to the counters is
written down exactly once, as a row of :data:`COUNTER_RULES`, and the
rest is derived from that table:

* **the payload handlers** -- at import, every row is compiled into one
  function that takes the event's payload fields in slot order, the
  parameters of the event's generated constructor
  (:func:`~repro.trace.events.param_list`).  The bus calls these straight
  from its emit slots (``trace.message(src, dst, msg, hops, data)``), so
  the counters-only default configuration never builds an event object;
* **the object path** -- :meth:`CountersTracer.on_event` passes an
  event's slot values to the same function;
* :func:`reconcile` -- the cross-check of a captured trace's per-kind
  event counts against the run's counter totals, read off the table.

Adding a counted event kind is therefore one event class, one row and one
``Counters`` field.  Capture sinks (``JsonlTracer``, ``RingBufferTracer``)
consume every type as objects; ``ContentionHeatmap`` declares interest in
just the four kinds it reads.
"""

from __future__ import annotations

import json
from collections import deque
from typing import (IO, TYPE_CHECKING, Any, Callable, Collection, Mapping,
                    NamedTuple)

from ..stats import Counters
from ..stats.report import format_table
from . import events as ev
from .bus import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..core.machine import Machine


# ---------------------------------------------------------------------------
# The counter table
# ---------------------------------------------------------------------------

class Term(NamedTuple):
    """One counter update in a :data:`COUNTER_RULES` row."""

    op: str                      # inc, add, when, unless, peak, tally, split
    counters: tuple[str, ...]    # the counters written (a split's branches)
    field: str | None = None     # the payload field read
    values: tuple = ()           # a split's case values, parallel to counters


def inc(counter: str) -> Term:
    """``counter += 1``."""
    return Term("inc", (counter,))


def add(counter: str, field: str) -> Term:
    """``counter += field``."""
    return Term("add", (counter,), field)


def when(counter: str, field: str) -> Term:
    """``counter += 1`` when ``field`` is truthy."""
    return Term("when", (counter,), field)


def unless(counter: str, field: str) -> Term:
    """``counter += 1`` when ``field`` is falsy."""
    return Term("unless", (counter,), field)


def peak(counter: str, field: str) -> Term:
    """``counter = max(counter, field)``."""
    return Term("peak", (counter,), field)


def tally(counter: str, field: str) -> Term:
    """``counter[field] += 1`` on a dict-valued counter."""
    return Term("tally", (counter,), field)


def split(field: str, cases: Mapping[Any, str]) -> Term:
    """Exactly one of ``cases``' counters ``+= 1``: the one whose key
    ``field`` equals (``True``/``False`` keys test truthiness).  The cases
    must list every value the field takes; the last one is compiled as the
    ``else`` branch."""
    return Term("split", tuple(cases.values()), field, tuple(cases))


#: Event type -> the counter terms one event of that type moves.  Every
#: counted kind is one row; the three kinds no counter reads
#: (``req_granted``, ``eviction_issued``, ``eviction_applied``) have none.
COUNTER_RULES: dict[type, tuple[Term, ...]] = {
    ev.L1Hit: (inc("l1_hits"),),
    ev.L1Miss: (inc("l1_misses"),),
    ev.L1Evicted: (split("overflow", {True: "l1_eviction_overflows",
                                      False: "l1_evictions"}),),
    ev.MesiUpgrade: (inc("mesi_silent_upgrades"),),
    ev.L2Access: (inc("l2_accesses"), when("dram_accesses", "dram")),
    ev.Writeback: (inc("l2_accesses"), inc("writebacks")),
    ev.MessageSent: (inc("messages"), add("hops", "hops"),
                     when("data_messages", "data")),
    ev.LinkQueued: (inc("link_queued"),),
    ev.LinkGranted: (inc("link_msgs"), add("link_flits", "flits"),
                     add("link_stall_cycles", "waited")),
    ev.PortBusy: (inc("port_stalls"),),
    ev.ReqIssued: (split("req", {"GetS": "gets_requests",
                                 "GetX": "getx_requests"}),),
    ev.ReqQueued: (inc("dir_queued_requests"),
                   peak("dir_max_queue_depth", "depth")),
    ev.ProbeSent: (split("probe", {"Inv": "invalidations_sent",
                                   "Down": "downgrades_sent"}),),
    ev.ProbeServiced: (when("stale_probes", "stale"),),
    ev.ProbeDeferred: (inc("probes_deferred_mid_access"),),
    ev.LeaseProbeQueued: (inc("probes_queued_at_core"),),
    ev.LeaseRequested: (inc("leases_requested"),),
    ev.LeaseNoop: (inc("leases_noop_already_held"),),
    ev.LeaseIgnored: (inc("leases_ignored_by_predictor"),),
    ev.LeaseStarted: (inc("leases_granted"),),
    ev.LeaseReleased: (split("mode", {
        "voluntary": "releases_voluntary",
        "expired": "releases_involuntary",
        "broken": "releases_broken_by_priority",
        "fifo": "releases_fifo_eviction"}),),
    ev.MultiLeaseIssued: (inc("multilease_calls"),
                          when("multilease_ignored", "ignored")),
    ev.CasOutcome: (inc("cas_attempts"), unless("cas_failures", "ok")),
    ev.LockAttempt: (inc("lock_acquire_attempts"),),
    ev.LockFailed: (inc("lock_acquire_failures"),),
    ev.StmOutcome: (split("committed", {True: "stm_commits",
                                        False: "stm_aborts"}),),
    ev.OpCompleted: (inc("ops_completed"), tally("per_core_ops", "core")),
    ev.OpAdmitted: (inc("traffic_admitted"),),
    ev.OpShed: (inc("traffic_shed"),),
    ev.FaultInjected: (inc("faults_injected"),),
    ev.DirNack: (inc("dir_nacks"),),
    ev.RetryScheduled: (inc("dir_retries"),),
    ev.CheckpointSaved: (inc("checkpoints_saved"),),
    ev.CheckpointRestored: (inc("checkpoints_restored"),),
    ev.NodeMsgSent: (inc("node_msgs_sent"),),
    ev.NodeMsgDropped: (inc("node_msgs_dropped"),),
    ev.NodeMsgDuplicated: (inc("node_msgs_duplicated"),),
    ev.PaxosRoundStarted: (inc("paxos_rounds"),),
    ev.ClusterLeaseAcquired: (inc("cluster_leases_acquired"),),
    ev.ClusterLeaseExpired: (inc("cluster_leases_expired"),),
    ev.ClusterLeaseReleased: (inc("cluster_leases_released"),),
    ev.ClusterGuardDenied: (inc("cluster_guard_denied"),),
}

_TEMPLATES = {
    "inc": "k.{c} += 1",
    "add": "k.{c} += {f}",
    "when": "if {f}: k.{c} += 1",
    "unless": "if not {f}: k.{c} += 1",
    "peak": "if {f} > k.{c}: k.{c} = {f}",
    "tally": "k.{c}[{f}] = k.{c}.get({f}, 0) + 1",
}


def _term_lines(term: Term) -> list[str]:
    if term.op != "split":
        return [_TEMPLATES[term.op].format(c=term.counters[0], f=term.field)]
    lines = []
    last = len(term.values) - 1
    for i, (value, c) in enumerate(zip(term.values, term.counters)):
        if i == last:
            head = "else"
        else:
            test = (term.field if value is True
                    else f"not {term.field}" if value is False
                    else f"{term.field} == {value!r}")
            head = f"{'elif' if i else 'if'} {test}"
        lines.append(f"{head}: k.{c} += 1")
    return lines


def _compile(rules: Mapping[type, tuple[Term, ...]]
             ) -> Callable[[Counters], tuple[Callable[..., None], ...]]:
    """Compile the table into ``bind(counters) -> handlers`` (in row
    order).  Each handler takes its event constructor's parameters, so
    positional and keyword emit call sites both work unchanged."""
    ns: dict[str, Any] = {"__name__": __name__}
    src = ["def bind(k):"]
    for cls, terms in rules.items():
        ns[f"_{cls.kind}"] = cls.DEFAULTS
        params = ev.param_list(cls, f"_{cls.kind}")
        src.append(f"    def {cls.kind}({params}):")
        src.extend(f"        {line}" for t in terms for line in _term_lines(t))
    src.append(f"    return ({', '.join(cls.kind for cls in rules)},)")
    exec(compile("\n".join(src), "<COUNTER_RULES>", "exec"), ns)
    return ns["bind"]


#: Compiled once per process; each CountersTracer only binds its Counters.
_bind = _compile(COUNTER_RULES)


def _reconcile_pairs(rules: Mapping[type, tuple[Term, ...]]
                     ) -> tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]:
    """``(kinds, counters)`` pairs whose counter sum rises by exactly one
    per event of ``kinds``: an unconditional ``+1`` counter that no other
    term moves, or the branches of a split no other term moves.  Counters
    a snapshot leaves out cannot be checked against one and are skipped."""
    writers: dict[str, list[tuple[str, str]]] = {}  # counter -> (kind, op)s
    for cls, terms in rules.items():
        for term in terms:
            for c in term.counters:
                writers.setdefault(c, []).append((cls.kind, term.op))
    pairs: dict[tuple[str, ...], tuple[str, ...]] = {}
    for cls, terms in rules.items():
        for term in terms:
            ws = [writers[c] for c in term.counters]
            if term.op == "inc" and all(op == "inc" for _, op in ws[0]):
                pairs[term.counters] = tuple(kind for kind, _ in ws[0])
            elif term.op == "split" and all(len(w) == 1 for w in ws):
                pairs[term.counters] = (cls.kind,)
    checkable = Counters().snapshot().keys()
    return tuple((kinds, names) for names, kinds in pairs.items()
                 if checkable >= set(names))


#: Every ``(event kinds, counters)`` pair :func:`reconcile` checks.
RECONCILE_PAIRS = _reconcile_pairs(COUNTER_RULES)


class CountersTracer(Tracer):
    """Rebuilds the classic flat :class:`Counters` from the event stream.

    One instance is attached to every machine by default;
    ``machine.counters`` is this sink's ``counters`` attribute, so all
    existing result/report/energy code works unchanged.
    """

    def __init__(self, counters: Counters | None = None) -> None:
        self.counters = counters or Counters()
        self._handlers: dict[type, Callable[..., None]] = dict(
            zip(COUNTER_RULES, _bind(self.counters)))

    def on_event(self, event: ev.TraceEvent) -> None:
        handler = self._handlers.get(type(event))
        if handler is not None:
            handler(*[getattr(event, s) for s in event.__slots__])

    def interests(self) -> Collection[type]:
        return frozenset(COUNTER_RULES)

    def fast_handlers(self) -> Mapping[type, Callable[..., None]]:
        return self._handlers

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

    def on_event(self, event: ev.TraceEvent,
                 tags: Mapping[str, Any] | None = None) -> None:
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1
        self.total += 1
        if self.max_events is not None and self.written >= self.max_events:
            return
        d = event.to_dict()
        if self._extra:
            d.update(self._extra)
        if tags:
            d.update(tags)
        self._fp.write(json.dumps(d, separators=(",", ":")))
        self._fp.write("\n")
        self.written += 1

    def tagged(self, **fields: Any) -> Tracer:
        """A sink writing through this one, with ``fields`` after the
        annotations on each of its lines (and in the same counts)."""
        return _TaggedJsonl(self, fields)

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


class _TaggedJsonl(Tracer):
    """What :meth:`JsonlTracer.tagged` attaches: the tracer's lines, each
    with the tag fields added."""

    def __init__(self, jsonl: JsonlTracer, tags: dict[str, Any]) -> None:
        self._jsonl = jsonl
        self._tags = tags

    def on_event(self, event: ev.TraceEvent) -> None:
        self._jsonl.on_event(event, self._tags)


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


def reconcile(event_counts: Mapping[str, int],
              counters: Counters | Mapping[str, int]) -> list[str]:
    """Cross-check per-kind trace event counts against Counters totals.

    Returns one ``"<counters>: trace=<n> counters=<m>"`` line per
    :data:`RECONCILE_PAIRS` entry that disagrees (empty when the trace
    reconciles exactly).  ``counters`` may be a live ``Counters`` or a
    ``snapshot()`` dict.
    """
    snap = counters.snapshot() if isinstance(counters, Counters) else counters
    problems = []
    for kinds, names in RECONCILE_PAIRS:
        a = sum(event_counts.get(kind, 0) for kind in kinds)
        b = sum(snap.get(name, 0) for name in names)
        if a != b:
            problems.append(f"{'+'.join(names)}: trace={a} counters={b}")
    return problems
