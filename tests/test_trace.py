"""The instrumentation bus: taxonomy, sinks, reconciliation, invariants."""

import dataclasses
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, MachineConfig
from repro.coherence.messages import MessageKind
from repro.errors import ProtocolError
from repro.stats import Counters
from repro.trace import (ContentionHeatmap, CountersTracer, InvariantTracer,
                         JsonlTracer, NullTracer, RingBufferTracer, TraceBus,
                         reconcile)
from repro.trace import events as ev
from repro.trace.bus import EVENT_TYPES
from repro.trace.sinks import COUNTER_RULES, RECONCILE_PAIRS
from repro.workloads.driver import bench_counter, bench_queue, bench_stack

from conftest import make_machine


# -- events -----------------------------------------------------------------

def test_event_to_dict_includes_kind_time_and_payload():
    e = ev.ReqIssued(3, 17, "GetX", True)
    e.t = 42
    d = e.to_dict()
    assert d == {"kind": "req_issued", "t": 42, "core": 3, "line": 17,
                 "req": "GetX", "is_lease": True}


def test_every_event_kind_is_unique():
    kinds = [cls.kind for cls in vars(ev).values()
             if isinstance(cls, type) and issubclass(cls, ev.TraceEvent)
             and cls is not ev.TraceEvent]
    assert len(kinds) == len(set(kinds))


def test_lease_release_modes_cover_counter_fields():
    (term,) = COUNTER_RULES[ev.LeaseReleased]
    assert term.field == "mode"
    assert sorted(term.values) == sorted(ev.LeaseReleased.MODES)


# -- bus --------------------------------------------------------------------

def test_bus_without_sinks_is_a_noop():
    bus = TraceBus()
    bus.emit(ev.L1Hit(0, 0))        # must not raise


def test_bus_stamps_time_and_fans_out():
    now = [0]
    ring_a, ring_b = RingBufferTracer(), RingBufferTracer()
    bus = TraceBus(clock=lambda: now[0], sinks=(ring_a,))
    bus.attach(ring_b)
    now[0] = 7
    bus.emit(ev.L1Hit(0, 5))
    assert ring_a.events()[0].t == 7
    assert ring_b.events()[0].t == 7
    bus.detach(ring_b)
    bus.emit(ev.L1Hit(0, 6))
    assert ring_a.total == 2 and ring_b.total == 1


def test_null_tracer_drops_everything():
    bus = TraceBus(sinks=(NullTracer(),))
    bus.emit(ev.L1Hit(0, 0))        # must not raise


# -- counters sink ----------------------------------------------------------

def test_counters_sink_rebuilds_classic_counters():
    sink = CountersTracer()
    bus = TraceBus(sinks=(sink,))
    bus.emit(ev.L1Hit(0, 1))
    bus.emit(ev.L1Miss(0, 2))
    bus.emit(ev.MessageSent(0, 3, "GetS", 2, False))
    bus.emit(ev.ReqIssued(0, 2, "GetS", False))
    bus.emit(ev.ReqIssued(1, 2, "GetX", False))
    bus.emit(ev.ReqQueued(1, 2, 3))
    bus.emit(ev.ProbeSent(0, 2, "Inv"))
    bus.emit(ev.ProbeServiced(0, 2, "Inv", stale=True, data=False))
    bus.emit(ev.LeaseReleased(0, 2, "fifo"))
    bus.emit(ev.CasOutcome(0, 64, False))
    bus.emit(ev.OpCompleted(1))
    k = sink.counters
    assert k.l1_hits == 1 and k.l1_misses == 1
    assert k.messages == 1 and k.hops == 2
    assert k.gets_requests == 1 and k.getx_requests == 1
    assert k.dir_queued_requests == 1 and k.dir_max_queue_depth == 3
    assert k.invalidations_sent == 1 and k.stale_probes == 1
    assert k.releases_fifo_eviction == 1
    assert k.cas_attempts == 1 and k.cas_failures == 1
    assert k.ops_completed == 1 and k.per_core_ops == {1: 1}


# -- the counter table ------------------------------------------------------

#: The event kinds no counter reads.
UNCOUNTED = {ev.ReqGranted, ev.EvictionIssued, ev.EvictionApplied}

#: Every value an enumerated payload field takes (what a split must cover).
ENUMS = {"req": (MessageKind.GETS.val, MessageKind.GETX.val),
         "probe": (MessageKind.INV.val, MessageKind.DOWNGRADE.val),
         "mode": ev.LeaseReleased.MODES}


def _written(terms):
    return {c for t in terms for c in t.counters}


def test_every_event_type_is_a_row_or_uncounted():
    assert set(EVENT_TYPES) == set(COUNTER_RULES) | UNCOUNTED
    assert not UNCOUNTED & set(COUNTER_RULES)


def test_rows_write_exactly_the_counters_fields():
    k = Counters()
    scalars = {f.name for f in dataclasses.fields(k)
               if isinstance(getattr(k, f.name), int)}
    written = set().union(*map(_written, COUNTER_RULES.values()))
    assert written == scalars | {"per_core_ops"}


def test_splits_cover_their_fields():
    splits = {t.field: t.values for terms in COUNTER_RULES.values()
              for t in terms if t.op == "split"}
    for field, values in splits.items():
        domain = ENUMS.get(field, (True, False))
        assert sorted(values, key=str) == sorted(domain, key=str), field


def _apply(k, term, payload):
    """Reference semantics of one table term (what the compiled handlers
    must reproduce)."""
    v = payload.get(term.field)
    c = term.counters[0]
    if term.op == "add":
        setattr(k, c, getattr(k, c) + v)
    elif term.op == "peak":
        setattr(k, c, max(getattr(k, c), v))
    elif term.op == "tally":
        getattr(k, c)[v] = getattr(k, c).get(v, 0) + 1
    else:
        if term.op == "split":
            c = next(c for value, c in zip(term.values, term.counters)
                     if (bool(v) if isinstance(value, bool) else v) == value)
        elif term.op == "when" and not v or term.op == "unless" and v:
            return
        setattr(k, c, getattr(k, c) + 1)


def _payloads(cls):
    return st.lists(st.fixed_dictionaries({
        name: (st.sampled_from(ENUMS[name]) if name in ENUMS
               else st.one_of(st.booleans(), st.integers(0, 64)))
        for name in cls.__slots__}), min_size=1, max_size=4)


@pytest.mark.parametrize("cls", list(COUNTER_RULES), ids=lambda c: c.kind)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_row_paths_agree(cls, data):
    """Positional slot calls, keyword slot calls and object delivery all
    run the same compiled row, and it does what the table says."""
    payloads = data.draw(_payloads(cls))
    positional, keyword = (TraceBus(sinks=(CountersTracer(),))
                           for _ in range(2))
    objects = CountersTracer()
    expected = Counters()
    for p in payloads:
        getattr(positional, cls.kind)(*[p[s] for s in cls.__slots__])
        getattr(keyword, cls.kind)(**p)
        objects.on_event(cls(**p))
        for term in COUNTER_RULES[cls]:
            _apply(expected, term, p)
    assert positional.sinks[0].counters == expected
    assert keyword.sinks[0].counters == expected
    assert objects.counters == expected


# -- the fast path ----------------------------------------------------------

def test_counters_only_bus_skips_event_objects():
    # With only fast-handler sinks attached, no type needs the object...
    bus = TraceBus(sinks=(CountersTracer(),))
    assert not bus.wants(ev.L1Hit)
    assert not bus.wants(ev.MessageSent)
    # ...yet the slots still feed the counters.
    bus.l1_hit(0, 1)
    bus.message(0, 3, "GetS", 2, False)
    k = bus.sinks[0].counters
    assert k.l1_hits == 1 and k.messages == 1 and k.hops == 2


def test_object_sink_forces_slow_slot_for_its_types_only():
    heat = ContentionHeatmap()
    bus = TraceBus(sinks=(CountersTracer(), heat))
    # The heatmap wants objects for its four kinds; everything else stays
    # on the allocation-free path.
    assert bus.wants(ev.ReqQueued) and bus.wants(ev.ProbeDeferred)
    assert not bus.wants(ev.L1Hit) and not bus.wants(ev.MessageSent)
    # Through the slow slot both sinks still see the event exactly once.
    bus.req_queued(1, 2, 5)
    assert bus.sinks[0].counters.dir_queued_requests == 1
    (row,) = heat.rows()
    assert row["dir_queued"] == 1 and row["max_queue_depth"] == 5
    bus.detach(heat)
    assert not bus.wants(ev.ReqQueued)


def test_ring_buffer_keeps_every_type_on_slow_path():
    ring = RingBufferTracer()
    bus = TraceBus(clock=lambda: 42, sinks=(ring,))
    # interests() is None -> all types delivered as objects, clock-stamped.
    assert bus.wants(ev.L1Hit) and bus.wants(ev.CasOutcome)
    bus.l1_hit(0, 9)
    (e,) = ring.events()
    assert isinstance(e, ev.L1Hit) and e.t == 42 and e.line == 9


def test_every_event_kind_has_a_bus_slot():
    from repro.trace.bus import EVENT_TYPES
    bus = TraceBus()
    for cls in EVENT_TYPES:
        assert callable(getattr(bus, cls.kind)), cls


# -- observation does not perturb the run -----------------------------------

def _run_stack(sinks):
    return bench_stack(4, variant="lease", ops_per_thread=30, sinks=sinks)


def test_run_result_identical_with_and_without_sinks():
    bare = _run_stack(None)
    ring = RingBufferTracer(capacity=256)
    heat = ContentionHeatmap()
    jsonl = JsonlTracer(io.StringIO())
    traced = _run_stack([ring, heat, jsonl])
    # Dataclass equality covers every field, including the full counter
    # snapshot -- observation must never change the simulation.
    assert bare == traced
    assert ring.total > 0


def test_jsonl_trace_reconciles_with_counters():
    buf = io.StringIO()
    jsonl = JsonlTracer(buf)
    res = bench_queue(4, variant="lease", ops_per_thread=20, sinks=[jsonl])
    assert reconcile(jsonl.counts, res.counters) == []
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(lines) == jsonl.written == jsonl.total
    by_kind = {}
    for d in lines:
        by_kind[d["kind"]] = by_kind.get(d["kind"], 0) + 1
    assert by_kind == jsonl.counts


def test_reconcile_reports_mismatches():
    res = bench_stack(2, variant="base", ops_per_thread=10)
    problems = reconcile({"message": 0}, res.counters)
    assert any(p.startswith("messages:") for p in problems)


@pytest.fixture(scope="module")
def traced_stack():
    ring = RingBufferTracer(capacity=1)
    res = bench_stack(4, variant="lease", ops_per_thread=20, sinks=[ring])
    return ring.counts, res.counters


@pytest.mark.parametrize("names", [names for _, names in RECONCILE_PAIRS],
                         ids="+".join)
def test_reconcile_catches_each_miscounted_pair(traced_stack, names):
    counts, snap = traced_stack
    assert reconcile(counts, snap) == []
    bumped = {**snap, names[0]: snap[names[0]] + 1}
    assert [p.split(":")[0] for p in reconcile(counts, bumped)] == [
        "+".join(names)]


def test_unreconciled_counters_are_the_payload_dependent_ones():
    written = set().union(*map(_written, COUNTER_RULES.values()))
    checked = {c for _, names in RECONCILE_PAIRS for c in names}
    assert written - checked == {
        "hops", "data_messages", "dram_accesses", "link_flits",
        "link_stall_cycles", "dir_max_queue_depth", "stale_probes",
        "multilease_ignored", "cas_failures", "per_core_ops",
        # excluded from snapshot(), which is what reconcile() reads
        "checkpoints_saved", "checkpoints_restored"}


def test_jsonl_max_events_truncates_file_not_counts():
    buf = io.StringIO()
    jsonl = JsonlTracer(buf, max_events=10)
    res = bench_stack(2, variant="base", ops_per_thread=10, sinks=[jsonl])
    assert jsonl.written == 10
    assert jsonl.total > 10
    assert len(buf.getvalue().splitlines()) == 10
    assert reconcile(jsonl.counts, res.counters) == []


def test_jsonl_annotate_adds_context_fields():
    buf = io.StringIO()
    jsonl = JsonlTracer(buf)
    jsonl.annotate(variant="lease", threads=2)
    bench_stack(2, variant="lease", ops_per_thread=5, sinks=[jsonl])
    first = json.loads(buf.getvalue().splitlines()[0])
    assert first["variant"] == "lease" and first["threads"] == 2


def test_ring_buffer_is_bounded():
    ring = RingBufferTracer(capacity=32)
    bench_stack(2, variant="base", ops_per_thread=20, sinks=[ring])
    assert len(ring.events()) == 32
    assert ring.total > 32
    out = io.StringIO()
    assert ring.dump(out) == 32


# -- heatmap ----------------------------------------------------------------

def test_heatmap_names_hot_allocations():
    heat = ContentionHeatmap()
    bench_stack(4, variant="base", ops_per_thread=30, sinks=[heat])
    rows = heat.rows(top=1)
    assert rows[0]["allocation"] == "stack.head"
    assert rows[0]["dir_queued"] > 0
    assert "stack.head" in heat.report()


def test_heatmap_falls_back_to_line_number():
    heat = ContentionHeatmap()
    bus = TraceBus(sinks=(heat,))
    bus.emit(ev.ReqQueued(0, 123, 1))
    assert heat.rows()[0]["allocation"] == "line#123"


# -- invariant checker ------------------------------------------------------

def test_invariant_tracer_passes_on_lease_runs():
    inv = InvariantTracer()
    bench_stack(4, variant="lease", ops_per_thread=20, sinks=[inv])
    assert inv.checks_run > 100


def test_invariant_tracer_passes_on_lock_runs():
    inv = InvariantTracer()
    bench_counter(4, use_lease=True, ops_per_thread=20, sinks=[inv])
    assert inv.checks_run > 0


def test_invariant_tracer_passes_under_mesi(machine):
    inv = InvariantTracer()
    cfg = MachineConfig(num_cores=4, protocol="mesi")
    m = Machine(cfg)
    m.attach_tracer(inv)
    from repro.structures import TreiberStack
    s = TreiberStack(m)
    s.prefill(range(8))
    for _ in range(4):
        m.add_thread(s.update_worker, 10)
    m.run()
    assert inv.checks_run > 0


def test_invariant_tracer_detects_corrupted_l1():
    """Corrupt a core's L1 behind the directory's back: the continuous
    checker must flag the disagreement on the next event."""
    from repro.coherence.states import LineState

    from repro import Load

    m = make_machine(2)
    inv = m.attach_tracer(InvariantTracer())
    addr = m.alloc_var(1)

    def body(ctx):
        yield Load(addr)            # directory now tracks the line (SHARED)

    m.add_thread(body)
    m.run()
    line = m.amap.line_of(addr)
    # Core 1 conjures the line in M without any coherence transaction.
    m.cores[1].memunit.l1.fill(line, LineState.M)
    with pytest.raises(ProtocolError, match="invariant violated"):
        m.trace.emit(ev.OpCompleted(0))
    assert inv.checks_run > 0


def test_invariant_tracer_accepts_one_invalidation_deferred_twice():
    """At 4 threads on the base arm a GetX invalidates sharers that are
    still waiting for their own data, and two of them defer the same
    request's probe: one transaction in flight, two probes queued."""
    inv = InvariantTracer()
    bench_stack(4, variant="base", ops_per_thread=4, sinks=[inv])
    assert inv.checks_run > 100


def _defer_probe(m, core, req):
    """Leave ``core`` with ``req``'s probe deferred behind a granted access
    to the same line, as ``MemUnit.handle_probe`` does."""
    from repro.coherence.directory import Request
    from repro.coherence.memunit import Probe, _Outstanding

    own = Request(MessageKind.GETS, req.line, core, False, lambda: None)
    out = _Outstanding(own, own.callback)
    out.granted = True
    out.deferred_probe = Probe(req.line, MessageKind.INV, False, req, core)
    m.cores[core].memunit._outstanding = out


@pytest.mark.parametrize("distinct", [False, True], ids=["one", "two"])
def test_invariant_tracer_counts_requests_queued_on_a_line(distinct):
    from repro.coherence.directory import Request

    m = make_machine(3)
    inv = m.attach_tracer(InvariantTracer())
    first = Request(MessageKind.GETX, 64, 0, False, lambda: None)
    second = (Request(MessageKind.GETX, 64, 0, False, lambda: None)
              if distinct else first)
    _defer_probe(m, 1, first)
    _defer_probe(m, 2, second)
    if distinct:
        with pytest.raises(ProtocolError, match="2 requests queued at cores"):
            inv.check()
    else:
        inv.check()


def test_invariant_tracer_counts_every_cell_it_serves():
    """``run --invariants`` hands one tracer to every sweep cell; its
    count is the sum of what each cell checks alone."""
    from repro.harness.runner import sweep

    alone = []
    for n in (2, 4):
        inv = InvariantTracer()
        bench_stack(n, variant="lease", ops_per_thread=4, sinks=[inv])
        alone.append(inv.checks_run)
    shared = InvariantTracer()
    sweep(bench_stack, {"lease": {"variant": "lease"}}, (2, 4),
          ops_per_thread=4, sinks=[shared])
    assert shared.checks_run == sum(alone)


def test_invariant_tracer_requires_bind():
    inv = InvariantTracer()
    with pytest.raises(ProtocolError):
        inv.check()


# -- machine integration -----------------------------------------------------

def test_machine_counters_are_the_default_sink(machine):
    assert machine.counters is machine.trace.sinks[0].counters


def test_attach_tracer_binds_and_detaches(machine):
    heat = ContentionHeatmap()
    assert machine.attach_tracer(heat) is heat
    assert heat in machine.trace.sinks
    machine.detach_tracer(heat)
    assert heat not in machine.trace.sinks


def test_allocator_labels_resolve():
    m = make_machine(2)
    addr = m.alloc_var(0, label="spot")
    assert m.alloc.label_of(m.amap.line_of(addr)) == "spot"
    assert m.alloc.label_of(10**9) is None
