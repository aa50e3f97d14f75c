"""The microbenchmark targets: one per simulator hot loop.

Each target is a plain function ``fn(quick: bool, fault_spec: str = "",
seed: int | None = None) -> dict`` that performs
one complete iteration of its workload and reports::

    {"ops": <units of work>,            # denominator of ops/sec
     "events": <simulator events> | None,
     "extra": {...}}                    # target-specific findings

The :mod:`~repro.bench.runner` repeats the call, times it, measures peak
heap on a separate pass, and normalizes against a per-machine calibration
loop.

Targets cover the loops that dominate figure-reproduction wall-clock:

* ``event_queue``      -- raw schedule/cancel/pop/peek churn (the
  tuple-keyed heap and its dead-seq compaction);
* ``coherence_storm``  -- every core storing to one line: maximal
  invalidation/message traffic through directory + network;
* ``treiber``          -- the paper's contended Treiber stack run;
* ``counter``          -- the contended TTS+lease lock counter;
* ``sweep_cell``       -- one full fig2-style sweep cell (both variants),
  the unit every figure reproduction multiplies;
* ``sync_ablation``    -- the contention-management zoo: all 6 policies x
  3 structures through the workload driver, reporting lease-vs-software
  headline ratios;
* ``fault_degradation`` -- contended Treiber stack throughput under an
  escalating fault-rate grid, reporting simulated-throughput degradation
  relative to the fault-free run;
* ``snapshot_roundtrip`` -- mid-run checkpoint save + restore roundtrip
  (``repro.state``), asserting restored runs stay bit-identical;
* ``tail_latency``      -- open-loop arrivals into the contended counter
  (``repro.traffic``), asserting latency histograms bit-identical
  across a mid-run checkpoint/restore cut;
* ``cluster_scale``     -- sharded-counter cluster throughput vs node
  count (``repro.cluster``): N machines under one clock with PaxosLease
  negotiating shard ownership over a mildly lossy network;
* ``link_saturation``   -- lease vs baseline on the hot-cell counter
  over finite-bandwidth links (``repro.coherence.links``), asserting
  leases reduce flits and link-stall cycles under saturation.

``fault_spec`` threads a :mod:`repro.faults` spec into the targets that
build a machine; ``seed`` reseeds those machines (CLI ``--seed``, for
parity with run/trace/check).  The pure-scheduler ``event_queue`` target
accepts and ignores them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from ..config import MachineConfig
from ..core.machine import Machine
from ..engine.event_queue import EventQueue
from ..workloads.table import populate


def _lease_config(num_cores: int, fault_spec: str = "",
                  seed: int | None = None,
                  **lease_kw: Any) -> MachineConfig:
    cfg = MachineConfig(num_cores=num_cores, fault_spec=fault_spec)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return replace(cfg, lease=replace(cfg.lease, enabled=True, **lease_kw))


# ---------------------------------------------------------------------------
# Raw event-queue churn
# ---------------------------------------------------------------------------

def bench_event_queue(quick: bool, fault_spec: str = "",
                      seed: int | None = None) -> dict:
    """Schedule/cancel/pop/peek churn on a bare :class:`EventQueue` --
    no machine, pure scheduler cost (heap ops, dead-seq skips,
    compaction).  No machine, so ``fault_spec`` and ``seed`` are
    ignored."""
    n = 30_000 if quick else 150_000
    q = EventQueue()
    fn = lambda: None  # noqa: E731 - payload is irrelevant here
    ops = 0
    state = 0x2545F491
    timer = None
    for i in range(n):
        # Deterministic xorshift times: spread, with plenty of ties.
        state ^= (state << 13) & 0xFFFFFFFF
        state ^= state >> 17
        state ^= (state << 5) & 0xFFFFFFFF
        # Every third event is a timer, cancelled one schedule later (the
        # lease-expiry churn pattern); exercises lazy-dead-entry compaction.
        if i % 3 == 1:
            timer = q.schedule_cancellable(state % 4096, fn)
        else:
            q.schedule(state % 4096, fn)
        ops += 1
        if i % 3 == 2:
            q.cancel(timer)
            ops += 1
        if i % 64 == 0:
            q.peek_time()
            ops += 1
    while q.pop() is not None:
        ops += 1
    return {"ops": ops, "events": n, "extra": {"final_heap": q.heap_size}}


# ---------------------------------------------------------------------------
# Coherence message storm
# ---------------------------------------------------------------------------

def bench_coherence_storm(quick: bool, fault_spec: str = "",
                          seed: int | None = None) -> dict:
    """Every core stores to the same line in a tight loop: maximal
    invalidation + directory-queue traffic (the paper's worst case)."""
    from ..core.isa import Store

    cores = 4 if quick else 8
    rounds = 150 if quick else 300
    cfg = MachineConfig(num_cores=cores, fault_spec=fault_spec)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    m = Machine(cfg)
    addr = m.alloc_var(0, label="storm.line")

    def body(ctx):
        for i in range(rounds):
            yield Store(addr, i)
        ctx.note_op()

    for _ in range(cores):
        m.add_thread(body)
    m.run()
    return {"ops": cores * rounds, "events": m.sim.events_processed,
            "extra": {"messages": m.counters.messages,
                      "invalidations": m.counters.invalidations_sent}}


# ---------------------------------------------------------------------------
# Contended structure runs
# ---------------------------------------------------------------------------

def bench_treiber(quick: bool, fault_spec: str = "",
                  seed: int | None = None) -> dict:
    """The paper's headline workload: a contended lease-enabled Treiber
    stack at high thread count."""
    threads = 8 if quick else 16
    ops_per_thread = 25 if quick else 60
    m = Machine(_lease_config(threads, fault_spec, seed))
    populate(m, "stack", "lease", threads=threads, ops=ops_per_thread,
             prefill=range(128))
    m.run()
    res = m.result("treiber")
    return {"ops": res.ops, "events": m.sim.events_processed,
            "extra": {"cycles": res.cycles,
                      "messages_per_op": round(res.messages_per_op, 2)}}


def bench_counter_lock(quick: bool, fault_spec: str = "",
                       seed: int | None = None) -> dict:
    """The contended TTS+lease lock-based counter (Figure 3a's biggest
    winner -- and the densest emit stream per simulated cycle)."""
    threads = 8 if quick else 16
    ops_per_thread = 25 if quick else 60
    m = Machine(_lease_config(threads, fault_spec, seed))
    populate(m, "counter", "tts", threads=threads, ops=ops_per_thread)
    m.run()
    res = m.result("counter")
    return {"ops": res.ops, "events": m.sim.events_processed,
            "extra": {"cycles": res.cycles}}


def bench_sweep_cell(quick: bool, fault_spec: str = "",
                     seed: int | None = None) -> dict:
    """One full fig2-style sweep cell (base + lease variants at one thread
    count) through the real harness path -- the unit of work every figure
    reproduction repeats dozens of times."""
    from ..harness.runner import sweep
    from ..workloads.driver import bench_stack

    threads = 4 if quick else 8
    ops_per_thread = 15 if quick else 40
    common: dict[str, Any] = {"ops_per_thread": ops_per_thread}
    if fault_spec or seed is not None:
        cfg = replace(MachineConfig(), fault_spec=fault_spec)
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        common["config"] = cfg
    res = sweep(bench_stack,
                {"base": {"variant": "base"}, "lease": {"variant": "lease"}},
                (threads,), **common)
    total_ops = sum(r.ops for series in res.values() for r in series)
    return {"ops": total_ops, "events": None,
            "extra": {"variants": len(res), "threads": threads}}


def bench_sync_ablation(quick: bool, fault_spec: str = "",
                        seed: int | None = None) -> dict:
    """The full contention-management zoo in one record: every
    {policy} x {structure} cell of the ``sync_ablation`` experiment at one
    thread count (18 machine runs through the real workload driver).

    ``extra`` distills the ablation's headline comparisons per structure:
    the lease speedup over the software baseline, which software rival
    (cas-backoff / reciprocating / mcas-helping) came closest, and how
    far ahead the lease arm stayed -- the numbers the paper's Section 7
    "leases vs backoff" argument rests on.  The counter arms also assert
    no updates were lost, so this target doubles as a correctness smoke
    over every zoo primitive.
    """
    from ..workloads.driver import SYNC_POLICIES, SYNC_STRUCTURES
    from ..workloads.driver import bench_sync_ablation as cell

    threads = 4 if quick else 8
    ops_per_thread = 10 if quick else 25
    cfg = MachineConfig(num_cores=threads, fault_spec=fault_spec)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    software = ("cas-backoff", "reciprocating", "mcas-helping")
    total_ops = 0
    extra: dict[str, Any] = {}
    for structure in SYNC_STRUCTURES:
        tput: dict[str, float] = {}
        for policy in SYNC_POLICIES:
            res = cell(threads, structure=structure, policy=policy,
                       ops_per_thread=ops_per_thread, prefill=32,
                       config=cfg)
            total_ops += res.ops
            tput[policy] = res.throughput_ops_per_sec
        base = tput["baseline"]
        best_sw = max(software, key=lambda p: tput[p])
        extra[f"{structure}_lease_speedup"] = (
            round(tput["lease"] / base, 2) if base else 0.0)
        extra[f"{structure}_best_software"] = best_sw
        extra[f"{structure}_lease_vs_best_sw"] = (
            round(tput["lease"] / tput[best_sw], 2) if tput[best_sw]
            else 0.0)
    extra["cells"] = len(SYNC_STRUCTURES) * len(SYNC_POLICIES)
    return {"ops": total_ops, "events": None, "extra": extra}


# ---------------------------------------------------------------------------
# Throughput degradation vs fault rate
# ---------------------------------------------------------------------------

#: Escalating fault-rate grid for the degradation curve.  The first row is
#: the fault-free baseline every other row is normalized against.
_DEGRADATION_GRID: tuple[tuple[str, str], ...] = (
    ("none", ""),
    ("mild", "net_jitter:p=0.01,max=60;dir_nack:p=0.005"),
    ("heavy", "net_jitter:p=0.05,max=200;dir_nack:p=0.02;timer_skew:8"),
    ("hostile", "net_jitter:p=0.10,max=400;dir_nack:p=0.05;timer_skew:16;"
                "slow_core:0@4x"),
)


def bench_fault_degradation(quick: bool, fault_spec: str = "",
                            seed: int | None = None) -> dict:
    """Contended Treiber stack across an escalating fault-rate grid.

    Reports each rung's *simulated* throughput relative to the fault-free
    run (``<label>_relative`` in ``extra``) plus the fault counters of the
    harshest rung -- the ISSUE's "throughput degradation vs fault rate"
    curve in one record.  A caller-supplied ``fault_spec`` is appended as
    an extra ``cli`` rung rather than replacing the grid.
    """
    threads = 4 if quick else 8
    ops_per_thread = 15 if quick else 40
    grid = list(_DEGRADATION_GRID)
    if fault_spec:
        grid.append(("cli", fault_spec))
    total_ops = 0
    events = 0
    base_tput = None
    extra: dict[str, Any] = {}
    for label, spec in grid:
        m = Machine(replace(_lease_config(threads, seed=seed),
                            fault_spec=spec))
        populate(m, "stack", "lease", threads=threads, ops=ops_per_thread,
                 prefill=range(128))
        m.run()
        res = m.result("treiber")
        total_ops += res.ops
        events += m.sim.events_processed
        tput = res.throughput_ops_per_sec
        if base_tput is None:
            base_tput = tput
        extra[f"{label}_relative"] = (round(tput / base_tput, 3)
                                      if base_tput else 0.0)
        extra[f"{label}_faults"] = (m.counters.faults_injected
                                    + m.counters.dir_nacks)
    return {"ops": total_ops, "events": events, "extra": extra}


# ---------------------------------------------------------------------------
# Checkpoint save/restore roundtrip
# ---------------------------------------------------------------------------

def bench_snapshot_roundtrip(quick: bool, fault_spec: str = "",
                             seed: int | None = None) -> dict:
    """Mid-run ``state_dict`` -> JSON -> ``load_state`` roundtrips on a
    contended Treiber stack, asserting the restored run finishes with a
    :class:`RunResult` identical to an uninterrupted one.

    This times the whole checkpoint path -- codec encode, JSON
    serialization, fresh-machine replay-restore, and the run to
    quiescence -- which is what ``--checkpoint-every`` and prefix-restore
    shrinking pay per snapshot.  ``ops`` counts save+restore pairs, so
    the score is roundtrips/sec (machine-normalized).
    """
    import json as _json

    threads = 4 if quick else 8
    ops_per_thread = 15 if quick else 40
    rounds = 3 if quick else 6

    def build() -> Machine:
        m = Machine(_lease_config(threads, fault_spec, seed))
        m.enable_checkpointing()
        populate(m, "stack", "lease", threads=threads, ops=ops_per_thread,
                 prefill=range(64))
        return m

    ref = build()
    ref.run()
    ref_res = ref.result("snapshot")

    state_bytes = 0
    events = ref.sim.events_processed
    for i in range(rounds):
        m = build()
        # Staggered cut points so successive roundtrips snapshot different
        # amounts of in-flight state.
        m.run(until=(i + 1) * 300)
        blob = _json.dumps(m.state_dict())
        state_bytes += len(blob)
        m2 = build()
        m2.load_state(_json.loads(blob))
        m2.run()
        events += m2.sim.events_processed
        if m2.result("snapshot") != ref_res:
            raise AssertionError(
                "snapshot roundtrip diverged from the straight-through run")
    return {"ops": rounds, "events": events,
            "extra": {"state_bytes": state_bytes // rounds,
                      "run_result_identical": True}}


# ---------------------------------------------------------------------------
# Open-loop tail latency identity
# ---------------------------------------------------------------------------

#: Default arrival spec for the tail-latency target: Poisson arrivals with
#: Zipf-skewed keys and a latency SLO, so the record carries a pass/fail
#: verdict alongside the percentiles.
_TAIL_LATENCY_SPEC = ("poisson:rate=3.0,zipf:s=1.1,tenants=2,"
                      "slo:p99=6000,shed=0.2")


def bench_tail_latency(quick: bool, fault_spec: str = "",
                       seed: int | None = None,
                       traffic: str = "") -> dict:
    """Open-loop tail latency on the contended counter -- the
    :mod:`repro.traffic` engine's regression guard.

    Runs a Poisson/Zipf arrival plan, then cuts the same run mid-flight
    with a ``state_dict`` -> JSON -> ``load_state`` roundtrip and asserts
    the restored run reproduces the latency *histogram* (not just the
    percentiles) bit for bit -- the determinism contract behind
    ``RunResult.latency``.  Reports p50/p99/p999, shed fraction and the
    SLO verdict in ``extra``; ``traffic`` (CLI ``--traffic``) overrides
    the arrival spec.
    """
    import json as _json

    from ..traffic import TrafficSource, evaluate_slo

    threads = 4 if quick else 8
    ops_per_lane = 12 if quick else 30
    spec = traffic or _TAIL_LATENCY_SPEC

    def build() -> tuple[Machine, TrafficSource]:
        m = Machine(_lease_config(threads, fault_spec, seed))
        m.enable_checkpointing()
        built = populate(m, "counter", "tts", threads=threads,
                         ops=ops_per_lane, traffic=spec, traffic_keys=64)
        return m, built.source

    ref_m, ref_src = build()
    ref_m.run()
    ref_hist = ref_src.histogram()

    cut_m, _ = build()
    cut_m.run(until=max(1, ref_m.sim.now // 2))
    blob = _json.dumps(cut_m.state_dict())
    restored_m, restored_src = build()
    restored_m.load_state(_json.loads(blob))
    restored_m.run()
    if restored_src.histogram() != ref_hist:
        raise AssertionError(
            "checkpoint/restore changed the latency histogram")

    summary = ref_src.summary()
    events = ref_m.sim.events_processed + restored_m.sim.events_processed
    ops = ref_src.admitted + restored_src.admitted
    return {
        "ops": ops, "events": events,
        "extra": {
            "traffic": spec,
            "p50": summary.get("p50"),
            "p99": summary.get("p99"),
            "p999": summary.get("p999"),
            "shed_frac": round(summary["shed_frac"], 4),
            "slo": evaluate_slo(ref_src.spec, ref_hist,
                                summary["shed_frac"]),
            "restore_identical": True,
        },
    }


# ---------------------------------------------------------------------------
# Cluster throughput scaling
# ---------------------------------------------------------------------------

#: Node counts for the scaling curve; the first entry is the single-node
#: baseline every other rung is normalized against.
_CLUSTER_NODE_COUNTS_QUICK = (1, 2, 3)
_CLUSTER_NODE_COUNTS_FULL = (1, 2, 3, 4, 5)


def bench_cluster_scale(quick: bool, fault_spec: str = "",
                        seed: int | None = None) -> dict:
    """Sharded-counter cluster throughput vs node count at fixed
    per-node contention (the cluster layer's scaling curve).

    Each rung runs the same per-node workload -- 2 threads fighting over
    2 shards -- on 1..N machines under one clock, with PaxosLease
    negotiating shard ownership over a mildly lossy network.  ``extra``
    reports each rung's simulated throughput relative to the single-node
    baseline (``n<k>_relative``) plus the paxos/message totals of the
    widest rung.  ``fault_spec`` threads per-node (intra-machine) faults
    into every member machine.
    """
    from ..cluster import bench_cluster

    node_counts = (_CLUSTER_NODE_COUNTS_QUICK if quick
                   else _CLUSTER_NODE_COUNTS_FULL)
    # Even quick mode needs enough work per rung for a stable best-of-N
    # wall time: a few-millisecond measurement swings past the CI gate's
    # tolerance on a loaded runner, so aim for a few hundred ms total.
    ops_per_thread = 150 if quick else 300
    cfg = MachineConfig(fault_spec=fault_spec)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    total_ops = 0
    base_tput = None
    extra: dict[str, Any] = {}
    for n in node_counts:
        res = bench_cluster(
            2, structure="counter", nodes=n, objects=2,
            ops_per_thread=ops_per_thread,
            cluster_spec="loss:p=0.02;delay:min=50,max=150",
            config=cfg)
        total_ops += res.ops
        tput = res.throughput_ops_per_sec
        if base_tput is None:
            base_tput = tput
        extra[f"n{n}_relative"] = (round(tput / base_tput, 3)
                                   if base_tput else 0.0)
        if n == node_counts[-1]:
            extra["paxos_rounds"] = res.extra["paxos_rounds"]
            extra["node_msgs"] = res.extra["node_msgs"]
    return {"ops": total_ops, "events": None, "extra": extra}


# ---------------------------------------------------------------------------
# Contended interconnect: lease vs baseline under saturating links
# ---------------------------------------------------------------------------

#: Finite-bandwidth spec that saturates under the hot-cell counter: 2
#: cycles/flit with 4-flit data payloads, shallow bounded queues, WRR
#: arbitration and serialized directory/memory ports.
_LINK_SAT_SPEC = "link:bw=2,queue=8,flits=4;arb:wrr,weights=2:1;port:dir=2,mem=4"


def _link_sat_run(lease: bool, threads: int, ops_per_thread: int,
                  fault_spec: str, seed: int | None):
    cfg = _lease_config(threads, fault_spec, seed)
    cfg = cfg.with_leases(lease)
    cfg = replace(cfg, network=replace(cfg.network, spec=_LINK_SAT_SPEC))
    m = Machine(cfg)
    populate(m, "counter", "tts", threads=threads, ops=ops_per_thread)
    m.run()
    return m


def bench_link_saturation(quick: bool, fault_spec: str = "",
                          seed: int | None = None) -> dict:
    """Lease vs baseline on a saturating hot-cell workload over finite
    links (:mod:`repro.coherence.links`).

    Runs the contended TTS lock counter twice under :data:`_LINK_SAT_SPEC`
    -- leases off, then on -- and asserts the paper's mechanism survives a
    bandwidth-limited interconnect: by suppressing the probe/retry storm
    at the source, leases must move strictly fewer flits AND spend
    strictly fewer cycles waiting in link queues than the baseline.  The
    measured reductions are recorded as the regression-tracked extras.
    """
    threads = 8 if quick else 16
    ops_per_thread = 25 if quick else 60

    base = _link_sat_run(False, threads, ops_per_thread,
                         fault_spec, seed)
    leased = _link_sat_run(True, threads, ops_per_thread,
                           fault_spec, seed)
    kb, kl = base.counters, leased.counters
    if not kl.link_flits < kb.link_flits:
        raise AssertionError(
            f"leases did not reduce link flits ({kl.link_flits} vs "
            f"baseline {kb.link_flits})")
    if not kl.link_stall_cycles < kb.link_stall_cycles:
        raise AssertionError(
            f"leases did not reduce link stall cycles "
            f"({kl.link_stall_cycles} vs baseline {kb.link_stall_cycles})")

    def _cut(b: int, l: int) -> float:
        return round((1.0 - l / b) * 100.0, 1) if b else 0.0

    return {
        "ops": 2 * threads * ops_per_thread,
        "events": base.sim.events_processed + leased.sim.events_processed,
        "extra": {
            "base_link_flits": kb.link_flits,
            "lease_link_flits": kl.link_flits,
            "flit_reduction_pct": _cut(kb.link_flits, kl.link_flits),
            "base_link_stall_cycles": kb.link_stall_cycles,
            "lease_link_stall_cycles": kl.link_stall_cycles,
            "stall_reduction_pct": _cut(kb.link_stall_cycles,
                                        kl.link_stall_cycles),
            "base_port_stalls": kb.port_stalls,
            "lease_port_stalls": kl.port_stalls,
            "cycle_reduction_pct": _cut(base.sim.now, leased.sim.now),
        },
    }


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchTarget:
    name: str
    title: str
    fn: Callable[..., dict]  # (quick: bool, fault_spec: str = "") -> dict


TARGETS: dict[str, BenchTarget] = {
    t.name: t for t in (
        BenchTarget("event_queue", "raw EventQueue schedule/cancel/pop "
                    "churn", bench_event_queue),
        BenchTarget("coherence_storm", "all cores storing one line "
                    "(message storm)", bench_coherence_storm),
        BenchTarget("treiber", "contended lease-enabled Treiber stack",
                    bench_treiber),
        BenchTarget("counter", "contended TTS+lease lock counter",
                    bench_counter_lock),
        BenchTarget("sweep_cell", "one fig2-style sweep cell (base + "
                    "lease)", bench_sweep_cell),
        BenchTarget("sync_ablation", "contention zoo: 6 policies x 3 "
                    "structures", bench_sync_ablation),
        BenchTarget("fault_degradation", "Treiber throughput vs "
                    "escalating fault rate", bench_fault_degradation),
        BenchTarget("snapshot_roundtrip", "mid-run checkpoint save + "
                    "restore roundtrip", bench_snapshot_roundtrip),
        BenchTarget("tail_latency", "open-loop latency percentiles, "
                    "restore identity", bench_tail_latency),
        BenchTarget("cluster_scale", "sharded-counter throughput vs "
                    "node count (PaxosLease)", bench_cluster_scale),
        BenchTarget("link_saturation", "lease vs baseline over "
                    "saturating finite links", bench_link_saturation),
    )
}
