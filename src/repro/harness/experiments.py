"""The experiment registry: one entry per figure/table of the paper.

Each experiment is a named sweep (variants x thread counts) built on the
:mod:`repro.workloads` drivers; ``run_experiment`` executes it and returns
``{variant: [RunResult per thread count]}``.  The DESIGN.md per-experiment
index references these ids; ``benchmarks/`` wraps each in a pytest-benchmark
target and EXPERIMENTS.md records the measured outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from .. import workloads as w
from ..cluster import bench_cluster
from ..config import MachineConfig
from .runner import PAPER_THREAD_COUNTS, sweep


@dataclass(frozen=True)
class Experiment:
    """A named, reproducible sweep."""

    id: str
    title: str
    bench: Callable[..., Any]
    variants: dict[str, dict[str, Any]]
    common: dict[str, Any] = field(default_factory=dict)
    #: What the paper reports, for EXPERIMENTS.md.
    paper_claim: str = ""


EXPERIMENTS: dict[str, Experiment] = {}


def _register(exp: Experiment) -> None:
    EXPERIMENTS[exp.id] = exp


def fold_overrides(kwargs: dict[str, Any]) -> dict[str, Any]:
    """``kwargs`` with its ``seed``, ``faults`` and ``network`` entries
    folded into the machine config every bench builds from (None leaves
    that part alone).  The seed reaches ``Simulator(seed=...)`` without
    each bench knowing about it; the fault and ``--network`` spec strings
    ride inside the picklable config, so they reach every sweep cell
    identically whether cells run serially or on ``--jobs`` workers."""
    kwargs = dict(kwargs)
    seed = kwargs.pop("seed", None)
    faults = kwargs.pop("faults", None)
    network = kwargs.pop("network", None)
    if seed is None and faults is None and network is None:
        return kwargs
    cfg = kwargs.get("config") or MachineConfig()
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if faults is not None:
        cfg = replace(cfg, fault_spec=faults)
    if network is not None:
        cfg = replace(cfg, network=replace(cfg.network, spec=network))
    kwargs["config"] = cfg
    return kwargs


def run_experiment(exp_id: str,
                   thread_counts: Sequence[int] = PAPER_THREAD_COUNTS,
                   *, jobs: int = 1, **overrides: Any):
    exp = EXPERIMENTS[exp_id]
    return sweep(exp.bench, exp.variants, thread_counts, jobs=jobs,
                 **fold_overrides({**exp.common, **overrides}))


# ---------------------------------------------------------------------------
# Figure 2: Treiber stack with and without leases, 100% updates
# ---------------------------------------------------------------------------

_register(Experiment(
    id="fig2_stack",
    title="Figure 2: Treiber stack throughput +/- leases (100% updates)",
    bench=w.bench_stack,
    variants={"base": {"variant": "base"}, "lease": {"variant": "lease"}},
    paper_claim="Leases improve stack throughput by up to ~5-7x under "
                "contention; baseline throughput decreases with threads.",
))

# ---------------------------------------------------------------------------
# Figure 3: lock-based counter / MS queue / skiplist PQ (+ energy)
# ---------------------------------------------------------------------------

_register(Experiment(
    id="fig3_counter",
    title="Figure 3a: lock-based counter (TTS +/- lease, ticket, "
          "hierarchical ticket, CLH)",
    bench=w.bench_counter,
    variants={
        "tts": {"variant": "tts", "use_lease": False},
        "tts+lease": {"variant": "tts", "use_lease": True},
        "ticket": {"variant": "ticket", "use_lease": False},
        "hticket": {"variant": "hticket", "use_lease": False},
        "clh": {"variant": "clh", "use_lease": False},
    },
    paper_claim="Leases improve the contended lock-based counter by up to "
                "~20x and cut energy by up to ~10x.",
))

_register(Experiment(
    id="fig3_queue",
    title="Figure 3b: Michael-Scott queue (base / lease / multilease)",
    bench=w.bench_queue,
    variants={
        "base": {"variant": "base"},
        "lease": {"variant": "lease"},
        "multilease": {"variant": "multilease"},
    },
    paper_claim="Single leases beat the base queue; multileases beat base "
                "but trail single leases on this linear structure.",
))

_register(Experiment(
    id="fig3_pq",
    title="Figure 3c: skiplist priority queue (Pugh locks vs global lock "
          "+ lease)",
    bench=w.bench_pq,
    variants={
        "pugh": {"variant": "pugh"},
        "globallock": {"variant": "globallock"},
        "lease": {"variant": "lease"},
    },
    paper_claim="PQ throughput decreases with concurrency for all variants; "
                "the lease-based implementation is superior under high "
                "contention.",
))

# ---------------------------------------------------------------------------
# Figure 4: MultiQueues and TL2
# ---------------------------------------------------------------------------

_register(Experiment(
    id="fig4_multiqueue",
    title="Figure 4a: MultiQueues (8 queues) +/- MultiLease",
    bench=w.bench_multiqueue,
    variants={"base": {"use_lease": False}, "lease": {"use_lease": True}},
    common={"num_queues": 8},
    paper_claim="MultiLeases improve MultiQueues by ~50% (long critical "
                "sections).",
))

_register(Experiment(
    id="fig4_tl2",
    title="Figure 4b: TL2 two-object transactions (none/single/multi lease)",
    bench=w.bench_tl2,
    variants={
        "none": {"variant": "none"},
        "single": {"variant": "single"},
        "multi": {"variant": "multi"},
    },
    paper_claim="MultiLeases improve TL2 by up to ~5x by eliminating "
                "aborts; single leases on the first object help only "
                "moderately.",
))

# ---------------------------------------------------------------------------
# Figure 5: hardware vs software MultiLease; lock-based Pagerank
# ---------------------------------------------------------------------------

_register(Experiment(
    id="fig5_hw_sw_multilease",
    title="Figure 5 left: hardware vs software MultiLeases on TL2",
    bench=w.bench_tl2,
    variants={
        "hardware": {"variant": "multi", "multilease_mode": "hardware"},
        "software": {"variant": "multi", "multilease_mode": "software"},
    },
    paper_claim="Software MultiLeases are comparable, with a slight but "
                "consistent performance hit.",
))

_register(Experiment(
    id="fig5_pagerank",
    title="Figure 5 right: lock-based Pagerank +/- lease",
    bench=w.bench_pagerank,
    variants={"base": {"use_lease": False}, "lease": {"use_lease": True}},
    common={"num_pages": 256, "iterations": 2},
    paper_claim="Leasing the contended lock lets Pagerank scale (8x at 32 "
                "threads).",
))

# ---------------------------------------------------------------------------
# Section 7 extras: backoff comparison, low contention, messages/op
# ---------------------------------------------------------------------------

_register(Experiment(
    id="e1_backoff",
    title="Section 7: leases vs exponential backoff on the Treiber stack",
    bench=w.bench_stack,
    variants={
        "base": {"variant": "base"},
        "backoff": {"variant": "backoff"},
        "lease": {"variant": "lease"},
    },
    paper_claim="Backoff improves the base by up to ~3x but stays clearly "
                "below leases (~2.5x lower on average).",
))

_register(Experiment(
    id="e2_low_contention_list",
    title="Section 7: Harris list, 20% updates (low contention)",
    bench=w.bench_harris_list,
    variants={"base": {"use_lease": False}, "lease": {"use_lease": True}},
    paper_claim="Throughput is the same +/- leases (<=5% difference).",
))

_register(Experiment(
    id="e2_low_contention_skiplist",
    title="Section 7: lock-free skiplist, 20% updates (low contention)",
    bench=w.bench_skiplist,
    variants={"base": {"use_lease": False}, "lease": {"use_lease": True}},
    paper_claim="Throughput is the same +/- leases (<=5% difference).",
))

_register(Experiment(
    id="e2_low_contention_hashtable",
    title="Section 7: lock-based hash table, 20% updates (low contention)",
    bench=w.bench_hashtable,
    variants={"base": {"use_lease": False}, "lease": {"use_lease": True}},
    paper_claim="Throughput is the same +/- leases (<=5% difference).",
))

_register(Experiment(
    id="e2_low_contention_bst",
    title="Section 7: external BST, 20% updates (low contention)",
    bench=w.bench_bst,
    variants={"base": {"use_lease": False}, "lease": {"use_lease": True}},
    paper_claim="Throughput is the same +/- leases (<=5% difference).",
))

_register(Experiment(
    id="e3_messages_per_op",
    title="Section 7: cache misses and messages per op stay constant with "
          "leases as threads grow",
    bench=w.bench_stack,
    variants={"base": {"variant": "base"}, "lease": {"variant": "lease"}},
    paper_claim="With leases, stack misses/op ~constant (~2.1) and "
                "messages/op ~constant from 4 to 64 threads; the base "
                "grows ~5x; robust down to MAX_LEASE_TIME=1K.",
))

# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ---------------------------------------------------------------------------

_register(Experiment(
    id="a1_prioritization",
    title="Ablation: Section 5 prioritization (regular requests break "
          "leases) on the MS queue",
    bench=w.bench_queue,
    variants={"lease": {"variant": "lease"}},
    paper_claim="Prioritization is an optional optimization that 'can "
                "improve performance in practice'.",
))

_register(Experiment(
    id="a2_lease_time",
    title="Ablation: MAX_LEASE_TIME sensitivity (1K vs 20K cycles) on the "
          "stack",
    bench=w.bench_stack,
    variants={
        "lease_20k": {"variant": "lease", "max_lease_time": 20_000},
        "lease_1k": {"variant": "lease", "max_lease_time": 1_000},
    },
    paper_claim="Constant messages/op holds 'even if we decrease "
                "MAX_LEASE_TIME to 1K cycles'.",
))

_register(Experiment(
    id="a3_misuse",
    title="Ablation: Section 7 improper use (lease kept on a lock owned by "
          "another thread)",
    bench=w.bench_counter,
    variants={
        "proper": {"variant": "tts", "use_lease": True},
        "misuse": {"variant": "tts", "use_lease": True, "misuse": True},
    },
    paper_claim="Not releasing a lock variable owned by another thread "
                "slows the application; prioritization mitigates it.",
))

_register(Experiment(
    id="s1_snapshot",
    title="Section 5: cheap lock-free snapshots (lease vs double-collect)",
    bench=w.bench_snapshot,
    variants={
        "double_collect": {"use_lease": False},
        "lease": {"use_lease": True},
    },
    paper_claim="The lease-based snapshot 'may be cheaper than the "
                "standard double-collect'.",
))

# ---------------------------------------------------------------------------
# Contention-management zoo: the headline software-rivals ablation
# ---------------------------------------------------------------------------

_register(Experiment(
    id="sync_ablation",
    title="Contention-management zoo: {baseline, lease, cas-backoff, "
          "reciprocating, mcas-helping, adaptive-lease} x {treiber, "
          "msqueue, counter}",
    bench=w.bench_sync_ablation,
    variants={
        f"{structure}:{policy}": {"structure": structure, "policy": policy}
        for structure in w.SYNC_STRUCTURES
        for policy in w.SYNC_POLICIES
    },
    paper_claim="Section 7: software mitigation (backoff and friends) "
                "buys up to ~3x by inserting dead time, but leases stay "
                "clearly ahead because they remove coherence traffic "
                "instead of hiding it; the adaptive-lease arm is our own "
                "entry predicting durations from probe pressure.",
))

# ---------------------------------------------------------------------------
# Open-loop traffic (repro.traffic): tail latency under arrival-process load
# ---------------------------------------------------------------------------

_register(Experiment(
    id="counter",
    title="Open-loop lock-based counter: tail latency / SLO under an "
          "arrival process (use --traffic; closed-loop without it)",
    bench=w.bench_counter,
    variants={
        "tts": {"variant": "tts", "use_lease": False},
        "tts+lease": {"variant": "tts", "use_lease": True},
    },
    paper_claim="Extension beyond the paper: open-loop arrivals expose "
                "what closed-loop throughput hides -- queueing delay and "
                "shed load once the contended lock saturates; leases "
                "should pull p99 down at the same offered rate.",
))

_register(Experiment(
    id="treiber",
    title="Open-loop Treiber stack: tail latency / SLO under an arrival "
          "process (use --traffic; closed-loop without it)",
    bench=w.bench_stack,
    variants={"base": {"variant": "base"}, "lease": {"variant": "lease"}},
    paper_claim="Extension beyond the paper: open-loop push/pop mix; CAS "
                "retry storms show up as tail inflation, not lost "
                "throughput.",
))

_register(Experiment(
    id="skiplist",
    title="Open-loop lock-free skiplist: tail latency / SLO under an "
          "arrival process with skewed keys (use --traffic)",
    bench=w.bench_skiplist,
    variants={"base": {"use_lease": False}, "lease": {"use_lease": True}},
    paper_claim="Extension beyond the paper: Zipfian / hot-set-shifting "
                "keys re-concentrate contention in the low-contention "
                "structure; tail latency tracks the hot key, not the "
                "mean.",
))

# ---------------------------------------------------------------------------
# Cluster layer (repro.cluster): multi-node sharded workloads
# ---------------------------------------------------------------------------

_register(Experiment(
    id="cluster_shards",
    title="Cluster: sharded structures under PaxosLease inter-node "
          "ownership (threads are per node; --nodes sets the node count)",
    bench=bench_cluster,
    variants={
        "counter": {"structure": "counter"},
        "treiber": {"structure": "treiber"},
    },
    common={"nodes": 2, "objects": 2, "ops_per_thread": 4,
            "lease_cycles": 8_000, "renew_margin": 2_000},
    paper_claim="Extension beyond the paper: the lease/release ownership "
                "discipline lifted to a multi-node cluster; throughput "
                "scales with nodes while per-object grants stay exclusive.",
))
