"""One driver function per benchmark in the paper's evaluation.

Every driver builds a fresh :class:`~repro.core.machine.Machine` from a
(possibly customized) config, constructs the structure under test, spawns
one worker thread per core, runs to completion, and returns a
:class:`~repro.stats.report.RunResult`.  All drivers are deterministic for
a fixed seed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Sequence

from ..config import MachineConfig
from ..core.machine import Machine
from ..stats import RunResult
from ..trace import Tracer
from ..structures import MultiQueue
from ..stm import TL2Objects
from ..apps import PagerankApp, SnapshotRegion
from .table import SYNC_POLICIES, populate

#: Key range handed to traffic key distributions when the structure under
#: test has no keys of its own (counter: keys only steer the arrival
#: process; stack: key parity picks push vs pop).
_TRAFFIC_KEY_RANGE = 64


def _config(num_threads: int, use_lease: bool,
            base: MachineConfig | None = None, **lease_kw: Any
            ) -> MachineConfig:
    cfg = base or MachineConfig()
    cfg = replace(cfg, num_cores=num_threads)
    lease = replace(cfg.lease, enabled=use_lease, **lease_kw)
    return replace(cfg, lease=lease)


def _machine(cfg: MachineConfig,
             sinks: Sequence[Tracer] | None,
             schedule: Any = None) -> Machine:
    """Build the benchmark machine, attaching any extra trace sinks
    (JSONL writers, heatmaps, invariant checkers) the caller supplied and
    installing an optional schedule-perturbation strategy (see
    :mod:`repro.check.perturb`)."""
    m = Machine(cfg, schedule_strategy=schedule)
    for sink in sinks or ():
        m.attach_tracer(sink)
    return m


def _finish(m: Machine, name: str, *, traffic_source=None,
            **extra: Any) -> RunResult:
    from ..state import hooks
    if hooks.run_hook is not None:
        # Checkpoint/restore seam (see repro.state.hooks): the CLI installs
        # a hook that enables recording, slices the run into checkpoint
        # intervals, and/or restores a saved state before running.
        hooks.run_hook(m)
    else:
        m.run()
    k = m.counters
    res = m.result(name, extra={
        "invol_releases": k.releases_involuntary,
        "vol_releases": k.releases_voluntary,
        **extra,
    })
    if traffic_source is not None:
        res.latency = traffic_source.summary()
    return res


# ---------------------------------------------------------------------------
# Figure 2: Treiber stack, 100% updates
# ---------------------------------------------------------------------------

def bench_stack(num_threads: int, *, ops_per_thread: int = 60,
                variant: str = "base", prefill: int = 128,
                traffic: str = "",
                config: MachineConfig | None = None,
                max_lease_time: int | None = None,
                sinks: Sequence[Tracer] | None = None,
                schedule: Any = None) -> RunResult:
    """``variant``: 'base', 'lease', or 'backoff' (the software-optimized
    comparison point of Section 7).  A non-empty ``traffic`` spec switches
    the workers to open-loop (admitted key parity picks push vs pop)."""
    kw = {}
    if max_lease_time is not None:
        kw["max_lease_time"] = max_lease_time
    cfg = _config(num_threads, variant == "lease", config, **kw)
    m = _machine(cfg, sinks, schedule)
    built = populate(m, "stack", variant, threads=num_threads,
                     ops=ops_per_thread, prefill=range(prefill),
                     traffic=traffic, traffic_keys=_TRAFFIC_KEY_RANGE)
    return _finish(m, f"stack/{variant}", traffic_source=built.source)


# ---------------------------------------------------------------------------
# Figure 3: Michael-Scott queue, 100% updates
# ---------------------------------------------------------------------------

def bench_queue(num_threads: int, *, ops_per_thread: int = 60,
                variant: str = "base", prefill: int = 128,
                config: MachineConfig | None = None,
                sinks: Sequence[Tracer] | None = None,
                schedule: Any = None) -> RunResult:
    """``variant``: 'base', 'lease' (Algorithm 3), 'multilease' (tail +
    next jointly), or 'backoff'."""
    use_lease = variant in ("lease", "multilease")
    cfg = _config(num_threads, use_lease, config)
    m = _machine(cfg, sinks, schedule)
    populate(m, "queue", variant, threads=num_threads, ops=ops_per_thread,
             prefill=range(prefill))
    return _finish(m, f"queue/{variant}")


# ---------------------------------------------------------------------------
# Figure 3: lock-based counter
# ---------------------------------------------------------------------------

def bench_counter(num_threads: int, *, ops_per_thread: int = 60,
                  variant: str = "tts", use_lease: bool = False,
                  misuse: bool = False, traffic: str = "",
                  config: MachineConfig | None = None,
                  max_lease_time: int | None = None,
                  sinks: Sequence[Tracer] | None = None,
                  schedule: Any = None) -> RunResult:
    """``variant``: lock kind ('tts', 'ticket', 'clh'); ``use_lease``
    applies the Section 6 lease pattern (only meaningful for 'tts').  A
    non-empty ``traffic`` spec switches the workers to open-loop: every
    admitted arrival is one increment, shed arrivals never run."""
    kw = {}
    if max_lease_time is not None:
        kw["max_lease_time"] = max_lease_time
    cfg = _config(num_threads, use_lease, config, **kw)
    m = _machine(cfg, sinks, schedule)
    built = populate(m, "counter", variant, threads=num_threads,
                     ops=ops_per_thread, traffic=traffic,
                     traffic_keys=_TRAFFIC_KEY_RANGE,
                     knobs={"misuse": misuse})
    src = built.source
    res = _finish(m, f"counter/{variant}{'+lease' if use_lease else ''}",
                  traffic_source=src)
    # Open-loop: only admitted ops run (shed arrivals must NOT count).
    expected = (src.admitted if src is not None
                else num_threads * ops_per_thread)
    actual = built.final()
    if actual != expected:
        raise AssertionError(
            f"counter lost updates: {actual} != {expected}")
    return res


# ---------------------------------------------------------------------------
# Contention-management zoo: {policy} x {structure} ablation
# ---------------------------------------------------------------------------

#: The structures every arm runs on, and their table rows.
_SYNC_ROWS = {"treiber": "stack", "msqueue": "queue", "counter": "counter"}
SYNC_STRUCTURES = tuple(_SYNC_ROWS)


def bench_sync_ablation(num_threads: int, *, structure: str = "treiber",
                        policy: str = "baseline", ops_per_thread: int = 60,
                        prefill: int = 64,
                        config: MachineConfig | None = None,
                        max_lease_time: int | None = None,
                        sinks: Sequence[Tracer] | None = None,
                        schedule: Any = None) -> RunResult:
    """One cell of the contention-management ablation:
    ``structure`` in :data:`SYNC_STRUCTURES` under ``policy`` in
    :data:`SYNC_POLICIES`.

    * ``baseline``       -- the plain structure, leases disabled;
    * ``lease``          -- the paper's fixed-duration lease placement;
    * ``cas-backoff``    -- DHM per-line failure-adaptive constant backoff
      on the CAS retry loop (leases disabled);
    * ``reciprocating``  -- every op under one Reciprocating Lock;
    * ``mcas-helping``   -- the multi-word MCAS variant with
      contention-aware helping;
    * ``adaptive-lease`` -- leases whose duration the
      :class:`AdaptiveLeaseController` predicts from probe pressure.
    """
    if structure not in SYNC_STRUCTURES:
        raise ValueError(f"unknown structure {structure!r}")
    if policy not in SYNC_POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    use_lease = policy in ("lease", "adaptive-lease")
    kw = {}
    if max_lease_time is not None:
        kw["max_lease_time"] = max_lease_time
    cfg = _config(num_threads, use_lease, config, **kw)
    m = _machine(cfg, sinks, schedule)
    built = populate(m, _SYNC_ROWS[structure], policy, threads=num_threads,
                     ops=ops_per_thread, prefill=range(prefill))
    res = _finish(m, f"sync/{structure}/{policy}")
    res.extra.update(built.stats())
    if structure == "counter":
        actual = built.final()
        if actual != num_threads * ops_per_thread:
            raise AssertionError(
                f"counter lost updates under {policy}: "
                f"{actual} != {num_threads * ops_per_thread}")
    return res


# ---------------------------------------------------------------------------
# Figure 3: skiplist-based priority queue
# ---------------------------------------------------------------------------

def bench_pq(num_threads: int, *, ops_per_thread: int = 40,
             variant: str = "pugh", prefill: int = 1024,
             config: MachineConfig | None = None,
             sinks: Sequence[Tracer] | None = None,
             schedule: Any = None) -> RunResult:
    """``variant``: 'pugh' (fine-grained-lock baseline), 'lotan' (the
    literal Lotan-Shavit logical-deletion algorithm), 'globallock' (global
    lock, no leases), or 'lease' (global lock + leases)."""
    cfg = _config(num_threads, variant == "lease", config)
    m = _machine(cfg, sinks, schedule)
    populate(m, "pq", variant, threads=num_threads, ops=ops_per_thread,
             prefill=range(0, 2 * prefill, 2))
    return _finish(m, f"pq/{variant}")


# ---------------------------------------------------------------------------
# Figure 4: MultiQueues
# ---------------------------------------------------------------------------

def bench_multiqueue(num_threads: int, *, ops_per_thread: int = 40,
                     num_queues: int = 8, use_lease: bool = False,
                     prefill: int = 1024,
                     config: MachineConfig | None = None,
                     sinks: Sequence[Tracer] | None = None,
                     schedule: Any = None) -> RunResult:
    """MultiQueues (Figure 4a): alternating insert/deleteMin over
    ``num_queues`` heaps, with the Algorithm 4 lease placement."""
    cfg = _config(num_threads, use_lease, config)
    m = _machine(cfg, sinks, schedule)
    mq = MultiQueue(m, num_queues=num_queues)
    mq.prefill(range(0, 2 * prefill, 2))
    for _ in range(num_threads):
        m.add_thread(mq.update_worker, ops_per_thread, local_work=20)
    return _finish(m, f"multiqueue/{'lease' if use_lease else 'base'}")


# ---------------------------------------------------------------------------
# Figure 4 / 5: TL2 transactions
# ---------------------------------------------------------------------------

def bench_tl2(num_threads: int, *, txns_per_thread: int = 30,
              variant: str = "none", num_objects: int = 10,
              multilease_mode: str = "hardware",
              config: MachineConfig | None = None,
              sinks: Sequence[Tracer] | None = None,
              schedule: Any = None) -> RunResult:
    """``variant``: 'none', 'single' (first object only), 'multi'."""
    cfg = _config(num_threads, variant != "none", config,
                  multilease_mode=multilease_mode)
    m = _machine(cfg, sinks, schedule)
    tl2 = TL2Objects(m, num_objects=num_objects, lease=variant)
    for _ in range(num_threads):
        m.add_thread(tl2.txn_worker, txns_per_thread)
    res = _finish(m, f"tl2/{variant}/{multilease_mode}")
    k = m.counters
    res.extra["abort_rate"] = round(
        k.stm_aborts / max(1, k.stm_aborts + k.stm_commits), 4)
    expected = 2 * num_threads * txns_per_thread
    if tl2.total_value_direct() != expected:
        raise AssertionError("TL2 lost committed updates")
    return res


# ---------------------------------------------------------------------------
# Figure 5: lock-based Pagerank
# ---------------------------------------------------------------------------

def bench_pagerank(num_threads: int, *, num_pages: int = 128,
                   iterations: int = 2, use_lease: bool = False,
                   config: MachineConfig | None = None,
                   sinks: Sequence[Tracer] | None = None,
                   schedule: Any = None) -> RunResult:
    """Lock-based Pagerank (Figure 5 right): the contended dangling-mass
    lock is leased when ``use_lease`` is set."""
    cfg = _config(num_threads, use_lease, config)
    m = _machine(cfg, sinks, schedule)
    app = PagerankApp(m, num_pages=num_pages, num_threads=num_threads,
                      iterations=iterations)
    for tid in range(num_threads):
        m.add_thread(app.worker, tid)
    return _finish(m, f"pagerank/{'lease' if use_lease else 'base'}")


# ---------------------------------------------------------------------------
# Section 5: cheap snapshots
# ---------------------------------------------------------------------------

def bench_snapshot(num_threads: int, *, ops_per_thread: int = 15,
                   num_words: int = 6, writer_work: int = 150,
                   use_lease: bool = False,
                   config: MachineConfig | None = None,
                   sinks: Sequence[Tracer] | None = None,
                   schedule: Any = None) -> RunResult:
    """Half the threads write, half snapshot (lease-based vs
    double-collect).  Leases stay enabled in the machine either way; the
    flag selects the snapshot algorithm.  Prioritization must be off for
    this pattern: with it, every writer store would break the snapshot's
    leases and force a retry."""
    cfg = _config(num_threads, True, config,
                  prioritize_regular_requests=False)
    m = _machine(cfg, sinks, schedule)
    sr = SnapshotRegion(m, num_words)
    # One snapshotter vs an open-loop write load: cycles then measure the
    # time to complete ``ops_per_thread`` snapshots under interference.
    for _ in range(num_threads - 1):
        m.add_thread(sr.writer_worker, None, writer_work)
    m.add_thread(sr.snapshot_worker, ops_per_thread, use_lease=use_lease,
                 local_work=10, stop_when_done=True)
    res = _finish(m, f"snapshot/{'lease' if use_lease else 'collect'}")
    res.extra["snapshot_retries"] = sr.retries
    return res


# ---------------------------------------------------------------------------
# Section 7 low-contention structures (20% updates, 80% searches)
# ---------------------------------------------------------------------------

def _bench_search_structure(family: str, num_threads: int,
                            ops_per_thread: int, key_range: int,
                            update_pct: int, use_lease: bool,
                            config: MachineConfig | None,
                            traffic: str = "",
                            sinks: Sequence[Tracer] | None = None,
                            schedule: Any = None) -> RunResult:
    cfg = _config(num_threads, use_lease, config)
    m = _machine(cfg, sinks, schedule)
    variant = "lease" if use_lease else "base"
    built = populate(m, family, variant, threads=num_threads,
                     ops=ops_per_thread, prefill=range(0, key_range, 2),
                     traffic=traffic, traffic_keys=key_range,
                     key_range=key_range, update_pct=update_pct)
    return _finish(m, f"{family}/{variant}", traffic_source=built.source)


def bench_harris_list(num_threads: int, *, ops_per_thread: int = 40,
                      key_range: int = 128, update_pct: int = 20,
                      use_lease: bool = False,
                      config: MachineConfig | None = None,
                      sinks: Sequence[Tracer] | None = None,
                      schedule: Any = None) -> RunResult:
    """Harris lock-free list at 20% updates (Section 7 low contention)."""
    return _bench_search_structure("list", num_threads,
                                   ops_per_thread, key_range, update_pct,
                                   use_lease, config, sinks=sinks,
                                   schedule=schedule)


def bench_skiplist(num_threads: int, *, ops_per_thread: int = 40,
                   key_range: int = 512, update_pct: int = 20,
                   use_lease: bool = False, traffic: str = "",
                   config: MachineConfig | None = None,
                   sinks: Sequence[Tracer] | None = None,
                   schedule: Any = None) -> RunResult:
    """Lock-free skiplist at 20% updates (Section 7 low contention).  A
    non-empty ``traffic`` spec switches to open-loop: admitted keys are
    the operation keys and the op kind is hashed from them."""
    return _bench_search_structure("skiplist", num_threads,
                                   ops_per_thread, key_range, update_pct,
                                   use_lease, config, traffic=traffic,
                                   sinks=sinks, schedule=schedule)


def bench_hashtable(num_threads: int, *, ops_per_thread: int = 40,
                    key_range: int = 512, update_pct: int = 20,
                    use_lease: bool = False,
                    config: MachineConfig | None = None,
                    sinks: Sequence[Tracer] | None = None,
                    schedule: Any = None) -> RunResult:
    """Lock-striped hash table at 20% updates (Section 7 low contention)."""
    return _bench_search_structure("hashtable", num_threads,
                                   ops_per_thread, key_range, update_pct,
                                   use_lease, config, sinks=sinks,
                                   schedule=schedule)


def bench_bst(num_threads: int, *, ops_per_thread: int = 40,
              key_range: int = 512, update_pct: int = 20,
              use_lease: bool = False,
              config: MachineConfig | None = None,
              sinks: Sequence[Tracer] | None = None,
              schedule: Any = None) -> RunResult:
    """External BST at 20% updates (Section 7 low contention)."""
    return _bench_search_structure("bst", num_threads,
                                   ops_per_thread, key_range, update_pct,
                                   use_lease, config, sinks=sinks,
                                   schedule=schedule)
