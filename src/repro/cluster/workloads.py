"""Cluster workloads: sharded counter and sharded Treiber stacks.

Each cluster object is a *shard* with node-local backing state: every
node allocates its own replica lines (counter cells / stack heads), and
the cluster lease decides which node may operate its replica at any
instant.  Workers acquire the cluster lease, then run a short *burst* of
operations -- each one re-checked against the lease (the
``lease_guarded`` / ``guard`` fast-path gate) so a lease expiring
mid-burst shows up as a ``cluster_guard_denied`` and a re-acquire rather
than an unguarded access.

The sharded counter doubles as a whole-cluster sanity check: every
successful increment lands exactly once on exactly one node's shard
line, so the sum of all shard cells must equal the op total.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Sequence

from ..config import MachineConfig
from ..core.isa import Load, Release, Store, Work
from ..errors import SimulationError
from ..stats import RunResult
from ..structures import TreiberStack
from ..trace import Tracer
from ..traffic import TrafficSource, parse_traffic_spec
from .cluster import Cluster
from .config import ClusterConfig

__all__ = ["bench_cluster", "build_cluster", "verify_cluster_counters"]

#: Cycles of local work folded into each guarded operation (makes bursts
#: long enough that cluster leases can expire mid-burst under fuzz).
_OP_WORK = 40

#: Key-range multiplier for cluster traffic: keys map onto shards mod
#: ``objects``, but the distribution gets a wider range so Zipf/hot-set
#: skew is visible across shards rather than aliased away.
_SHARD_KEY_SPAN = 8


def _counter_worker(ctx, mgr, shards, ops, lease_time, burst):
    """Increment shards under the cluster lease, ``burst`` ops at a time.
    Returns the number of increments performed (each exactly once)."""
    done = 0
    nxt = ctx.tid  # stagger threads across shards
    while done < ops:
        obj = nxt % len(shards)
        nxt += 1
        yield from mgr.acquire(ctx, obj)
        addr = shards[obj]
        for _ in range(min(burst, ops - done)):
            ok = yield from mgr.lease_guarded(ctx, obj, addr, lease_time)
            if not ok:
                break  # cluster lease lapsed mid-burst; re-acquire
            v = yield Load(addr)
            yield Store(addr, v + 1)
            yield Release(addr)
            yield Work(_OP_WORK)
            done += 1
            ctx.note_op(op="incr", args=(obj,), result=v + 1)
        mgr.release(obj)
    return done


def _treiber_worker(ctx, mgr, stacks, ops, burst):
    """Pop+push pairs on per-node Treiber shards under the cluster lease."""
    done = 0
    nxt = ctx.tid
    while done < ops:
        obj = nxt % len(stacks)
        nxt += 1
        yield from mgr.acquire(ctx, obj)
        for _ in range(min(burst, ops - done)):
            if not mgr.guard(ctx, obj):
                break
            v = yield from stacks[obj].pop(ctx)
            yield from stacks[obj].push(ctx, 0 if v is None else v + 1)
            yield Work(_OP_WORK)
            done += 1
            ctx.note_op(op="poppush", args=(obj,), result=v)
        mgr.release(obj)
    return done


def _traffic_counter_worker(ctx, mgr, shards, lane, lease_time):
    """Open-loop shard increments: each admitted arrival picks its shard
    from the admitted key and performs one guarded increment (acquiring
    the cluster lease per op; latency includes the acquisition round)."""
    done = 0
    while True:
        item = lane.poll(ctx)
        if item is None:
            return done
        if isinstance(item, int):
            yield Work(item)
            continue
        enqueued, _tenant, key = item
        obj = key % len(shards)
        addr = shards[obj]
        while True:
            yield from mgr.acquire(ctx, obj)
            ok = yield from mgr.lease_guarded(ctx, obj, addr, lease_time)
            if ok:
                break
            mgr.release(obj)  # cluster lease lapsed before the op; retry
        v = yield Load(addr)
        yield Store(addr, v + 1)
        yield Release(addr)
        yield Work(_OP_WORK)
        mgr.release(obj)
        done += 1
        lane.complete(enqueued, ctx.machine.now)
        ctx.note_op(op="incr", args=(obj,), result=v + 1)


def _traffic_treiber_worker(ctx, mgr, stacks, lane):
    """Open-loop pop+push pairs on the shard the admitted key names."""
    done = 0
    while True:
        item = lane.poll(ctx)
        if item is None:
            return done
        if isinstance(item, int):
            yield Work(item)
            continue
        enqueued, _tenant, key = item
        obj = key % len(stacks)
        while True:
            yield from mgr.acquire(ctx, obj)
            if mgr.guard(ctx, obj):
                break
            mgr.release(obj)
        v = yield from stacks[obj].pop(ctx)
        yield from stacks[obj].push(ctx, 0 if v is None else v + 1)
        yield Work(_OP_WORK)
        mgr.release(obj)
        done += 1
        lane.complete(enqueued, ctx.machine.now)
        ctx.note_op(op="poppush", args=(obj,), result=v)


def build_cluster(ccfg: ClusterConfig, *, structure: str = "counter",
                  ops_per_thread: int = 6, burst: int = 4,
                  intra_lease_time: int = 600, prefill: int = 16,
                  traffic: str = "",
                  schedule: Any = None) -> tuple[Cluster, dict]:
    """Build a ready-to-run cluster workload.  Returns ``(cluster, info)``
    where ``info`` carries what post-run verification needs (the shard
    addresses per node for the counter sanity sum, and the traffic source
    when ``traffic`` selects open-loop arrivals)."""
    if structure not in ("counter", "treiber"):
        raise SimulationError(
            f"unknown cluster structure {structure!r} "
            "(expected 'counter' or 'treiber')")
    cluster = Cluster(ccfg, schedule_strategy=schedule)
    threads = ccfg.machine.num_cores
    info: dict = {"structure": structure,
                  "expected_ops": ccfg.nodes * threads * ops_per_thread}
    spec = parse_traffic_spec(traffic)
    src = None
    if not spec.empty:
        # One lane per worker thread, cluster-wide: lane index is
        # node * threads + local thread, so arrivals are a function of
        # (seed, node, thread), never of scheduling.
        src = TrafficSource(spec, num_lanes=ccfg.nodes * threads,
                            seed=ccfg.seed,
                            key_range=ccfg.objects * _SHARD_KEY_SPAN,
                            default_ops=ops_per_thread)
        info["traffic_source"] = src
    if structure == "counter":
        shards_per_node = []
        for n, m in enumerate(cluster.nodes):
            shards = [m.alloc_var(0, label=f"shard{o}")
                      for o in range(ccfg.objects)]
            shards_per_node.append(shards)
            for t in range(threads):
                if src is not None:
                    m.add_thread(_traffic_counter_worker,
                                 cluster.managers[n], shards,
                                 src.lane(n * threads + t),
                                 intra_lease_time)
                else:
                    m.add_thread(_counter_worker, cluster.managers[n],
                                 shards, ops_per_thread, intra_lease_time,
                                 burst)
        info["shards_per_node"] = shards_per_node
    else:
        for n, m in enumerate(cluster.nodes):
            stacks = [TreiberStack(m, lease_time=intra_lease_time)
                      for _ in range(ccfg.objects)]
            for s in stacks:
                s.prefill(range(prefill))
            for t in range(threads):
                if src is not None:
                    m.add_thread(_traffic_treiber_worker,
                                 cluster.managers[n], stacks,
                                 src.lane(n * threads + t))
                else:
                    m.add_thread(_treiber_worker, cluster.managers[n],
                                 stacks, ops_per_thread, burst)
    return cluster, info


def verify_cluster_counters(cluster: Cluster, info: dict) -> None:
    """Post-run sanity for the sharded counter: every op landed exactly
    once on exactly one node's shard line."""
    if info.get("structure") != "counter":
        return
    total = sum(m.peek(addr)
                for m, shards in zip(cluster.nodes,
                                     info["shards_per_node"])
                for addr in shards)
    ops = cluster.merged_counters().ops_completed
    if total != ops:
        raise SimulationError(
            f"cluster counter mismatch: shard cells sum to {total}, "
            f"{ops} increments completed")
    src = info.get("traffic_source")
    # Open-loop: only admitted arrivals run; shed arrivals must not.
    expected = src.admitted if src is not None else info["expected_ops"]
    if ops != expected:
        raise SimulationError(
            f"cluster counter mismatch: {ops} increments completed, "
            f"expected {expected}")


def bench_cluster(num_threads: int, *, structure: str = "counter",
                  nodes: int = 2, objects: int = 2,
                  ops_per_thread: int = 6, burst: int = 4,
                  lease_cycles: int = 20_000, renew_margin: int = 5_000,
                  cluster_spec: str = "", quorum: int | None = None,
                  intra_lease_time: int = 600, prefill: int = 16,
                  traffic: str = "",
                  config: MachineConfig | None = None,
                  sinks: Sequence[Tracer] | None = None,
                  schedule: Any = None) -> RunResult:
    """Drive a sharded cluster workload; ``num_threads`` is threads *per
    node*.  ``sinks`` attach to the cluster bus (lease/message events)
    and to every node's bus, so they see every event the merged
    ``RunResult.counters`` count; on node ``n``'s bus a sink attaches as
    ``sink.tagged(node=n)``, so JSONL lines name their node.
    The machine config template carries seed/faults exactly as in
    the single-machine benches.  A non-empty ``traffic`` arrival spec
    switches workers to open-loop (admitted keys pick the shard; latency
    includes the cluster-lease acquisition round)."""
    mc = replace(config or MachineConfig(), num_cores=num_threads)
    mc = replace(mc, lease=replace(mc.lease, enabled=True))
    ccfg = ClusterConfig(nodes=nodes, objects=objects, machine=mc,
                         lease_cycles=lease_cycles,
                         renew_margin=renew_margin,
                         cluster_spec=cluster_spec, quorum=quorum,
                         seed=mc.seed)
    cluster, info = build_cluster(
        ccfg, structure=structure, ops_per_thread=ops_per_thread,
        burst=burst, intra_lease_time=intra_lease_time, prefill=prefill,
        traffic=traffic, schedule=schedule)
    for sink in sinks or ():
        cluster.attach_tracer(sink)
        for n, node in enumerate(cluster.nodes):
            node.attach_tracer(sink.tagged(node=n))
    from ..state import hooks
    (hooks.run_hook or Cluster.run)(cluster)    # the repro.state.hooks seam
    verify_cluster_counters(cluster, info)
    k = cluster.counters
    res = cluster.result(f"cluster_{structure}/n{nodes}", extra={
        "nodes": nodes,
        "objects": objects,
        "node_msgs": k.node_msgs_sent,
        "node_msgs_dropped": k.node_msgs_dropped,
        "paxos_rounds": k.paxos_rounds,
        "cluster_leases_acquired": k.cluster_leases_acquired,
        "cluster_leases_expired": k.cluster_leases_expired,
        "cluster_guard_denied": k.cluster_guard_denied,
    })
    src = info.get("traffic_source")
    if src is not None:
        res.latency = src.summary()
    return res
