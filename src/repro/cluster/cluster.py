"""The Cluster: N machines under one clock, leased together.

The first layer above :class:`~repro.core.machine.Machine`.  A cluster
owns the single :class:`~repro.engine.Simulator` and injects it into
every member machine, so all nodes interleave on one shared event queue
-- inter-node messages are just events like any cache miss, and the
whole cluster remains a deterministic function of ``(config, seed)``.
On top of the machines it wires:

* an :class:`~repro.cluster.internode.InterNodeNetwork` (lossy,
  latency-modeled links driven by seeded streams),
* one :class:`~repro.cluster.paxoslease.PaxosAgent` per node (the
  proposer/acceptor state machines), and
* one :class:`~repro.cluster.manager.DistributedLeaseManager` per node
  (what workloads yield through).

Cluster-level trace events (``node_msg*``, ``paxos_round``,
``cluster_lease_*``) go to the cluster's own bus; per-node machine
events stay on each node's bus.  ``result()`` merges both into one
:class:`~repro.stats.RunResult`.

Checkpointing reuses the machine split introduced for this layer: the
cluster serializes the shared clock/queue/strategy ONCE (through a
:class:`ClusterCodec` whose function descriptors are node-prefixed),
asks each machine for its :meth:`~repro.core.machine.Machine.
component_state`, and appends the network/agent state.  Restore runs
each node's resume-log replay first, then rebuilds the queue and
installs everything -- the same order a solo machine uses.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from dataclasses import replace
from typing import Any, Callable, Generator

from ..core.machine import Machine
from ..core.thread import ThreadHandle
from ..engine import Simulator
from ..errors import CheckpointError, CheckpointMismatch, SimulationError
from ..stats import Counters, EnergyModel, RunResult
from ..state.codec import SnapshotCodec
from ..trace import CountersTracer, TraceBus, Tracer
from .config import ClusterConfig
from .internode import InterNodeNetwork
from .manager import DistributedLeaseManager
from .paxoslease import PaxosAgent

__all__ = ["Cluster", "ClusterCodec", "node_seed"]


def node_seed(seed: int, node: int) -> int:
    """Per-node machine seed derived from the cluster seed (Knuth-style
    mix, kept positive and nonzero)."""
    return ((seed * 1_000_003 + node * 7_919) & 0x7FFFFFFF) or 1


class ClusterCodec(SnapshotCodec):
    """A snapshot codec spanning every machine in a cluster plus the
    cluster's own schedulable callables.  Node ``n``'s descriptors are
    prefixed ``("node", n, ...)`` so they stay unambiguous in the shared
    event queue."""

    def __init__(self, cluster: "Cluster") -> None:
        super().__init__()
        for n, node in enumerate(cluster.nodes):
            self.register_machine(node, prefix=("node", n))
        net = cluster.net
        for name in ("_deliver", "_weather"):
            self._register(("cnet", name), getattr(net, name))
        for n, agent in enumerate(cluster.agents):
            for name in ("_on_round_timeout", "_on_lease_expire",
                         "_maybe_renew", "_retry"):
                self._register(("paxos", n, name), getattr(agent, name))


class Cluster:
    """N simulated machines negotiating object ownership via PaxosLease."""

    def __init__(self, config: ClusterConfig | None = None, *,
                 schedule_strategy=None) -> None:
        self.config = config or ClusterConfig()
        cfg = self.config
        mc = cfg.machine
        self.schedule_strategy = schedule_strategy
        self.sim = Simulator(seed=cfg.seed, max_cycles=mc.max_cycles,
                             max_events=mc.max_events,
                             strategy=schedule_strategy)
        self._counters_sink = CountersTracer()
        self.trace = TraceBus(clock=lambda: self.sim.now,
                              sinks=(self._counters_sink,))
        #: Cluster-level counters (inter-node traffic, paxos rounds,
        #: cluster leases); per-node machine counters live on each node.
        self.counters = self._counters_sink.counters
        self.nodes = [Machine(replace(mc, seed=node_seed(cfg.seed, n)),
                              sim=self.sim)
                      for n in range(cfg.nodes)]
        self.net = InterNodeNetwork(cfg.spec, cfg.nodes, self.sim,
                                    self.trace, cfg.seed)
        self.agents = [PaxosAgent(n, cfg, self.net, self.sim, self.trace)
                       for n in range(cfg.nodes)]
        self.net.bind([agent.on_message for agent in self.agents])
        self.managers = [DistributedLeaseManager(n, self.nodes[n],
                                                 self.agents[n], self.trace)
                         for n in range(cfg.nodes)]
        # The cluster owns quiescence: run until every node's threads are
        # done (lease timers and weather events may remain queued).  The
        # nodes raise ``sim.quiesce_dirty`` on thread start and finish.
        self.sim.quiescent = lambda: all(
            m._live_threads == 0 for m in self.nodes)
        self._ran = False

    # -- instrumentation -----------------------------------------------------

    def attach_tracer(self, sink: Tracer) -> Tracer:
        """Attach a sink to the *cluster* bus (cluster lease/message
        events).  Per-node machine events need ``nodes[n].attach_tracer``.
        """
        sink.bind(self)
        return self.trace.attach(sink)

    def detach_tracer(self, sink: Tracer) -> None:
        self.trace.detach(sink)

    # -- threads -------------------------------------------------------------

    def add_thread(self, node: int, body: Callable[..., Generator],
                   *args: Any, **kwargs: Any) -> ThreadHandle:
        """Start a thread on node ``node`` (see ``Machine.add_thread``)."""
        return self.nodes[node].add_thread(body, *args, **kwargs)

    @property
    def num_threads(self) -> int:
        return sum(len(m.threads) for m in self.nodes)

    # -- running -------------------------------------------------------------

    def run(self, until: int | None = None) -> int:
        """Run the whole cluster until every node quiesces (or ``until``).
        """
        self._ran = True
        for m in self.nodes:
            m._ran = True
        return self.sim.run(until=until)

    @property
    def now(self) -> int:
        return self.sim.now

    def check_coherence_invariants(self) -> None:
        for m in self.nodes:
            m.check_coherence_invariants()

    # -- checkpointing (repro.state) ----------------------------------------

    STATE_SCHEMA = 1

    def enable_checkpointing(self) -> None:
        """Start every node's resume log, which :meth:`state_dict` needs.
        Must be called before the cluster first runs.  Idempotent, as
        :meth:`Machine.enable_checkpointing` is: a cluster already
        recording, a restored one included, is left as it is."""
        if all(m._replay_log is not None for m in self.nodes):
            return
        if self._ran:
            raise SimulationError(
                "enable_checkpointing() must be called before the cluster "
                "first runs: the resume logs must start at cycle 0")
        for m in self.nodes:
            m.enable_checkpointing()

    def state_dict(self) -> dict:
        """One tree for the whole cluster: shared clock/queue once, each
        machine's component half, then the cluster's own components."""
        codec = ClusterCodec(self)
        state = {
            "schema": self.STATE_SCHEMA,
            "nodes": len(self.nodes),
            "sim": self.sim.state_dict(),
            "queue": self.sim.queue.state_dict(codec),
            "machines": [m.component_state(codec) for m in self.nodes],
            "net": self.net.state_dict(),
            "agents": [a.state_dict() for a in self.agents],
            "sinks": self.trace.sinks_state(codec),
            "ran": self._ran,
        }
        if self.schedule_strategy is not None and \
                hasattr(self.schedule_strategy, "state_dict"):
            state["strategy"] = self.schedule_strategy.state_dict()
        state["pool"] = codec.dump_pool()
        self.trace.checkpoint_saved(
            self.sim.now, sum(len(m._replay_log) for m in self.nodes))
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` tree into this freshly built
        cluster (same config, same threads on each node)."""
        if state.get("schema") != self.STATE_SCHEMA:
            raise CheckpointMismatch(
                f"cluster state schema {state.get('schema')!r} != "
                f"{self.STATE_SCHEMA} supported by this build")
        if state.get("nodes") != len(self.nodes):
            raise CheckpointMismatch(
                f"checkpoint has {state.get('nodes')} nodes, cluster has "
                f"{len(self.nodes)}")
        if self._ran:
            raise CheckpointError(
                "load_state() requires a freshly built cluster: this one "
                "has already run")
        for m, ms in zip(self.nodes, state["machines"]):
            m.check_compatible(ms)
        codec = ClusterCodec(self)
        codec.load_pool(state["pool"])
        # Replaying node resume logs re-runs worker frames, which poke the
        # agents/network (emissions, rng draws, message sends).  All of
        # that is overwritten below -- queue, sim, net, agents and sinks
        # are installed from the snapshot -- so only the bus needs
        # silencing here, and before the replay: a replayed guard that
        # was denied emits ``cluster_guard_denied`` on it.
        self.trace.mute()
        try:
            entries = [m.replay_resume_log(ms["replay_log"], codec)
                       for m, ms in zip(self.nodes, state["machines"])]
            event_map = self.sim.queue.load_state(state["queue"], codec)
            codec.set_event_map(event_map)
            codec.fill_pool()
            self.sim.load_state(state["sim"])
            if "strategy" in state and self.schedule_strategy is not None \
                    and hasattr(self.schedule_strategy, "load_state"):
                self.schedule_strategy.load_state(state["strategy"])
            for m, ms, ent in zip(self.nodes, state["machines"], entries):
                m.install_component_state(ms, codec, ent)
            self.net.load_state(state["net"])
            for agent, astate in zip(self.agents, state["agents"]):
                agent.load_state(astate)
            self.trace.load_sinks_state(state["sinks"], codec)
            self._ran = state["ran"]
        finally:
            self.trace.unmute()
        self.trace.checkpoint_restored(self.sim.now, self.num_threads)

    # -- results -------------------------------------------------------------

    def merged_counters(self) -> Counters:
        """Cluster-wide totals: the cluster bus counters plus every
        node's, with per-core ops re-keyed to global core ids."""
        merged = Counters()
        sources = [self.counters] + [m.counters for m in self.nodes]
        for f in dataclass_fields(Counters):
            if f.name == "per_core_ops":
                continue
            setattr(merged, f.name,
                    sum(getattr(s, f.name) for s in sources))
        cores_per_node = self.config.machine.num_cores
        for n, m in enumerate(self.nodes):
            for core, ops in m.counters.per_core_ops.items():
                merged.per_core_ops[n * cores_per_node + core] = ops
        return merged

    def result(self, name: str = "cluster", *,
               extra: dict[str, Any] | None = None) -> RunResult:
        """Summarize the whole cluster run into one :class:`RunResult`."""
        cfg = self.config
        k = self.merged_counters()
        cycles = max(1, self.sim.now)
        ops = k.ops_completed
        throughput = ops * cfg.machine.clock_hz / cycles
        energy = EnergyModel(cfg.machine.energy,
                             cfg.nodes * cfg.machine.num_cores)
        return RunResult(
            name=name,
            num_threads=self.num_threads,
            cycles=self.sim.now,
            ops=ops,
            throughput_ops_per_sec=throughput,
            energy_nj_per_op=energy.nj_per_op(k, cycles),
            messages_per_op=k.messages / max(1, ops),
            l1_misses_per_op=k.l1_misses / max(1, ops),
            cas_failure_rate=k.cas_failures / max(1, k.cas_attempts),
            extra=extra or {},
            counters=k.snapshot(),
        )
