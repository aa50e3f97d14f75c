"""The Machine: top-level façade assembling the whole simulated multicore.

Typical use::

    from repro import Machine, MachineConfig

    m = Machine(MachineConfig(num_cores=16))
    stack = TreiberStack(m, use_lease=True)
    for _ in range(16):
        m.add_thread(stack_worker, stack, ops=100)
    m.run()
    print(m.result("stack").throughput_ops_per_sec)
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from ..config import MachineConfig, WORD_SIZE
from ..coherence.directory import Directory
from ..coherence.l2 import SharedL2
from ..coherence.links import build_network
from ..engine import Simulator
from ..errors import CheckpointError, CheckpointMismatch, SimulationError
from ..faults import build_plan
from ..mem import AddressMap, Allocator, Memory
from ..stats import EnergyModel, RunResult
from ..trace import CountersTracer, TraceBus, Tracer
from .core import Core
from .thread import Ctx, ThreadHandle


class _ReplayCursor:
    """Read position over a restored resume log.

    While :meth:`Machine.load_state` replays the log to re-materialize the
    thread generators, :class:`~repro.core.thread.Ctx` pops its recorded
    ``alloc``/``peek`` results from here (instead of re-touching the
    allocator/memory, whose state is installed after the replay); the
    machine itself pops the ``send``/``throw`` entries that drive the
    generators.  Both advance the same position, because the log is one
    global-order sequence.
    """

    __slots__ = ("entries", "pos")

    def __init__(self, entries: list) -> None:
        self.entries = entries
        self.pos = 0

    def next_entry(self):
        return self.entries[self.pos] if self.pos < len(self.entries) else None

    def take(self, kind: str, tid: int) -> Any:
        entry = self.next_entry()
        if entry is None or entry[0] != kind or entry[1] != tid:
            raise CheckpointError(
                f"resume-log divergence: thread {tid} asked for a {kind!r} "
                f"result but the log has {entry!r}; the restored machine "
                "is not running the checkpointed workload")
        self.pos += 1
        return entry[2]


class Machine:
    """A simulated tiled multicore with Lease/Release support."""

    def __init__(self, config: MachineConfig | None = None, *,
                 schedule_strategy=None, sim: Simulator | None = None) -> None:
        self.config = config or MachineConfig()
        cfg = self.config
        #: Optional schedule-perturbation strategy (see repro.check.perturb)
        #: reordering same-timestamp events; None keeps the default
        #: deterministic order.
        self.schedule_strategy = schedule_strategy
        if sim is None:
            self.sim = Simulator(seed=cfg.seed, max_cycles=cfg.max_cycles,
                                 max_events=cfg.max_events,
                                 strategy=schedule_strategy)
            self._owns_sim = True
        else:
            # A member of a multi-node cluster: all machines share one
            # simulated clock/event queue owned by the cluster, which also
            # owns the quiescence predicate and any schedule strategy.
            if schedule_strategy is not None:
                raise SimulationError(
                    "a shared simulator already owns the schedule; install "
                    "the strategy on the cluster, not on a member machine")
            self.sim = sim
            self._owns_sim = False
        #: The instrumentation bus every layer emits trace events into.
        #: The default CountersTracer sink derives the classic flat
        #: counters; attach_tracer() adds further observers.
        self._counters_sink = CountersTracer()
        self.trace = TraceBus(clock=lambda: self.sim.now,
                              sinks=(self._counters_sink,))
        self.counters = self._counters_sink.counters
        self.amap = AddressMap(cfg.line_size, cfg.num_cores)
        self.memory = Memory()
        self.alloc = Allocator(self.amap)
        #: Seeded fault plan (repro.faults), or None for the fault-free
        #: default (no hooks consulted; bit-identical to a plan-less build).
        self.faults = build_plan(cfg.fault_spec, cfg.seed)
        #: Plain contention-free MeshNetwork for an empty network spec
        #: (bit-identical to the pre-links model), LinkedNetwork otherwise.
        self.network = build_network(cfg.network, cfg.num_cores, self.sim,
                                     self.trace, faults=self.faults)
        self.l2 = SharedL2(cfg, self.trace)
        self.directory = Directory(self.amap, self.network, self.l2,
                                   self.sim, self.trace,
                                   mesi=cfg.protocol == "mesi",
                                   faults=self.faults)
        self.cores = [Core(i, self) for i in range(cfg.num_cores)]
        if self.faults is not None:
            # Announce each straggler core once (the per-instruction
            # slowdown itself is folded into retire latencies).
            for core_id, mult in self.faults.spec.slow_cores:
                self.trace.fault_injected("slow_core", core_id, mult)
        self.directory.mem_units = [c.memunit for c in self.cores]
        self.energy_model = EnergyModel(cfg.energy, cfg.num_cores)
        self.threads: list[ThreadHandle] = []
        self._ctxs: list[Ctx] = []
        self._live_threads = 0
        if self._owns_sim:
            self.sim.quiescent = lambda: self._live_threads == 0
            # The machine's quiescence predicate only flips on thread start
            # and finish, and both paths notify -- so the run loop can skip
            # the per-event poll entirely.
            self.sim.use_quiescence_notify()
        self._ran = False
        #: Checkpoint support (repro.state).  When recording is enabled,
        #: every generator interaction is appended to this global-order
        #: resume log so a restore can re-materialize the generators by
        #: replay; None (the default) records nothing and costs nothing.
        self._replay_log: list | None = None
        #: Cursor over a restored resume log while a replay is in progress
        #: (Ctx pops alloc/peek results from it instead of touching the
        #: allocator/memory, whose state is installed after the replay).
        self._replay_cursor = None

    # -- instrumentation -----------------------------------------------------

    def attach_tracer(self, sink: Tracer) -> Tracer:
        """Attach a trace sink to this machine's bus.  The sink's ``bind``
        hook receives the machine (sinks that inspect state -- invariant
        checker, heatmap -- wire themselves there).  Returns the sink."""
        sink.bind(self)
        return self.trace.attach(sink)

    def detach_tracer(self, sink: Tracer) -> None:
        self.trace.detach(sink)

    # -- memory helpers ----------------------------------------------------

    def alloc_var(self, init: Any = 0, *, label: str | None = None) -> int:
        """Allocate one shared variable on its own cache line (the paper's
        false-sharing-free layout) and initialize it without traffic.
        ``label`` names the allocation in traces/heatmaps."""
        addr = self.alloc.alloc_line(label=label)
        self.memory.write(addr, init)
        return addr

    def alloc_struct(self, fields: list[Any], *,
                     label: str | None = None) -> int:
        """Allocate consecutive words (one line-aligned block) initialized
        to ``fields``; returns the base address."""
        base = self.alloc.alloc_words(len(fields), label=label)
        for i, v in enumerate(fields):
            self.memory.write(base + i * WORD_SIZE, v)
        return base

    def write_init(self, addr: int, value: Any) -> None:
        """Initialize memory directly (no simulated traffic).  Only valid
        before the address has entered coherence circulation."""
        self.memory.write(addr, value)

    def peek(self, addr: int) -> Any:
        """Read the backing store without simulating an access."""
        return self.memory.read(addr)

    # -- threads ------------------------------------------------------------

    def add_thread(self, body: Callable[..., Generator], *args: Any,
                   name: str | None = None, core: int | None = None,
                   **kwargs: Any) -> ThreadHandle:
        """Create a thread running ``body(ctx, *args, **kwargs)`` on the
        next free core (or ``core``).  One thread per core."""
        if core is None:
            core = next((c.core_id for c in self.cores if c.idle), None)
            if core is None:
                raise SimulationError(
                    f"all {self.config.num_cores} cores busy; the model "
                    "runs one thread per core (add cores or fewer threads)")
        elif not self.cores[core].idle:
            raise SimulationError(f"core {core} already has a thread")
        tid = len(self.threads)
        handle = ThreadHandle(tid, core, name or body.__name__)
        ctx = Ctx(self, tid, core)
        gen = body(ctx, *args, **kwargs)
        if not isinstance(gen, Generator):
            raise SimulationError(
                f"thread body {body.__name__} must be a generator function")
        self.threads.append(handle)
        self._ctxs.append(ctx)
        self._live_threads += 1
        self.sim.quiesce_dirty = True
        self.cores[core].start_thread(gen, handle)
        return handle

    def _thread_finished(self, handle: ThreadHandle) -> None:
        self._live_threads -= 1
        self.sim.quiesce_dirty = True

    @property
    def idle_cores(self) -> int:
        """Cores without a live thread (one thread per core, so this is
        ``num_cores`` exactly when the machine is quiescent)."""
        return len(self.cores) - self._live_threads

    # -- running -----------------------------------------------------------

    def run(self, until: int | None = None) -> int:
        """Run until all threads finish (or ``until`` cycles).  Returns the
        final simulation time in cycles."""
        self._ran = True
        return self.sim.run(until=until)

    @property
    def now(self) -> int:
        return self.sim.now

    # -- checkpointing (repro.state) ----------------------------------------

    #: State-tree schema; bumped whenever a component's state shape changes.
    STATE_SCHEMA = 1

    def enable_checkpointing(self) -> None:
        """Start recording the generator resume log, which is what allows
        this machine to be snapshotted later.  Must be called before the
        first :meth:`run` -- the log has to cover every generator
        interaction from cycle 0.  Idempotent."""
        if self._replay_log is not None:
            return
        if self._ran:
            raise SimulationError(
                "enable_checkpointing() must be called before the machine "
                "first runs: the resume log must start at cycle 0")
        self._replay_log = []

    def state_dict(self) -> dict:
        """Serialize the complete machine state as a JSON-safe tree.

        Thread generators cannot be serialized directly; instead the
        recorded resume log is saved, and :meth:`load_state` re-drives
        fresh generators through it.  Everything else -- clock, RNG
        streams, event queue, caches, directory, leases, counters, fault
        plan, perturbation strategy -- is captured field-for-field, so a
        restored run is bit-identical to one that never stopped.
        """
        from ..state.codec import SnapshotCodec

        codec = SnapshotCodec(self)
        state = {
            "schema": self.STATE_SCHEMA,
            "sim": self.sim.state_dict(),
            "queue": self.sim.queue.state_dict(codec),
        }
        state.update(self.component_state(codec))
        if self.schedule_strategy is not None and \
                hasattr(self.schedule_strategy, "state_dict"):
            state["strategy"] = self.schedule_strategy.state_dict()
        # The pool must be dumped last: encoding above appends to it.
        state["pool"] = codec.dump_pool()
        self.trace.checkpoint_saved(self.sim.now, len(self._replay_log))
        return state

    def component_state(self, codec) -> dict:
        """The machine-local half of :meth:`state_dict`: every component
        this machine *owns* (memory, caches, cores, leases, sinks, thread
        bookkeeping, fault plan) encoded through ``codec``.  The shared
        half -- clock, event queue, strategy, pool -- is serialized by
        whoever owns the simulator (this machine for a solo run, the
        cluster for a multi-node run)."""
        from ..state.codec import encode_rng

        if self._replay_log is None:
            raise CheckpointError(
                "machine is not checkpointable: call enable_checkpointing() "
                "before run()")
        state = {
            "memory": self.memory.state_dict(codec),
            "alloc": self.alloc.state_dict(),
            "l2": self.l2.state_dict(),
            "directory": self.directory.state_dict(codec),
            "cores": [c.state_dict(codec) for c in self.cores],
            "sinks": [[type(s).__name__,
                       s.state_dict(codec) if hasattr(s, "state_dict")
                       else None]
                      for s in self.trace.sinks],
            "threads": [{"done": h.done, "result": codec.encode(h.result)}
                        for h in self.threads],
            "ctx_rngs": [encode_rng(c.rng) for c in self._ctxs],
            "live_threads": self._live_threads,
            "ran": self._ran,
            "replay_log": [[kind, tid, codec.encode(value), t]
                           for kind, tid, value, t in self._replay_log],
        }
        if self.faults is not None:
            state["faults"] = self.faults.state_dict()
        if self.network.contended:
            # Key only exists for contended builds, so default-spec
            # checkpoints keep their exact pre-links shape.
            state["network"] = self.network.state_dict(codec)
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` tree into this freshly built
        machine.

        The machine must have been constructed with the same config and
        populated with the same threads as the checkpointed one (the
        on-disk container in :mod:`repro.state.checkpoint` verifies this
        before calling here).  Restore replays the resume log into the
        fresh generators with the trace bus muted, then installs every
        component's saved state on top.
        """
        from ..state.codec import SnapshotCodec

        if state.get("schema") != self.STATE_SCHEMA:
            raise CheckpointMismatch(
                f"state schema {state.get('schema')!r} != "
                f"{self.STATE_SCHEMA} supported by this build")
        self.check_compatible(state)
        codec = SnapshotCodec(self)
        codec.load_pool(state["pool"])
        entries = self.replay_resume_log(state["replay_log"], codec)
        # -- rebuild the event queue, then resolve shared objects -----------
        event_map = self.sim.queue.load_state(state["queue"], codec)
        codec.set_event_map(event_map)
        codec.fill_pool()
        self.sim.load_state(state["sim"])
        if "strategy" in state and self.schedule_strategy is not None and \
                hasattr(self.schedule_strategy, "load_state"):
            self.schedule_strategy.load_state(state["strategy"])
        self.install_component_state(state, codec, entries)

    def check_compatible(self, state: dict) -> None:
        """Raise unless this freshly built machine matches the checkpointed
        one closely enough that a restore can possibly succeed."""
        if self._ran:
            raise CheckpointError(
                "load_state() requires a freshly built machine: this one "
                "has already run")
        if len(state["threads"]) != len(self.threads):
            raise CheckpointMismatch(
                f"checkpoint has {len(state['threads'])} threads, machine "
                f"has {len(self.threads)}: not the same workload")
        if ("faults" in state) != (self.faults is not None):
            raise CheckpointMismatch(
                "checkpoint and machine disagree about fault injection "
                "(different fault_spec?)")
        if ("network" in state) != self.network.contended:
            raise CheckpointMismatch(
                "checkpoint and machine disagree about interconnect "
                "contention (different network spec?)")

    def replay_resume_log(self, enc_entries: list, codec) -> list:
        """Replay the recorded resume log into this machine's fresh thread
        generators, re-materializing their frames.  Mutes the trace bus
        (sinks already saw these events in the original run; their state is
        installed from the snapshot afterwards) -- the bus stays muted
        until :meth:`install_component_state` unmutes it.  Returns the
        decoded entries for the caller to hand back to install."""
        from ..errors import LeaseError

        self.trace.mute()
        entries = [(kind, tid, codec.decode(enc), t)
                   for kind, tid, enc, t in enc_entries]
        cursor = _ReplayCursor(entries)
        self._replay_cursor = cursor
        self._replay_log = None
        try:
            while (entry := cursor.next_entry()) is not None:
                kind, tid, value, t = entry
                if kind not in ("send", "throw"):
                    raise CheckpointError(
                        f"stray {kind!r} entry in resume log: no thread "
                        "consumed it during replay")
                cursor.pos += 1
                core = self.cores[self.threads[tid].core_id]
                gen = core._gen
                if gen is None:
                    raise CheckpointError(
                        f"resume log drives thread {tid} past its end")
                # The body may read the clock (ctx.machine.now) mid-run;
                # replay it under the cycle it originally saw.
                self.sim.now = t
                try:
                    if kind == "send":
                        gen.send(value)
                    else:
                        gen.throw(LeaseError(value))
                except StopIteration:
                    core._gen = None
                    core._handle = None
        finally:
            self._replay_cursor = None
        if cursor.pos != len(entries):
            raise CheckpointError(
                "resume log not fully consumed: restored workload diverged "
                "from the checkpointed one")
        return entries

    def install_component_state(self, state: dict, codec,
                                entries: list) -> None:
        """Install every machine-local component's saved state (the
        :meth:`component_state` half) on top of the replayed generators,
        then unmute the bus.  The caller has already rebuilt the event
        queue and filled the codec pool."""
        from ..state.codec import decode_rng

        self.memory.load_state(state["memory"], codec)
        self.alloc.load_state(state["alloc"])
        self.l2.load_state(state["l2"])
        self.directory.load_state(state["directory"], codec)
        for core, cs in zip(self.cores, state["cores"]):
            core.load_state(cs, codec)
        sinks = self.trace.sinks
        if len(state["sinks"]) != len(sinks):
            raise CheckpointMismatch(
                f"checkpoint has {len(state['sinks'])} trace sinks, machine "
                f"has {len(sinks)}")
        for sink, (cls_name, ss) in zip(sinks, state["sinks"]):
            if type(sink).__name__ != cls_name:
                raise CheckpointMismatch(
                    f"trace sink mismatch: checkpoint saved {cls_name}, "
                    f"machine has {type(sink).__name__}")
            if ss is not None and hasattr(sink, "load_state"):
                sink.load_state(ss, codec)
        if self.faults is not None:
            self.faults.load_state(state["faults"])
        if self.network.contended:
            self.network.load_state(state["network"], codec)
        for handle, ts in zip(self.threads, state["threads"]):
            handle.done = ts["done"]
            handle.result = codec.decode(ts["result"])
            core = self.cores[handle.core_id]
            if handle.done and core._handle is not None:
                raise CheckpointError(
                    f"thread {handle.tid} is done in the checkpoint but its "
                    "replayed generator never finished")
        for ctx, r in zip(self._ctxs, state["ctx_rngs"]):
            decode_rng(ctx.rng, r)
        self._live_threads = state["live_threads"]
        self._ran = state["ran"]
        # Recording continues from the replayed history, so a machine
        # restored from cycle T can itself be checkpointed at T' > T.
        self._replay_log = entries
        self.trace.unmute()
        self.trace.checkpoint_restored(self.sim.now, len(self.threads))

    # -- results ------------------------------------------------------------

    def result(self, name: str = "run", *,
               extra: dict[str, Any] | None = None) -> RunResult:
        """Summarize the whole run into a :class:`RunResult`."""
        k = self.counters
        cycles = max(1, self.sim.now)
        ops = k.ops_completed
        throughput = ops * self.config.clock_hz / cycles
        if self.network.contended:
            extra = dict(extra or {})
            util = self.network.utilization()
            extra.setdefault("link_util_pct",
                             round(100 * util.get("link", 0.0), 2))
            extra.setdefault("link_flits", k.link_flits)
            extra.setdefault("link_stall_cycles", k.link_stall_cycles)
            extra.setdefault("port_stalls", k.port_stalls)
        return RunResult(
            name=name,
            num_threads=len(self.threads),
            cycles=self.sim.now,
            ops=ops,
            throughput_ops_per_sec=throughput,
            energy_nj_per_op=self.energy_model.nj_per_op(k, cycles),
            messages_per_op=k.messages / max(1, ops),
            l1_misses_per_op=k.l1_misses / max(1, ops),
            cas_failure_rate=k.cas_failures / max(1, k.cas_attempts),
            extra=extra or {},
            counters=k.snapshot(),
        )

    def check_coherence_invariants(self) -> None:
        """Verify directory/L1 agreement (tests call this at quiescence)."""
        self.directory.check_invariants()
