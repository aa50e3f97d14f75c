"""In-order core model.

Each core runs exactly one simulated thread (the paper's experiments use one
thread per core/tile).  The core pulls instructions from the thread
generator, executes them against its memory unit / lease manager, and
resumes the generator with the result.  Every instruction takes at least one
cycle, and every continuation goes through the event queue, so generator
resumption never recurses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ..errors import CheckpointError, LeaseError, SimulationError
from . import isa
from .thread import ThreadHandle

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

#: The memory instructions, all dispatched through the memory unit.
_MEM_CLASSES = frozenset((isa.Load, isa.Store, isa.CAS, isa.FetchAdd,
                          isa.Swap, isa.TestAndSet))


def _mem_op(instr: isa.Instr, t: type) -> tuple:
    """The serializable pending-op descriptor for a memory instruction."""
    if t is isa.Load:
        return ("load", instr.addr)
    if t is isa.Store:
        return ("store", instr.addr, instr.value)
    if t is isa.CAS:
        return ("cas", instr.addr, instr.expected, instr.new)
    if t is isa.FetchAdd:
        return ("fetch_add", instr.addr, instr.delta)
    if t is isa.TestAndSet:
        return ("swap", instr.addr, 1)
    return ("swap", instr.addr, instr.value)  # Swap


class _CommitCallback:
    """Callable shim around :meth:`Core._commit` with no ``core_id``.

    The L1-hit commit continuation was historically a plain closure, so
    :func:`~repro.check.perturb.owner_core` resolved it to *no* owner and
    perturbation strategies left it at priority 0.  A bound ``Core`` method
    would suddenly carry a ``core_id`` and reshuffle every explored
    schedule; this shim keeps the owner anonymous while staying a named,
    serializable object (checkpoints encode it as the core's commit slot).
    """

    __slots__ = ("core",)

    def __init__(self, core: "Core") -> None:
        self.core = core

    def __call__(self) -> None:
        self.core._commit()


class Core:
    """One in-order core: generator driver + memory unit + lease manager."""

    __slots__ = ("core_id", "machine", "sim", "trace", "memory", "memunit",
                 "lease_mgr", "_gen", "_handle", "_pending_op", "_commit_cb",
                 "_leases_enabled", "_work_scale")

    def __init__(self, core_id: int, machine: "Machine") -> None:
        from ..coherence.memunit import MemUnit
        from ..lease.manager import LeaseManager

        self.core_id = core_id
        self.machine = machine
        self.sim = machine.sim
        self.trace = machine.trace
        self.memory = machine.memory
        self.memunit = MemUnit(core_id, machine.config, machine.amap,
                               machine.directory, machine.sim,
                               machine.trace)
        self.lease_mgr = LeaseManager(core_id, machine.config.lease,
                                      machine.amap, self.memunit,
                                      machine.sim, machine.trace,
                                      faults=machine.faults)
        self.memunit.lease_mgr = self.lease_mgr
        self._gen: Generator | None = None
        self._handle: ThreadHandle | None = None
        #: The in-flight memory op as a serializable descriptor (checkpoints
        #: re-materialize it instead of pickling a closure).
        self._pending_op: tuple | None = None
        self._commit_cb = _CommitCallback(self)
        self._leases_enabled = machine.config.lease.enabled
        #: Fault-injected IPC throttle: retire latencies are multiplied by
        #: this factor (1 on a healthy core).
        self._work_scale = (machine.faults.core_scale(core_id)
                            if machine.faults is not None else 1)

    @property
    def idle(self) -> bool:
        return self._gen is None

    def start_thread(self, gen: Generator, handle: ThreadHandle) -> None:
        if self._gen is not None:
            raise SimulationError(
                f"core {self.core_id} already runs thread "
                f"{self._handle.tid if self._handle else '?'}")
        self._gen = gen
        self._handle = handle
        self.sim.after(0, self._resume, None)

    # -- generator driving ------------------------------------------------

    def _resume(self, value: Any) -> None:
        self._step(("send", value))

    def _step(self, send: tuple) -> None:
        gen = self._gen
        if gen is None:  # pragma: no cover - defensive
            raise SimulationError(f"core {self.core_id}: resume with no thread")
        log = self.machine._replay_log
        while True:
            try:
                if send[0] == "send":
                    if log is not None:
                        log.append(("send", self._handle.tid, send[1],
                                    self.sim.now))
                    instr = gen.send(send[1])
                else:
                    if log is not None:
                        log.append(("throw", self._handle.tid,
                                    str(send[1]), self.sim.now))
                    instr = gen.throw(send[1])
            except StopIteration as stop:
                handle = self._handle
                assert handle is not None
                handle.done = True
                handle.result = stop.value
                self._gen = None
                self._handle = None
                self.machine._thread_finished(handle)
                return
            try:
                self._dispatch(instr)
                return
            except LeaseError as fault:
                # Synchronous instruction faults (e.g. mixing single and
                # multi-location leases) are delivered into the thread, so
                # workload code can catch them like an exception.
                send = ("throw", fault)

    # -- instruction execution ------------------------------------------------

    def _dispatch(self, instr: isa.Instr) -> None:
        t = type(instr)
        scale = self._work_scale
        if t is isa.Work:
            sim = self.sim
            sim.queue.schedule(sim.now + max(1, instr.cycles) * scale,
                               self._resume, None)
        elif t in _MEM_CLASSES:
            self._pending_op = _mem_op(instr, t)
            self.memunit.access(t is not isa.Load, instr.addr, is_lease=False,
                                callback=self._commit_cb)
        elif t is isa.Fence:
            self.sim.after(scale, self._resume, None)
        elif t is isa.Lease:
            if not self._leases_enabled:
                self.sim.after(0, self._resume, None)
            else:
                # The grant callback may fire synchronously (line already
                # leased / already owned); always resume via the event queue
                # so consecutive lease instructions cannot recurse.
                self.lease_mgr.lease(instr.addr, instr.time,
                                     self._lease_done, site=instr.site)
        elif t is isa.Release:
            if not self._leases_enabled:
                self.sim.after(0, self._resume, False)
            else:
                voluntary = self.lease_mgr.release(instr.addr)
                self.sim.after(scale, self._resume, voluntary)
        elif t is isa.MultiLease:
            if not self._leases_enabled:
                self.sim.after(0, self._resume, None)
            else:
                self.lease_mgr.multilease(instr.addrs, instr.time,
                                          self._lease_done)
        elif t is isa.ReleaseAll:
            if not self._leases_enabled:
                self.sim.after(0, self._resume, None)
            else:
                self.lease_mgr.release_all()
                self.sim.after(scale, self._resume, None)
        else:
            raise SimulationError(
                f"core {self.core_id}: thread yielded non-instruction "
                f"{instr!r}")

    # -- checkpointing (repro.state) ----------------------------------------

    def state_dict(self, codec) -> dict:
        """The core's own state beyond the generator (which the machine
        re-materializes by replaying the resume log): the in-flight memory
        op plus the memory unit and lease manager."""
        return {
            "pending_op": codec.encode(self._pending_op),
            "memunit": self.memunit.state_dict(codec),
            "lease": self.lease_mgr.state_dict(codec),
        }

    def load_state(self, state: dict, codec) -> None:
        if state.get("pending_retire") is not None:
            raise CheckpointError(
                f"core {self.core_id}: the checkpoint holds a thread "
                "retirement deferred by the removed fast engine's "
                "batch-stepped cores; it cannot be restored (re-record it)")
        self._pending_op = codec.decode(state["pending_op"])
        self.memunit.load_state(state["memunit"], codec)
        self.lease_mgr.load_state(state["lease"], codec)

    # -- memory-op commit point (runs at the access-completion instant) ------

    def _lease_done(self) -> None:
        """Retirement continuation of Lease/MultiLease instructions."""
        self.sim.after(0, self._resume, None)

    def _commit(self) -> None:
        op = self._pending_op
        self._pending_op = None
        kind = op[0]
        if kind == "load":
            self._resume(self.memory.read(op[1]))
        elif kind == "store":
            self.memory.write(op[1], op[2])
            self._resume(None)
        elif kind == "cas":
            ok = self.memory.cas(op[1], op[2], op[3])
            self.trace.cas(self.core_id, op[1], ok)
            self._resume(ok)
        elif kind == "fetch_add":
            self._resume(self.memory.fetch_add(op[1], op[2]))
        else:  # swap (also serves TestAndSet)
            self._resume(self.memory.swap(op[1], op[2]))
