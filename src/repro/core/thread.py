"""Thread context and handle.

A simulated thread is a Python generator produced by calling a *thread body*
function with a :class:`Ctx` (plus user arguments).  The body yields
instruction objects (see :mod:`repro.core.isa`) and receives each
instruction's result; helper subroutines compose with ``yield from``.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Iterable

from ..config import WORD_SIZE
from ..trace.events import TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from ..trace.bus import TraceBus
    from .machine import Machine


class Ctx:
    """Per-thread context handed to every thread body.

    Provides the thread id / core id, a deterministic per-thread RNG, and
    zero-traffic initialization helpers that model a thread-local allocator
    pool (fresh, uncached lines are initialized without coherence traffic;
    the first *shared* access to them is still a cold miss).
    """

    __slots__ = ("machine", "tid", "core_id", "rng")

    def __init__(self, machine: "Machine", tid: int, core_id: int) -> None:
        self.machine = machine
        self.tid = tid
        self.core_id = core_id
        self.rng = random.Random((machine.config.seed << 20) ^ (tid + 1))

    # -- instrumentation ---------------------------------------------------

    @property
    def trace(self) -> "TraceBus":
        """The machine's instrumentation bus (per-type emit slots live
        here: ``ctx.trace.lock_attempt(ctx.core_id)`` and friends)."""
        return self.machine.trace

    def emit(self, event: TraceEvent) -> None:
        """Emit a trace event onto the machine's instrumentation bus."""
        self.machine.trace.emit(event)

    def note_op(self, op: str | None = None, args: tuple = (),
                result: Any = None, start: int | None = None) -> None:
        """Record one completed data-structure operation by this thread.

        ``op``/``args``/``result`` describe the operation for history-based
        checking (see :mod:`repro.check`); ``start`` is the invocation
        cycle (capture ``ctx.machine.now`` before issuing the operation).
        The response cycle is stamped by the trace bus at emit time.
        Emission is pure observation -- it never schedules events, so
        recording histories cannot perturb the simulation.
        """
        self.machine.trace.op_completed(
            self.core_id, self.tid, op, args, result,
            self.machine.sim.now if start is None else start)

    # -- allocation ------------------------------------------------------

    def alloc_words(self, nwords: int, init: Iterable[Any] | None = None,
                    *, line_aligned: bool = True,
                    label: str | None = None) -> int:
        """Allocate ``nwords`` words, optionally writing initial values
        directly to the backing store (no simulated traffic)."""
        m = self.machine

        def alloc() -> int:
            base = m.alloc.alloc_words(nwords, line_aligned=line_aligned,
                                       label=label)
            if init is not None:
                for i, v in enumerate(init):
                    m.memory.write(base + i * WORD_SIZE, v)
            return base

        # A checkpoint restore replays the recorded base with no side
        # effects: allocator/memory state is installed from the snapshot.
        return m.recorded("alloc", self.tid, alloc)

    def alloc_line(self, *, label: str | None = None) -> int:
        m = self.machine
        return m.recorded("alloc", self.tid, m.alloc.alloc_line, label=label)

    def alloc_cached(self, nwords: int, init: Iterable[Any] | None = None,
                     *, label: str | None = None) -> int:
        """Like :meth:`alloc_words`, but additionally installs the fresh
        line(s) into this core's L1 in exclusive state, as a warm per-core
        allocator pool would.  The object's first *remote* access still
        costs a full coherence transfer."""
        base = self.alloc_words(nwords, init, label=label)
        if self.machine.replaying:
            # The preinstall's L1/L2/directory effects live in the
            # installed snapshot; re-running it here would also schedule
            # eviction events into the freshly restored queue.
            return base
        amap = self.machine.amap
        first = amap.line_of(base)
        last = amap.line_of(base + (nwords - 1) * WORD_SIZE)
        directory = self.machine.directory
        for line in range(first, last + 1):
            directory.preinstall_owned(line, self.core_id)
        return base

    # -- direct (non-simulated) memory peeks for assertions/debugging ------

    def peek(self, addr: int) -> Any:
        """Read the backing store without simulating an access.  For test
        assertions only -- workload logic must use ``yield Load(addr)``.
        A checkpoint restore replays what the peek saw the first time:
        memory holds the snapshot's *final* state only after restore."""
        m = self.machine
        return m.recorded("peek", self.tid, m.memory.read, addr)


class ThreadHandle:
    """Handle to one simulated thread."""

    __slots__ = ("tid", "core_id", "name", "done", "result")

    def __init__(self, tid: int, core_id: int, name: str) -> None:
        self.tid = tid
        self.core_id = core_id
        self.name = name
        self.done = False
        #: Value returned by the thread body (via ``return``), if any.
        self.result: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "running"
        return f"<Thread {self.tid} ({self.name}) on core {self.core_id}: {state}>"
