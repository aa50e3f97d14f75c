"""Data structures built on software MCAS (:mod:`repro.sync.mcas`).

The multi-word arm of the contention-management zoo: each operation
updates several words atomically (the structure pointer *plus* a size
word), so the MCAS helping policy -- not a lease -- is what manages
contention.  All MCAS-managed words follow the ``(value, version)`` cell
convention of :mod:`repro.sync.mcas`; node payload words that are
immutable after publication stay plain.
"""

from __future__ import annotations

from typing import Any, Generator

from ..config import WORD_SIZE
from ..core.isa import Load, Store
from ..core.machine import Machine
from ..core.thread import Ctx
from ..sync.mcas import Mcas, managed_word
from .workers import counter_worker, pair_worker

VALUE_OFF = 0
NEXT_OFF = WORD_SIZE
NIL = 0


class McasCounter:
    """Counter whose increment MCASes two words -- the value and an op
    count on a separate line -- keeping ``value == ops`` as a structural
    invariant any lost or doubled update would break."""

    def __init__(self, machine: Machine, *, helping: str = "aware",
                 help_slice: int = 64) -> None:
        self.machine = machine
        self.mc = Mcas(machine, helping=helping, help_slice=help_slice)
        self.value_addr = machine.alloc_var(managed_word(0),
                                            label="counter.value")
        self.ops_addr = machine.alloc_var(managed_word(0),
                                          label="counter.ops")

    def increment(self, ctx: Ctx) -> Generator[Any, Any, int]:
        """MCAS-increment both words.  Returns the pre-increment value."""
        while True:
            vc = yield from self.mc.read_word(ctx, self.value_addr)
            oc = yield from self.mc.read_word(ctx, self.ops_addr)
            ok = yield from self.mc.mcas(ctx, [
                (self.value_addr, vc, (vc[0] + 1, vc[1] + 1)),
                (self.ops_addr, oc, (oc[0] + 1, oc[1] + 1))])
            if ok:
                return vc[0]

    def read(self, ctx: Ctx) -> Generator[Any, Any, int]:
        return (yield from self.mc.read(ctx, self.value_addr))

    def peek_value(self) -> int:
        """The committed counter value (test helper; resolves no
        descriptors, so only valid at quiescence)."""
        return self.machine.peek(self.value_addr)[0]

    def peek_ops(self) -> int:
        return self.machine.peek(self.ops_addr)[0]

    update_worker = counter_worker

    def stats(self) -> dict[str, int]:
        return self.mc.stats()


class McasStack:
    """Treiber-shaped LIFO whose push/pop MCAS the head pointer and a
    size word together (``len(stack) == count`` is the invariant)."""

    PAIR = ("push", "pop")

    def __init__(self, machine: Machine, *, helping: str = "aware",
                 help_slice: int = 64) -> None:
        self.machine = machine
        self.mc = Mcas(machine, helping=helping, help_slice=help_slice)
        self.head = machine.alloc_var(managed_word(NIL), label="stack.head")
        self.count = machine.alloc_var(managed_word(0), label="stack.count")

    def prefill(self, values) -> None:
        """Push ``values`` directly (no simulated traffic); call before run."""
        m = self.machine
        for v in values:
            node = m.alloc.alloc_words(2, label="stack.node")
            m.write_init(node + VALUE_OFF, v)
            m.write_init(node + NEXT_OFF, m.peek(self.head)[0])
            m.write_init(self.head, managed_word(node))
        m.write_init(self.count, managed_word(self._count_direct()))

    def _count_direct(self) -> int:
        n, node = 0, self.machine.peek(self.head)[0]
        while node != NIL:
            n += 1
            node = self.machine.peek(node + NEXT_OFF)
        return n

    def push(self, ctx: Ctx, value: Any) -> Generator:
        node = ctx.alloc_cached(2, [value, NIL], label="stack.node")
        while True:
            hc = yield from self.mc.read_word(ctx, self.head)
            cc = yield from self.mc.read_word(ctx, self.count)
            yield Store(node + NEXT_OFF, hc[0])
            ok = yield from self.mc.mcas(ctx, [
                (self.head, hc, (node, hc[1] + 1)),
                (self.count, cc, (cc[0] + 1, cc[1] + 1))])
            if ok:
                return

    def pop(self, ctx: Ctx) -> Generator[Any, Any, Any]:
        """Pop and return the top value, or None if the stack is empty."""
        while True:
            hc = yield from self.mc.read_word(ctx, self.head)
            h = hc[0]
            if h == NIL:
                return None
            cc = yield from self.mc.read_word(ctx, self.count)
            nxt = yield Load(h + NEXT_OFF)
            ok = yield from self.mc.mcas(ctx, [
                (self.head, hc, (nxt, hc[1] + 1)),
                (self.count, cc, (cc[0] - 1, cc[1] + 1))])
            if ok:
                return (yield Load(h + VALUE_OFF))

    def drain_direct(self) -> list[Any]:
        """Walk the stack in the backing store (no traffic); test helper."""
        out = []
        node = self.machine.peek(self.head)[0]
        while node != NIL:
            out.append(self.machine.peek(node + VALUE_OFF))
            node = self.machine.peek(node + NEXT_OFF)
        return out

    update_worker = pair_worker

    def stats(self) -> dict[str, int]:
        return self.mc.stats()


class McasQueue:
    """Michael-Scott-shaped FIFO whose enqueue atomically links the new
    node *and* swings the tail (plus a size word) in one MCAS, so the
    tail can never lag -- the helping policy replaces the MS "help swing"
    path entirely.  Node layout: ``[value, next]`` with ``next`` managed.
    """

    PAIR = ("enqueue", "dequeue")

    def __init__(self, machine: Machine, *, helping: str = "aware",
                 help_slice: int = 64) -> None:
        self.machine = machine
        self.mc = Mcas(machine, helping=helping, help_slice=help_slice)
        dummy = machine.alloc.alloc_words(2, label="queue.node")
        machine.write_init(dummy + VALUE_OFF, NIL)
        machine.write_init(dummy + NEXT_OFF, managed_word(NIL))
        self.head = machine.alloc_var(managed_word(dummy),
                                      label="queue.head")
        self.tail = machine.alloc_var(managed_word(dummy),
                                      label="queue.tail")
        self.count = machine.alloc_var(managed_word(0), label="queue.count")

    def prefill(self, values) -> None:
        """Enqueue ``values`` directly (no traffic); call before run."""
        m = self.machine
        n = 0
        for v in values:
            node = m.alloc.alloc_words(2, label="queue.node")
            m.write_init(node + VALUE_OFF, v)
            m.write_init(node + NEXT_OFF, managed_word(NIL))
            last = m.peek(self.tail)[0]
            lc = m.peek(last + NEXT_OFF)
            m.write_init(last + NEXT_OFF, (node, lc[1] + 1))
            tc = m.peek(self.tail)
            m.write_init(self.tail, (node, tc[1] + 1))
            n += 1
        cc = m.peek(self.count)
        m.write_init(self.count, (cc[0] + n, cc[1]))

    def enqueue(self, ctx: Ctx, value: Any) -> Generator:
        w = ctx.alloc_cached(2, [value, managed_word(NIL)],
                             label="queue.node")
        while True:
            tc = yield from self.mc.read_word(ctx, self.tail)
            t = tc[0]
            nc = yield from self.mc.read_word(ctx, t + NEXT_OFF)
            if nc[0] != NIL:
                continue                      # raced: re-read the new tail
            cc = yield from self.mc.read_word(ctx, self.count)
            ok = yield from self.mc.mcas(ctx, [
                (self.tail, tc, (w, tc[1] + 1)),
                (t + NEXT_OFF, nc, (w, nc[1] + 1)),
                (self.count, cc, (cc[0] + 1, cc[1] + 1))])
            if ok:
                return

    def dequeue(self, ctx: Ctx) -> Generator[Any, Any, Any]:
        """Dequeue and return the oldest value, or None if empty."""
        while True:
            hc = yield from self.mc.read_word(ctx, self.head)
            h = hc[0]
            nc = yield from self.mc.read_word(ctx, h + NEXT_OFF)
            n = nc[0]
            if n == NIL:
                # next never un-sets, so h was still the head when we read
                # NIL: the queue was empty at that instant.
                return None
            ret = yield Load(n + VALUE_OFF)
            cc = yield from self.mc.read_word(ctx, self.count)
            ok = yield from self.mc.mcas(ctx, [
                (self.head, hc, (n, hc[1] + 1)),
                (self.count, cc, (cc[0] - 1, cc[1] + 1))])
            if ok:
                return ret

    def drain_direct(self) -> list[Any]:
        """Walk the queue in the backing store (test helper)."""
        m = self.machine
        out = []
        node = m.peek(m.peek(self.head)[0] + NEXT_OFF)[0]
        while node != NIL:
            out.append(m.peek(node + VALUE_OFF))
            node = m.peek(node + NEXT_OFF)[0]
        return out

    update_worker = pair_worker

    def stats(self) -> dict[str, int]:
        return self.mc.stats()
