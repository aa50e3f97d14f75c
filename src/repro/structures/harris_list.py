"""Harris's lock-free sorted linked list [17] (set semantics).

Node layout (one line each): ``[key, next]``, where the low bit of ``next``
is the logical-deletion mark (simulated addresses are 8-byte aligned, so the
bit is free -- the same trick real implementations use).

Lease placement follows the paper's guidance for "linear" structures
(Sections 1 and 7): lease only the *predecessor* node's line around the
read-validate-CAS window of an update.  Under low contention (the regime
the paper evaluates lists in) this changes throughput by at most a few
percent; the lease instructions are no-ops when disabled.
"""

from __future__ import annotations

from typing import Any, Generator

from ..config import WORD_SIZE
from ..core.isa import CAS, Lease, Load, Release, Store
from ..core.machine import Machine
from ..core.thread import Ctx
from .workers import set_worker

KEY_OFF = 0
NEXT_OFF = WORD_SIZE
NIL = 0


def is_marked(ptr: int) -> bool:
    return bool(ptr & 1)


def mark(ptr: int) -> int:
    return ptr | 1


def unmark(ptr: int) -> int:
    return ptr & ~1


class HarrisList:
    """Lock-free sorted set over integer keys."""

    def __init__(self, machine: Machine,
                 lease_time: int = 1 << 62) -> None:
        self.machine = machine
        self.lease_time = lease_time
        self.tail = machine.alloc.alloc_words(2)
        machine.write_init(self.tail + KEY_OFF, float("inf"))
        machine.write_init(self.tail + NEXT_OFF, NIL)
        self.head = machine.alloc.alloc_words(2)
        machine.write_init(self.head + KEY_OFF, float("-inf"))
        machine.write_init(self.head + NEXT_OFF, self.tail)

    # -- setup --------------------------------------------------------------

    def prefill(self, keys) -> None:
        """Insert ``keys`` directly (no traffic); call before run."""
        m = self.machine
        for key in sorted(set(keys), reverse=True):
            node = m.alloc.alloc_words(2)
            m.write_init(node + KEY_OFF, key)
            m.write_init(node + NEXT_OFF, m.peek(self.head + NEXT_OFF))
            m.write_init(self.head + NEXT_OFF, node)

    # -- core search (Harris's two-phase search with cleanup) ---------------

    def _search(self, ctx: Ctx, key) -> Generator[Any, Any, tuple[int, int]]:
        """Returns ``(left, right)``: adjacent unmarked nodes with
        ``left.key < key <= right.key``, unlinking marked chains on the way."""
        while True:
            # Phase 1: scan for left/right.
            t = self.head
            t_next = yield Load(self.head + NEXT_OFF)
            left = self.head
            left_next = t_next
            while True:
                if not is_marked(t_next):
                    left = t
                    left_next = t_next
                t = unmark(t_next)
                if t == self.tail:
                    break
                t_next = yield Load(t + NEXT_OFF)
                if not is_marked(t_next):
                    t_key = yield Load(t + KEY_OFF)
                    if t_key >= key:
                        break
            right = t
            # Phase 2: adjacent?
            if left_next == right:
                if right != self.tail:
                    rn = yield Load(right + NEXT_OFF)
                    if is_marked(rn):
                        continue
                return left, right
            # Phase 3: unlink the marked chain between left and right.
            ok = yield CAS(left + NEXT_OFF, left_next, right)
            if ok:
                if right != self.tail:
                    rn = yield Load(right + NEXT_OFF)
                    if is_marked(rn):
                        continue
                return left, right

    # -- operations ----------------------------------------------------------

    def insert(self, ctx: Ctx, key) -> Generator[Any, Any, bool]:
        """Add ``key``; False if already present."""
        node = ctx.alloc_cached(2, [key, NIL])
        while True:
            left, right = yield from self._search(ctx, key)
            if right != self.tail:
                rkey = yield Load(right + KEY_OFF)
                if rkey == key:
                    return False
            # Lease the predecessor's line over the validate-CAS window.
            yield Lease(left + NEXT_OFF, self.lease_time)
            cur = yield Load(left + NEXT_OFF)
            if cur != right:
                yield Release(left + NEXT_OFF)
                continue
            yield Store(node + NEXT_OFF, right)
            ok = yield CAS(left + NEXT_OFF, right, node)
            yield Release(left + NEXT_OFF)
            if ok:
                return True

    def delete(self, ctx: Ctx, key) -> Generator[Any, Any, bool]:
        """Remove ``key``; False if absent."""
        while True:
            left, right = yield from self._search(ctx, key)
            if right == self.tail:
                return False
            rkey = yield Load(right + KEY_OFF)
            if rkey != key:
                return False
            right_next = yield Load(right + NEXT_OFF)
            if is_marked(right_next):
                continue
            # Logical deletion: mark right's next pointer (lease the line
            # being CASed -- here the node itself is the "predecessor" of
            # its own next pointer).
            yield Lease(right + NEXT_OFF, self.lease_time)
            ok = yield CAS(right + NEXT_OFF, right_next, mark(right_next))
            yield Release(right + NEXT_OFF)
            if not ok:
                continue
            # Physical unlink (best effort; search cleans up on failure).
            yield CAS(left + NEXT_OFF, right, right_next)
            return True

    def contains(self, ctx: Ctx, key) -> Generator[Any, Any, bool]:
        """Wait-free membership test (no cleanup, no writes)."""
        node = yield Load(self.head + NEXT_OFF)
        node = unmark(node)
        while node != self.tail:
            nkey = yield Load(node + KEY_OFF)
            nxt = yield Load(node + NEXT_OFF)
            if nkey >= key:
                return nkey == key and not is_marked(nxt)
            node = unmark(nxt)
        return False

    # -- inspection -----------------------------------------------------------

    def keys_direct(self) -> list:
        """Unmarked keys, via the backing store (test helper)."""
        m = self.machine
        out = []
        node = unmark(m.peek(self.head + NEXT_OFF))
        while node != self.tail:
            nxt = m.peek(node + NEXT_OFF)
            if not is_marked(nxt):
                out.append(m.peek(node + KEY_OFF))
            node = unmark(nxt)
        return out

    # -- benchmark worker -------------------------------------------------

    mixed_worker = set_worker
