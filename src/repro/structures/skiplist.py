"""Lock-free skiplist set (Fraser [15] / Herlihy-Shavit style).

Node layout: ``[key, height, next_0, ..., next_{h-1}]``; the low bit of each
``next_l`` is the per-level deletion mark.  A node is logically in the set
iff it is reachable and unmarked at level 0 (the linearization level).

This is one of the paper's *low-contention* structures: with 20% updates on
uniform keys leases change throughput by at most a few percent.  The lease
is taken on the level-0 predecessor around the linearizing CAS, as for the
other linear structures.
"""

from __future__ import annotations

from typing import Any, Generator

from ..config import WORD_SIZE
from ..core.isa import CAS, Lease, Load, Release, Store
from ..core.machine import Machine
from ..core.thread import Ctx
from .harris_list import is_marked, mark, unmark
from .workers import set_worker

KEY_OFF = 0
HEIGHT_OFF = WORD_SIZE
NEXT0_OFF = 2 * WORD_SIZE
NIL = 0

MAX_HEIGHT = 5


def next_off(level: int) -> int:
    return NEXT0_OFF + level * WORD_SIZE


class LockFreeSkipList:
    """Lock-free sorted set over integer keys with probabilistic balance."""

    def __init__(self, machine: Machine, *, max_height: int = MAX_HEIGHT,
                 lease_time: int = 1 << 62) -> None:
        self.machine = machine
        self.max_height = max_height
        self.lease_time = lease_time
        self.tail = machine.alloc.alloc_words(2 + max_height)
        machine.write_init(self.tail + KEY_OFF, float("inf"))
        machine.write_init(self.tail + HEIGHT_OFF, max_height)
        self.head = machine.alloc.alloc_words(2 + max_height)
        machine.write_init(self.head + KEY_OFF, float("-inf"))
        machine.write_init(self.head + HEIGHT_OFF, max_height)
        for lvl in range(max_height):
            machine.write_init(self.head + next_off(lvl), self.tail)
            machine.write_init(self.tail + next_off(lvl), NIL)

    # -- helpers ---------------------------------------------------------

    def _random_height(self, ctx: Ctx) -> int:
        h = 1
        while h < self.max_height and ctx.rng.random() < 0.5:
            h += 1
        return h

    def _alloc_node(self, ctx: Ctx, key, height: int) -> int:
        return ctx.alloc_cached(2 + height, [key, height]
                                + [NIL] * height)

    # -- setup -------------------------------------------------------------

    def prefill(self, keys, seed: int = 7) -> None:
        """Insert ``keys`` directly (no traffic); call before run.

        Keys go in ascending order, so each level's predecessor only moves
        right: every level's walk resumes where the previous key's walk at
        that level stopped, which keeps the whole prefill linear."""
        import random
        rng = random.Random(seed)
        m = self.machine
        preds = [self.head] * self.max_height
        for key in sorted(set(keys)):
            h = 1
            while h < self.max_height and rng.random() < 0.5:
                h += 1
            node = m.alloc.alloc_words(2 + h)
            m.write_init(node + KEY_OFF, key)
            m.write_init(node + HEIGHT_OFF, h)
            for lvl in range(self.max_height - 1, -1, -1):
                pred = preds[lvl]
                while True:
                    nxt = m.peek(pred + next_off(lvl))
                    if nxt != self.tail and m.peek(nxt + KEY_OFF) < key:
                        pred = nxt
                    else:
                        break
                preds[lvl] = pred
                if lvl < h:
                    m.write_init(node + next_off(lvl), nxt)
                    m.write_init(pred + next_off(lvl), node)

    # -- find (with per-level unlinking of marked nodes) ---------------------

    def _find(self, ctx: Ctx, key) -> Generator[
            Any, Any, tuple[bool, list[int], list[int]]]:
        """Herlihy-Shavit find: returns ``(found, preds, succs)``."""
        H = self.max_height
        while True:
            retry = False
            preds = [self.head] * H
            succs = [self.tail] * H
            pred = self.head
            for lvl in range(H - 1, -1, -1):
                raw = yield Load(pred + next_off(lvl))
                curr = unmark(raw)
                while True:
                    succ_raw = yield Load(curr + next_off(lvl))
                    while is_marked(succ_raw):
                        # curr is being deleted at this level: unlink it.
                        ok = yield CAS(pred + next_off(lvl), curr,
                                       unmark(succ_raw))
                        if not ok:
                            retry = True
                            break
                        raw = yield Load(pred + next_off(lvl))
                        curr = unmark(raw)
                        succ_raw = yield Load(curr + next_off(lvl))
                    if retry:
                        break
                    ckey = yield Load(curr + KEY_OFF)
                    if ckey < key:
                        pred = curr
                        curr = unmark(succ_raw)
                    else:
                        break
                if retry:
                    break
                preds[lvl] = pred
                succs[lvl] = curr
            if retry:
                continue
            if succs[0] != self.tail:
                k0 = yield Load(succs[0] + KEY_OFF)
                return k0 == key, preds, succs
            return False, preds, succs

    # -- operations --------------------------------------------------------

    def insert(self, ctx: Ctx, key) -> Generator[Any, Any, bool]:
        height = self._random_height(ctx)
        node = self._alloc_node(ctx, key, height)
        while True:
            found, preds, succs = yield from self._find(ctx, key)
            if found:
                return False
            for lvl in range(height):
                yield Store(node + next_off(lvl), succs[lvl])
            # Linearizing CAS at level 0, under a lease on the predecessor.
            yield Lease(preds[0] + next_off(0), self.lease_time)
            ok = yield CAS(preds[0] + next_off(0), succs[0], node)
            yield Release(preds[0] + next_off(0))
            if not ok:
                continue
            # Link upper levels, re-finding on interference.
            for lvl in range(1, height):
                while True:
                    raw = yield Load(node + next_off(lvl))
                    if is_marked(raw):
                        return True          # concurrently deleted
                    if raw != succs[lvl]:
                        # Refresh our forward pointer (CAS, not store, so a
                        # concurrent deleter's mark is never erased).
                        ok = yield CAS(node + next_off(lvl), raw, succs[lvl])
                        if not ok:
                            continue
                    ok = yield CAS(preds[lvl] + next_off(lvl),
                                   succs[lvl], node)
                    if ok:
                        break
                    found, preds, succs = yield from self._find(ctx, key)
                    if not found or succs[0] != node:
                        return True          # deleted / replaced meanwhile
            return True

    def delete(self, ctx: Ctx, key) -> Generator[Any, Any, bool]:
        found, preds, succs = yield from self._find(ctx, key)
        if not found:
            return False
        victim = succs[0]
        height = yield Load(victim + HEIGHT_OFF)
        # Mark the upper levels top-down.
        for lvl in range(height - 1, 0, -1):
            while True:
                raw = yield Load(victim + next_off(lvl))
                if is_marked(raw):
                    break
                yield CAS(victim + next_off(lvl), raw, mark(raw))
        # Marking level 0 is the linearization point.
        while True:
            raw = yield Load(victim + next_off(0))
            if is_marked(raw):
                return False                 # lost the race
            yield Lease(victim + next_off(0), self.lease_time)
            ok = yield CAS(victim + next_off(0), raw, mark(raw))
            yield Release(victim + next_off(0))
            if ok:
                yield from self._find(ctx, key)   # physical cleanup
                return True

    def contains(self, ctx: Ctx, key) -> Generator[Any, Any, bool]:
        """Read-only traversal (skips marked nodes, no unlinking)."""
        pred = self.head
        curr = self.tail
        for lvl in range(self.max_height - 1, -1, -1):
            raw = yield Load(pred + next_off(lvl))
            curr = unmark(raw)
            while True:
                succ_raw = yield Load(curr + next_off(lvl))
                while is_marked(succ_raw):
                    curr = unmark(succ_raw)
                    succ_raw = yield Load(curr + next_off(lvl))
                ckey = yield Load(curr + KEY_OFF)
                if ckey < key:
                    pred = curr
                    curr = unmark(succ_raw)
                else:
                    break
        if curr == self.tail:
            return False
        k = yield Load(curr + KEY_OFF)
        raw = yield Load(curr + next_off(0))
        return k == key and not is_marked(raw)

    # -- inspection -----------------------------------------------------------

    def keys_direct(self) -> list:
        """Unmarked level-0 keys via the backing store (test helper)."""
        m = self.machine
        out = []
        node = unmark(m.peek(self.head + next_off(0)))
        while node != self.tail:
            raw = m.peek(node + next_off(0))
            if not is_marked(raw):
                out.append(m.peek(node + KEY_OFF))
            node = unmark(raw)
        return out

    # -- benchmark worker -------------------------------------------------

    mixed_worker = set_worker
