"""Skiplist-based priority queues (the Figure 3 right-hand benchmark).

Three implementations, matching Section 7's setup:

* :class:`SequentialSkipListPQ` -- a plain sequential skiplist priority
  queue executed over simulated memory (its accesses still generate real
  coherence traffic when nodes migrate between cores);
* :class:`PughLockPQ` -- the baseline: a fine-grained locking skiplist in
  the style of Pugh [33] / Lotan-Shavit [23], per-node locks acquired in
  key order (deadlock-free), deleteMin contending on the head lock;
* :class:`GlobalLockPQ` -- the paper's lease-based implementation: the
  sequential skiplist under one global lock, leased for the critical
  section (Section 7: "The lease-based implementation relies on a global
  lock").  With leases disabled it is a plain global-lock PQ.
"""

from __future__ import annotations

from typing import Any, Generator

from ..config import WORD_SIZE
from ..core.isa import Load, Store, TestAndSet, Work
from ..core.machine import Machine
from ..core.thread import Ctx
from ..sync.locks import SPIN_PAUSE, TTSLock, lease_lock_acquire, \
    lease_lock_release

NIL = 0
MAX_HEIGHT = 5

# Sequential / global-lock node layout: [key, height, next_0..next_{h-1}]
KEY_OFF = 0
HEIGHT_OFF = WORD_SIZE
NEXT0_OFF = 2 * WORD_SIZE

# Pugh node layout: [key, height, lock, dead, next_0..next_{h-1}]
# (Lotan-Shavit reuses it, with an extra logical-deletion word.)
P_KEY_OFF = 0
P_HEIGHT_OFF = WORD_SIZE
P_LOCK_OFF = 2 * WORD_SIZE
P_DEAD_OFF = 3 * WORD_SIZE
P_NEXT0_OFF = 4 * WORD_SIZE

# Lotan-Shavit node layout: [key, height, lock, dead, del, next_0..].
L_DEL_OFF = 4 * WORD_SIZE
L_NEXT0_OFF = 5 * WORD_SIZE


def _rand_height(rng, max_height: int) -> int:
    h = 1
    while h < max_height and rng.random() < 0.5:
        h += 1
    return h


class SequentialSkipListPQ:
    """Sequential skiplist min-priority-queue over simulated memory.

    NOT thread-safe on its own: callers serialize operations with a lock
    (GlobalLockPQ) or run single-threaded.
    """

    def __init__(self, machine: Machine, *,
                 max_height: int = MAX_HEIGHT) -> None:
        self.machine = machine
        self.max_height = max_height
        self.head = machine.alloc.alloc_words(2 + max_height)
        machine.write_init(self.head + KEY_OFF, float("-inf"))
        machine.write_init(self.head + HEIGHT_OFF, max_height)
        for lvl in range(max_height):
            machine.write_init(self.head + NEXT0_OFF + lvl * WORD_SIZE, NIL)

    def _next(self, node: int, lvl: int) -> int:
        return node + NEXT0_OFF + lvl * WORD_SIZE

    def prefill(self, keys, seed: int = 11) -> None:
        import random
        rng = random.Random(seed)
        m = self.machine
        for key in sorted(keys, reverse=True):
            h = _rand_height(rng, self.max_height)
            node = m.alloc.alloc_words(2 + h)
            m.write_init(node + KEY_OFF, key)
            m.write_init(node + HEIGHT_OFF, h)
            pred = self.head
            for lvl in range(self.max_height - 1, -1, -1):
                while True:
                    nxt = m.peek(self._next(pred, lvl))
                    if nxt != NIL and m.peek(nxt + KEY_OFF) < key:
                        pred = nxt
                    else:
                        break
                if lvl < h:
                    m.write_init(self._next(node, lvl), nxt)
                    m.write_init(self._next(pred, lvl), node)

    def insert(self, ctx: Ctx, key) -> Generator:
        h = _rand_height(ctx.rng, self.max_height)
        node = ctx.alloc_cached(2 + h, [key, h] + [NIL] * h)
        pred = self.head
        for lvl in range(self.max_height - 1, -1, -1):
            while True:
                nxt = yield Load(self._next(pred, lvl))
                if nxt != NIL:
                    nkey = yield Load(nxt + KEY_OFF)
                    if nkey < key:
                        pred = nxt
                        continue
                break
            if lvl < h:
                yield Store(self._next(node, lvl), nxt)
                yield Store(self._next(pred, lvl), node)

    def delete_min(self, ctx: Ctx) -> Generator[Any, Any, Any]:
        """Unlink and return the minimum key, or None if empty."""
        first = yield Load(self._next(self.head, 0))
        if first == NIL:
            return None
        h = yield Load(first + HEIGHT_OFF)
        for lvl in range(h):
            nxt = yield Load(self._next(first, lvl))
            yield Store(self._next(self.head, lvl), nxt)
        return (yield Load(first + KEY_OFF))

    def keys_direct(self) -> list:
        m = self.machine
        out = []
        node = m.peek(self._next(self.head, 0))
        while node != NIL:
            out.append(m.peek(node + KEY_OFF))
            node = m.peek(self._next(node, 0))
        return out


class GlobalLockPQ:
    """The lease-based PQ: one global (leased) TTS lock around a
    sequential skiplist."""

    def __init__(self, machine: Machine, *,
                 max_height: int = MAX_HEIGHT) -> None:
        self.machine = machine
        self.pq = SequentialSkipListPQ(machine, max_height=max_height)
        self.lock = TTSLock(machine)

    def prefill(self, keys, seed: int = 11) -> None:
        self.pq.prefill(keys, seed)

    def insert(self, ctx: Ctx, key) -> Generator:
        token = yield from lease_lock_acquire(ctx, self.lock)
        yield from self.pq.insert(ctx, key)
        yield from lease_lock_release(ctx, self.lock, token)

    def delete_min(self, ctx: Ctx) -> Generator[Any, Any, Any]:
        token = yield from lease_lock_acquire(ctx, self.lock)
        ret = yield from self.pq.delete_min(ctx)
        yield from lease_lock_release(ctx, self.lock, token)
        return ret

    def keys_direct(self) -> list:
        return self.pq.keys_direct()

    def update_worker(self, ctx: Ctx, ops: int, key_range: int = 1 << 20,
                      local_work: int = 30) -> Generator:
        """100%-update benchmark body: alternating insert/deleteMin.  Each
        operation is reported with arguments and result for history
        checking (see :mod:`repro.check`)."""
        for i in range(ops):
            start = ctx.machine.now
            if i % 2 == 0:
                key = ctx.rng.randrange(key_range)
                yield from self.insert(ctx, key)
                ctx.note_op("insert", (key,), None, start)
            else:
                taken = yield from self.delete_min(ctx)
                ctx.note_op("delete_min", (), taken, start)
            if local_work:
                yield Work(local_work)


class PughLockPQ:
    """Fine-grained locking skiplist PQ (the Figure 3 baseline).

    Per-node try-locks acquired in global key order (head first), with
    validate-after-lock and full retry on failure; deleteMin locks the head
    sentinel and the current minimum, whose predecessors at every level are
    the head itself.
    """

    #: Words before the next-pointer array ([key, height, lock, dead]).
    NODE_HDR = 4

    def __init__(self, machine: Machine, *,
                 max_height: int = MAX_HEIGHT) -> None:
        self.machine = machine
        self.max_height = max_height
        self.head = machine.alloc.alloc_words(self.NODE_HDR + max_height)
        machine.write_init(self.head + P_KEY_OFF, float("-inf"))
        machine.write_init(self.head + P_HEIGHT_OFF, max_height)
        for lvl in range(max_height):
            machine.write_init(self._next(self.head, lvl), NIL)

    def _next(self, node: int, lvl: int) -> int:
        return node + (self.NODE_HDR + lvl) * WORD_SIZE

    def prefill(self, keys, seed: int = 11) -> None:
        import random
        rng = random.Random(seed)
        m = self.machine
        for key in sorted(keys, reverse=True):
            h = _rand_height(rng, self.max_height)
            node = m.alloc.alloc_words(self.NODE_HDR + h)
            m.write_init(node + P_KEY_OFF, key)
            m.write_init(node + P_HEIGHT_OFF, h)
            pred = self.head
            for lvl in range(self.max_height - 1, -1, -1):
                while True:
                    nxt = m.peek(self._next(pred, lvl))
                    if nxt != NIL and m.peek(nxt + P_KEY_OFF) < key:
                        pred = nxt
                    else:
                        break
                if lvl < h:
                    m.write_init(self._next(node, lvl), nxt)
                    m.write_init(self._next(pred, lvl), node)

    # -- per-node locks -----------------------------------------------------

    def _try_lock(self, ctx: Ctx, node: int) -> Generator[Any, Any, bool]:
        ctx.trace.lock_attempt(ctx.core_id)
        v = yield Load(node + P_LOCK_OFF)
        if v == 0:
            old = yield TestAndSet(node + P_LOCK_OFF)
            if old == 0:
                return True
        ctx.trace.lock_failed(ctx.core_id)
        return False

    def _unlock(self, ctx: Ctx, node: int) -> Generator:
        yield Store(node + P_LOCK_OFF, 0)

    def _lock_preds(self, ctx: Ctx, preds: list, succs: list, h: int,
                    last: int = NIL) -> Generator[Any, Any, tuple]:
        """Try-lock the distinct ``preds[:h]`` in key order (head first),
        then ``last`` if given, and validate that each predecessor is
        alive and still points at ``succs[lvl]``.  Returns ``(ok,
        locked)``; the caller unlocks ``locked`` either way."""
        to_lock = []
        for lvl in range(h):
            if preds[lvl] not in to_lock:
                to_lock.append(preds[lvl])
        keys = {}
        for p in to_lock:
            keys[p] = yield Load(p + P_KEY_OFF)
        to_lock.sort(key=lambda p: keys[p])
        if last != NIL:
            to_lock.append(last)
        locked = []
        for p in to_lock:
            got = yield from self._try_lock(ctx, p)
            if not got:
                return False, locked
            locked.append(p)
        for lvl in range(h):
            dead = yield Load(preds[lvl] + P_DEAD_OFF)
            cur = yield Load(self._next(preds[lvl], lvl))
            if dead or cur != succs[lvl]:
                return False, locked
        return True, locked

    # -- operations -----------------------------------------------------------

    def insert(self, ctx: Ctx, key) -> Generator:
        h = _rand_height(ctx.rng, self.max_height)
        node = ctx.alloc_cached(self.NODE_HDR + h,
                                [key, h] + [0] * (self.NODE_HDR - 2)
                                + [NIL] * h)
        while True:
            # Optimistic search for per-level predecessors/successors.
            preds = [self.head] * self.max_height
            succs = [NIL] * self.max_height
            pred = self.head
            for lvl in range(self.max_height - 1, -1, -1):
                while True:
                    nxt = yield Load(self._next(pred, lvl))
                    if nxt != NIL:
                        nkey = yield Load(nxt + P_KEY_OFF)
                        if nkey < key:
                            pred = nxt
                            continue
                    break
                preds[lvl] = pred
                succs[lvl] = nxt
            ok, locked = yield from self._lock_preds(ctx, preds, succs, h)
            if ok:
                for lvl in range(h):
                    yield Store(self._next(node, lvl), succs[lvl])
                    yield Store(self._next(preds[lvl], lvl), node)
            for p in reversed(locked):
                yield from self._unlock(ctx, p)
            if ok:
                return
            yield Work(SPIN_PAUSE)

    def delete_min(self, ctx: Ctx) -> Generator[Any, Any, Any]:
        while True:
            got = yield from self._try_lock(ctx, self.head)
            if not got:
                yield Work(SPIN_PAUSE)
                continue
            first = yield Load(self._next(self.head, 0))
            if first == NIL:
                yield from self._unlock(ctx, self.head)
                return None
            got = yield from self._try_lock(ctx, first)
            if not got:
                yield from self._unlock(ctx, self.head)
                yield Work(SPIN_PAUSE)
                continue
            # The minimum's predecessor at every linked level is the head.
            h = yield Load(first + P_HEIGHT_OFF)
            for lvl in range(h):
                nxt = yield Load(self._next(first, lvl))
                yield Store(self._next(self.head, lvl), nxt)
            yield Store(first + P_DEAD_OFF, 1)
            key = yield Load(first + P_KEY_OFF)
            yield from self._unlock(ctx, first)
            yield from self._unlock(ctx, self.head)
            return key

    def keys_direct(self) -> list:
        m = self.machine
        out = []
        node = m.peek(self._next(self.head, 0))
        while node != NIL:
            out.append(m.peek(node + P_KEY_OFF))
            node = m.peek(self._next(node, 0))
        return out

    def update_worker(self, ctx: Ctx, ops: int, key_range: int = 1 << 20,
                      local_work: int = 30) -> Generator:
        for i in range(ops):
            start = ctx.machine.now
            if i % 2 == 0:
                key = ctx.rng.randrange(key_range)
                yield from self.insert(ctx, key)
                ctx.note_op("insert", (key,), None, start)
            else:
                taken = yield from self.delete_min(ctx)
                ctx.note_op("delete_min", (), taken, start)
            if local_work:
                yield Work(local_work)


class LotanShavitPQ(PughLockPQ):
    """The Lotan-Shavit skiplist priority queue [23], literally.

    deleteMin proceeds in two phases, as in the original algorithm: a
    *lock-free logical deletion* (scan level 0 and test-and-set the first
    node's deleted flag -- the linearization point), followed by a Pugh-
    style *physical removal* under per-node try-locks.  Inserts are the
    fine-grained Pugh inserts inherited from :class:`PughLockPQ`.

    Node layout: ``[key, height, lock, dead, del, next_0..]`` -- ``del``
    is the logical-deletion flag, ``dead`` marks physically removed nodes
    for insert validation.
    """

    NODE_HDR = 5

    def delete_min(self, ctx: Ctx) -> Generator[Any, Any, Any]:
        # Phase 1: logical deletion (lock-free TAS scan along level 0).
        node = yield Load(self._next(self.head, 0))
        victim = NIL
        while node != NIL:
            deleted = yield Load(node + L_DEL_OFF)
            if deleted == 0:
                old = yield TestAndSet(node + L_DEL_OFF)
                if old == 0:
                    victim = node
                    break
            node = yield Load(self._next(node, 0))
        if victim == NIL:
            return None                    # queue (logically) empty
        key = yield Load(victim + P_KEY_OFF)
        # Phase 2: physical removal under locks (best effort, retried).
        yield from self._remove_node(ctx, key, victim)
        return key

    def _remove_node(self, ctx: Ctx, key, victim: int) -> Generator:
        """Unlink ``victim`` from every level it occupies."""
        h = yield Load(victim + P_HEIGHT_OFF)
        while True:
            # Optimistic search for victim's predecessor at each level.
            # Above its height, stop short of equal keys too, so the lower
            # levels start before the victim.
            preds = [self.head] * self.max_height
            pred = self.head
            for lvl in range(self.max_height - 1, -1, -1):
                while True:
                    nxt = yield Load(self._next(pred, lvl))
                    if nxt == NIL or nxt == victim:
                        break
                    nkey = yield Load(nxt + P_KEY_OFF)
                    if nkey > key or (nkey == key and lvl >= h):
                        break
                    pred = nxt
                preds[lvl] = pred
            # Predecessors first, in insert's key order, then the victim.
            ok, locked = yield from self._lock_preds(ctx, preds, [victim] * h,
                                                     h, last=victim)
            if ok:
                for lvl in range(h):
                    nxt = yield Load(self._next(victim, lvl))
                    yield Store(self._next(preds[lvl], lvl), nxt)
                yield Store(victim + P_DEAD_OFF, 1)
            for n in reversed(locked):
                yield from self._unlock(ctx, n)
            if ok:
                return
            yield Work(SPIN_PAUSE)

    def keys_direct(self) -> list:
        """Logically-live keys (unmarked level-0 nodes)."""
        m = self.machine
        out = []
        node = m.peek(self._next(self.head, 0))
        while node != NIL:
            if m.peek(node + L_DEL_OFF) == 0:
                out.append(m.peek(node + P_KEY_OFF))
            node = m.peek(self._next(node, 0))
        return out
