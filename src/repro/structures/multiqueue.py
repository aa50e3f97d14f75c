"""MultiQueues [36] with leases -- Algorithm 4 of the paper.

A relaxed priority queue: ``M`` *sequential* priority queues (binary heaps
over simulated memory), each protected by a try-lock.  Insert picks random
queues until one lock is acquired; deleteMin try-locks *two* random queues
and pops the smaller top.  Lease usage follows Algorithm 4 exactly:

* insert leases the chosen lock's line (single lease), releasing after the
  unlock;
* deleteMin takes a ``MultiLease`` on both chosen locks, unlocks the losing
  queue and releases *all* leases as soon as the comparison is done -- the
  paper explains that holding the lease on the winner would prevent other
  threads from quickly discovering the lock is taken and re-rolling.
"""

from __future__ import annotations

from typing import Any, Generator

from ..config import WORD_SIZE
from ..core.isa import (Lease, Load, MultiLease, Release, ReleaseAll, Store,
                        Work)
from ..core.machine import Machine
from ..core.thread import Ctx
from ..sync.locks import SPIN_PAUSE, TTSLock
from .workers import pq_worker

NIL = 0


class SequentialBinaryHeap:
    """Array-backed sequential min-heap over simulated memory.

    NOT thread-safe: callers hold the owning queue's lock.  The size word
    and array live in ordinary (line-shared) memory, so heap operations
    generate realistic cache traffic when a queue migrates between cores.
    """

    def __init__(self, machine: Machine, capacity: int = 4096) -> None:
        self.machine = machine
        self.capacity = capacity
        self.size_addr = machine.alloc_var(0)
        self.base = machine.alloc.alloc_words(capacity)

    def _slot(self, i: int) -> int:
        return self.base + i * WORD_SIZE

    def prefill(self, keys) -> None:
        import heapq
        m = self.machine
        heap = list(keys)
        heapq.heapify(heap)
        for i, k in enumerate(heap):
            m.write_init(self._slot(i), k)
        m.write_init(self.size_addr, len(heap))

    def insert(self, ctx: Ctx, key) -> Generator:
        n = yield Load(self.size_addr)
        if n >= self.capacity:
            raise OverflowError("simulated heap capacity exceeded")
        i = n
        yield Store(self._slot(i), key)
        yield Store(self.size_addr, n + 1)
        while i > 0:                       # sift up
            parent = (i - 1) // 2
            pv = yield Load(self._slot(parent))
            if pv <= key:
                break
            yield Store(self._slot(i), pv)
            yield Store(self._slot(parent), key)
            i = parent

    def peek_min(self, ctx: Ctx) -> Generator[Any, Any, Any]:
        n = yield Load(self.size_addr)
        if n == 0:
            return None
        return (yield Load(self._slot(0)))

    def delete_min(self, ctx: Ctx) -> Generator[Any, Any, Any]:
        n = yield Load(self.size_addr)
        if n == 0:
            return None
        ret = yield Load(self._slot(0))
        last = yield Load(self._slot(n - 1))
        yield Store(self.size_addr, n - 1)
        n -= 1
        if n == 0:
            return ret
        yield Store(self._slot(0), last)
        i = 0
        while True:                        # sift down
            left, right = 2 * i + 1, 2 * i + 2
            smallest, sval = i, last
            if left < n:
                lv = yield Load(self._slot(left))
                if lv < sval:
                    smallest, sval = left, lv
            if right < n:
                rv = yield Load(self._slot(right))
                if rv < sval:
                    smallest, sval = right, rv
            if smallest == i:
                break
            yield Store(self._slot(smallest), last)
            yield Store(self._slot(i), sval)
            i = smallest
        return ret

    def keys_direct(self) -> list:
        m = self.machine
        n = m.peek(self.size_addr)
        return [m.peek(self._slot(i)) for i in range(n)]


class MultiQueue:
    """Relaxed concurrent priority queue: M heaps + try-locks + leases."""

    def __init__(self, machine: Machine, *, num_queues: int = 8,
                 capacity: int = 4096) -> None:
        self.machine = machine
        self.num_queues = num_queues
        self.queues = [SequentialBinaryHeap(machine, capacity)
                       for _ in range(num_queues)]
        self.locks = [TTSLock(machine) for _ in range(num_queues)]

    def prefill(self, keys, seed: int = 13) -> None:
        import random
        rng = random.Random(seed)
        per: list[list] = [[] for _ in range(self.num_queues)]
        for k in keys:
            per[rng.randrange(self.num_queues)].append(k)
        for q, ks in zip(self.queues, per):
            q.prefill(ks)

    # -- Algorithm 4 -------------------------------------------------------

    def insert(self, ctx: Ctx, value) -> Generator[Any, Any, int]:
        """Insert ``value``; returns the queue index used."""
        while True:
            i = ctx.rng.randrange(self.num_queues)
            yield Lease(self.locks[i].addr)
            ok = yield from self.locks[i].try_acquire(ctx)
            if ok:
                yield from self.queues[i].insert(ctx, value)   # sequential
                yield from self.locks[i].release(ctx)
                yield Release(self.locks[i].addr)
                return i
            yield Release(self.locks[i].addr)
            yield Work(SPIN_PAUSE)

    def delete_min(self, ctx: Ctx) -> Generator[Any, Any, Any]:
        """Pop the smaller of two random queue tops (relaxed deleteMin)."""
        while True:
            i = ctx.rng.randrange(self.num_queues)
            k = ctx.rng.randrange(self.num_queues)
            if k == i:
                k = (k + 1) % self.num_queues
            yield MultiLease((self.locks[i].addr, self.locks[k].addr))
            ok_i = yield from self.locks[i].try_acquire(ctx)
            if ok_i:
                ok_k = yield from self.locks[k].try_acquire(ctx)
                if ok_k:
                    top_i = yield from self.queues[i].peek_min(ctx)
                    top_k = yield from self.queues[k].peek_min(ctx)
                    # Winner: the queue whose top has higher priority
                    # (smaller key); empty queues lose.
                    if top_i is None and top_k is None:
                        yield from self.locks[k].release(ctx)
                        yield from self.locks[i].release(ctx)
                        yield ReleaseAll()
                        return None
                    if top_k is None or (top_i is not None
                                         and top_i <= top_k):
                        win, lose = i, k
                    else:
                        win, lose = k, i
                    yield from self.locks[lose].release(ctx)
                    yield ReleaseAll()
                    ret = yield from self.queues[win].delete_min(ctx)
                    yield from self.locks[win].release(ctx)
                    return ret
                # Failed to acquire Locks[k].
                yield from self.locks[i].release(ctx)
                yield ReleaseAll()
            else:
                # Failed to acquire Locks[i].
                yield ReleaseAll()
            yield Work(SPIN_PAUSE)

    # -- benchmark worker -------------------------------------------------

    #: Alternating insert/deleteMin (the Figure 4 workload).  MultiQueues
    #: are *relaxed*, so checkers validate element conservation rather
    #: than strict priority order.
    update_worker = pq_worker
