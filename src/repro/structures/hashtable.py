"""Lock-striped hash table (the paper's "lock-based hash tables" low-
contention workload; the design mirrors the classic Java concurrent hash
table: one lock per bucket, sorted chains).

Bucket heads and bucket locks live in padded arrays (one line per slot) so
that neighbouring buckets never false-share.  Updates take the bucket lock
with the Section 6 lease pattern; with many buckets and uniform keys the
lock is uncontended and leases change nothing measurable -- that is the
point of the experiment.
"""

from __future__ import annotations

from typing import Any, Generator

from ..config import WORD_SIZE
from ..core.isa import Load, Store
from ..core.machine import Machine
from ..core.thread import Ctx
from ..sync.locks import TTSLock, lease_lock_acquire, lease_lock_release
from .workers import set_worker

KEY_OFF = 0
NEXT_OFF = WORD_SIZE
NIL = 0


class LockedHashTable:
    """Fixed-size bucket array of sorted chains, one TTS lock per bucket."""

    def __init__(self, machine: Machine, *, num_buckets: int = 64) -> None:
        self.machine = machine
        self.num_buckets = num_buckets
        self.heads = machine.alloc.alloc_array(num_buckets, one_per_line=True)
        self.locks = [TTSLock(machine) for _ in range(num_buckets)]

    def _bucket(self, key) -> int:
        return hash(key) % self.num_buckets

    # -- setup -------------------------------------------------------------

    def prefill(self, keys) -> None:
        m = self.machine
        for key in set(keys):
            head = self.heads[self._bucket(key)]
            node = m.alloc.alloc_words(2)
            m.write_init(node + KEY_OFF, key)
            m.write_init(node + NEXT_OFF, m.peek(head))
            m.write_init(head, node)

    # -- internal chain walk -------------------------------------------------

    def _chain_find(self, ctx: Ctx, head: int, key
                    ) -> Generator[Any, Any, tuple[int, int]]:
        """Returns ``(prev_addr, node)``: ``prev_addr`` is the word holding
        the pointer to ``node`` (the head slot or a next field); ``node`` is
        the first chain node with that key, or NIL."""
        prev = head
        node = yield Load(head)
        while node != NIL:
            k = yield Load(node + KEY_OFF)
            if k == key:
                return prev, node
            prev = node + NEXT_OFF
            node = yield Load(prev)
        return prev, NIL

    # -- operations --------------------------------------------------------

    def insert(self, ctx: Ctx, key) -> Generator[Any, Any, bool]:
        b = self._bucket(key)
        lock, head = self.locks[b], self.heads[b]
        token = yield from lease_lock_acquire(ctx, lock)
        _, node = yield from self._chain_find(ctx, head, key)
        if node != NIL:
            yield from lease_lock_release(ctx, lock, token)
            return False
        new = ctx.alloc_cached(2, [key, NIL])
        old_head = yield Load(head)
        yield Store(new + NEXT_OFF, old_head)
        yield Store(head, new)
        yield from lease_lock_release(ctx, lock, token)
        return True

    def delete(self, ctx: Ctx, key) -> Generator[Any, Any, bool]:
        b = self._bucket(key)
        lock, head = self.locks[b], self.heads[b]
        token = yield from lease_lock_acquire(ctx, lock)
        prev, node = yield from self._chain_find(ctx, head, key)
        if node == NIL:
            yield from lease_lock_release(ctx, lock, token)
            return False
        nxt = yield Load(node + NEXT_OFF)
        yield Store(prev, nxt)
        yield from lease_lock_release(ctx, lock, token)
        return True

    def contains(self, ctx: Ctx, key) -> Generator[Any, Any, bool]:
        """Lock-free read (the common-case search path)."""
        b = self._bucket(key)
        _, node = yield from self._chain_find(ctx, self.heads[b], key)
        return node != NIL

    # -- inspection -----------------------------------------------------------

    def keys_direct(self) -> list:
        m = self.machine
        out = []
        for head in self.heads:
            node = m.peek(head)
            while node != NIL:
                out.append(m.peek(node + KEY_OFF))
                node = m.peek(node + NEXT_OFF)
        return out

    # -- benchmark worker -------------------------------------------------

    mixed_worker = set_worker
