"""The Michael-Scott non-blocking FIFO queue [27], Algorithm 3 of the paper.

Node layout (one line each): ``[value, next]``; the queue always contains a
dummy node at the head.  Head and tail pointers live on *separate* cache
lines (the Section 7 false-sharing pitfall explicitly warns against letting
them share one).

Lease placements reproduced from the paper:

* ``variant='single'`` -- Algorithm 3: lease the head pointer (dequeue) or
  tail pointer (enqueue) at the top of the retry loop, release on success
  or at the end of the loop iteration.
* ``variant='multi'``  -- the Section 7 multi-lease alternative: jointly
  lease the tail pointer and the last node's ``next`` line for the enqueue.
  The paper finds this *slower* than single leases on linear structures;
  the queue benchmark reports both.
* With leases disabled either variant degrades to the classic MS queue.
"""

from __future__ import annotations

from typing import Any, Generator

from ..config import WORD_SIZE
from ..core.isa import CAS, Lease, Load, MultiLease, Release, ReleaseAll
from ..core.machine import Machine
from ..core.thread import Ctx
from .workers import pair_worker

VALUE_OFF = 0
NEXT_OFF = WORD_SIZE
NIL = 0


class MichaelScottQueue:
    """Non-blocking FIFO queue with head/tail sentinels and a dummy node."""

    PAIR = ("enqueue", "dequeue")

    def __init__(self, machine: Machine, *, variant: str = "single",
                 lease_time: int = 1 << 62, backoff=None,
                 lease_policy=None) -> None:
        if variant not in ("single", "multi"):
            raise ValueError(f"unknown variant {variant!r}")
        self.machine = machine
        self.variant = variant
        self.lease_time = lease_time
        self.backoff = backoff
        #: Optional adaptive duration source (``time_for(addr)``); None
        #: keeps the fixed ``lease_time``.
        self.lease_policy = lease_policy
        dummy = machine.alloc.alloc_words(2, label="queue.node")
        machine.write_init(dummy + VALUE_OFF, NIL)
        machine.write_init(dummy + NEXT_OFF, NIL)
        self.head = machine.alloc_var(dummy, label="queue.head")
        self.tail = machine.alloc_var(dummy, label="queue.tail")

    # -- setup ------------------------------------------------------------

    def prefill(self, values) -> None:
        """Enqueue ``values`` directly (no traffic); call before run."""
        m = self.machine
        for v in values:
            node = m.alloc.alloc_words(2, label="queue.node")
            m.write_init(node + VALUE_OFF, v)
            m.write_init(node + NEXT_OFF, NIL)
            last = m.peek(self.tail)
            m.write_init(last + NEXT_OFF, node)
            m.write_init(self.tail, node)

    def _lease_for(self, addr: int) -> int:
        if self.lease_policy is not None:
            return self.lease_policy.time_for(addr)
        return self.lease_time

    # -- enqueue ----------------------------------------------------------

    def enqueue(self, ctx: Ctx, value: Any) -> Generator:
        if self.variant == "multi":
            yield from self._enqueue_multi(ctx, value)
        else:
            yield from self._enqueue_single(ctx, value)

    def _enqueue_single(self, ctx: Ctx, value: Any) -> Generator:
        w = ctx.alloc_cached(2, [value, NIL])
        attempt = 0
        while True:
            yield Lease(self.tail, self._lease_for(self.tail))
            t = yield Load(self.tail)
            n = yield Load(t + NEXT_OFF)
            t2 = yield Load(self.tail)
            if t == t2:                       # pointers consistent?
                if n == NIL:                  # tail points at last node
                    ok = yield CAS(t + NEXT_OFF, NIL, w)
                    if ok:
                        yield CAS(self.tail, t, w)   # swing tail
                        yield Release(self.tail)
                        if self.backoff is not None:
                            self.backoff.reset(ctx, self.tail)
                        return
                else:                         # tail fell behind: help swing
                    yield CAS(self.tail, t, n)
            yield Release(self.tail)
            attempt += 1
            if self.backoff is not None:
                yield from self.backoff.wait(ctx, attempt, self.tail)

    def _enqueue_multi(self, ctx: Ctx, value: Any) -> Generator:
        """Jointly lease the tail pointer and the (guessed) last node's
        ``next`` line.

        The tail pointer must be read *before* the MultiLease (the call
        releases everything held), so the second line is a guess.  The
        group is acquired in address-sorted order and the tail pointer --
        allocated first -- always sorts below node lines, so the tail is
        frozen from the moment the group's first grant lands: the re-read
        under the lease is authoritative and needs no retry.  If the guess
        went stale, the operation simply proceeds on the current tail with
        only the tail-pointer lease effective (leases are advisory;
        correctness never depends on them)."""
        w = ctx.alloc_cached(2, [value, NIL])
        while True:
            guess = yield Load(self.tail)
            yield MultiLease((self.tail, guess + NEXT_OFF),
                             self._lease_for(self.tail))
            t = yield Load(self.tail)         # frozen while we hold it
            n = yield Load(t + NEXT_OFF)
            if n == NIL:
                ok = yield CAS(t + NEXT_OFF, NIL, w)
                if ok:
                    yield CAS(self.tail, t, w)
                    yield ReleaseAll()
                    return
            else:                             # tail fell behind: help swing
                yield CAS(self.tail, t, n)
            yield ReleaseAll()

    # -- dequeue ----------------------------------------------------------

    def dequeue(self, ctx: Ctx) -> Generator[Any, Any, Any]:
        """Dequeue and return the oldest value, or None if empty."""
        attempt = 0
        while True:
            yield Lease(self.head, self._lease_for(self.head))
            h = yield Load(self.head)
            t = yield Load(self.tail)
            n = yield Load(h + NEXT_OFF)
            h2 = yield Load(self.head)
            if h == h2:                       # pointers consistent?
                if h == t:
                    if n == NIL:
                        yield Release(self.head)
                        if self.backoff is not None:
                            self.backoff.reset(ctx, self.head)
                        return None           # queue empty
                    yield CAS(self.tail, t, n)   # tail fell behind
                else:
                    ret = yield Load(n + VALUE_OFF)
                    ok = yield CAS(self.head, h, n)   # swing head
                    if ok:
                        yield Release(self.head)
                        if self.backoff is not None:
                            self.backoff.reset(ctx, self.head)
                        return ret
            yield Release(self.head)
            attempt += 1
            if self.backoff is not None:
                yield from self.backoff.wait(ctx, attempt, self.head)

    # -- inspection --------------------------------------------------------

    def drain_direct(self) -> list[Any]:
        """Walk the queue in the backing store (test helper)."""
        m = self.machine
        out = []
        node = m.peek(m.peek(self.head) + NEXT_OFF)
        while node != NIL:
            out.append(m.peek(node + VALUE_OFF))
            node = m.peek(node + NEXT_OFF)
        return out

    # -- benchmark worker ---------------------------------------------------

    update_worker = pair_worker
