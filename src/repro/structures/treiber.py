"""Treiber's lock-free stack [41] with the Figure 1 lease placement.

Node layout (one cache line each): ``[value, next]``.

The lease is taken on the head pointer's line before the read and released
right after the CAS, covering the read-CAS window so that the validation
"is always successful, unless the lease on the corresponding line expires"
(Section 1).  With leases disabled the identical code is the classic
Treiber stack; an optional backoff policy turns it into the software
contention-mitigation baseline of Section 7.
"""

from __future__ import annotations

from typing import Any, Generator

from ..config import WORD_SIZE
from ..core.isa import CAS, Lease, Load, Release, Store
from ..core.machine import Machine
from ..core.thread import Ctx
from .workers import pair_worker

VALUE_OFF = 0
NEXT_OFF = WORD_SIZE

#: "NULL" in simulated memory.
NIL = 0


class TreiberStack:
    """Lock-free LIFO stack with a single head pointer."""

    PAIR = ("push", "pop")

    def __init__(self, machine: Machine, *, backoff=None,
                 lease_time: int = 1 << 62, lease_policy=None) -> None:
        self.machine = machine
        self.head = machine.alloc_var(NIL, label="stack.head")
        self.backoff = backoff
        self.lease_time = lease_time
        #: Optional adaptive duration source (``time_for(addr)``); None
        #: keeps the fixed ``lease_time``.
        self.lease_policy = lease_policy

    def _lease_for(self, addr: int) -> int:
        if self.lease_policy is not None:
            return self.lease_policy.time_for(addr)
        return self.lease_time

    # -- setup ------------------------------------------------------------

    def prefill(self, values) -> None:
        """Push ``values`` directly (no simulated traffic); call before run."""
        for v in values:
            node = self.machine.alloc.alloc_words(2, label="stack.node")
            self.machine.write_init(node + VALUE_OFF, v)
            self.machine.write_init(node + NEXT_OFF,
                                    self.machine.peek(self.head))
            self.machine.write_init(self.head, node)

    # -- operations (Figure 1) ---------------------------------------------

    def push(self, ctx: Ctx, value: Any) -> Generator:
        node = ctx.alloc_cached(2, [value, NIL], label="stack.node")
        attempt = 0
        while True:
            yield Lease(self.head, self._lease_for(self.head))
            h = yield Load(self.head)
            yield Store(node + NEXT_OFF, h)
            ok = yield CAS(self.head, h, node)
            yield Release(self.head)
            if ok:
                if self.backoff is not None:
                    self.backoff.reset(ctx, self.head)
                return
            attempt += 1
            if self.backoff is not None:
                yield from self.backoff.wait(ctx, attempt, self.head)

    def pop(self, ctx: Ctx) -> Generator[Any, Any, Any]:
        """Pop and return the top value, or None if the stack is empty."""
        attempt = 0
        while True:
            yield Lease(self.head, self._lease_for(self.head))
            h = yield Load(self.head)
            if h == NIL:
                yield Release(self.head)
                if self.backoff is not None:
                    self.backoff.reset(ctx, self.head)
                return None
            nxt = yield Load(h + NEXT_OFF)
            ok = yield CAS(self.head, h, nxt)
            yield Release(self.head)
            if ok:
                if self.backoff is not None:
                    self.backoff.reset(ctx, self.head)
                return (yield Load(h + VALUE_OFF))
            attempt += 1
            if self.backoff is not None:
                yield from self.backoff.wait(ctx, attempt, self.head)

    # -- inspection (direct memory, for tests) -------------------------------

    def drain_direct(self) -> list[Any]:
        """Walk the stack in the backing store (no traffic); test helper."""
        out = []
        node = self.machine.peek(self.head)
        while node != NIL:
            out.append(self.machine.peek(node + VALUE_OFF))
            node = self.machine.peek(node + NEXT_OFF)
        return out

    # -- benchmark worker -------------------------------------------------

    update_worker = pair_worker
