"""Lock-based counter: the Figure 3 (left) microbenchmark.

A single contended lock protects one counter word.  Variants:

* ``lock='tts'`` with the lease pattern of Section 6 (the paper's headline
  ~20x case; with leases disabled the same code is the TTS baseline);
* ``lock='ticket'`` -- ticket lock with proportional backoff (the optimized
  software lock in Figure 3);
* ``lock='clh'`` -- CLH queue lock (the other optimized software baseline);
* ``misuse=True`` -- the Section 7 "improper use" ablation: waiters keep
  the lease on a lock they failed to acquire, delaying the owner's unlock
  (mitigated by the prioritization mechanism when it is enabled).
"""

from __future__ import annotations

from typing import Any, Generator

from ..core.isa import (CAS, FetchAdd, Lease, Load, Release, Store,
                        TestAndSet, Work)
from ..core.machine import Machine
from ..core.thread import Ctx
from ..sync.locks import (CLHLock, HTicketLock, ReciprocatingLock,
                          SPIN_PAUSE, TTSLock, TicketLock,
                          lease_lock_acquire, lease_lock_release)
from .workers import counter_worker

_LOCKS = {"tts": TTSLock, "ticket": TicketLock, "clh": CLHLock,
          "hticket": HTicketLock, "reciprocating": ReciprocatingLock}


class LockedCounter:
    """One lock, one counter word (each on its own line)."""

    def __init__(self, machine: Machine, *, lock: str = "tts",
                 critical_work: int = 40, misuse: bool = False,
                 backoff=None, lease_time: int = 1 << 62,
                 lease_policy=None) -> None:
        if lock not in _LOCKS:
            raise ValueError(f"unknown lock kind {lock!r}")
        self.machine = machine
        self.lock_kind = lock
        self.lock = _LOCKS[lock](machine)
        self.value_addr = machine.alloc_var(0, label="counter.value")
        #: Extra cycles spent inside the critical section (models the work
        #: a real application does while holding the lock).
        self.critical_work = critical_work
        self.misuse = misuse
        #: Inter-try backoff for the leased (tts) acquisition path.
        self.backoff = backoff
        self.lease_time = lease_time
        #: Optional adaptive duration source (``time_for(addr)``).
        self.lease_policy = lease_policy

    # -- operations --------------------------------------------------------

    def increment(self, ctx: Ctx) -> Generator[Any, Any, int]:
        """Lock, bump the counter, unlock.  Returns the pre-increment value."""
        if self.misuse:
            return (yield from self._increment_misuse(ctx))
        if self.lock_kind == "tts":
            lt = (self.lease_policy.time_for(self.lock.addr)
                  if self.lease_policy is not None else self.lease_time)
            token = yield from lease_lock_acquire(ctx, self.lock,
                                                  lease_time=lt,
                                                  backoff=self.backoff)
        else:
            token = yield from self.lock.acquire(ctx)
        v = yield Load(self.value_addr)
        if self.critical_work:
            yield Work(self.critical_work)
        yield Store(self.value_addr, v + 1)
        if self.lock_kind == "tts":
            yield from lease_lock_release(ctx, self.lock, token)
        else:
            yield from self.lock.release(ctx, token)
        return v

    def _increment_misuse(self, ctx: Ctx) -> Generator[Any, Any, int]:
        """Improper lease usage (Section 7): the owner drops its lease at
        acquisition (leaving its critical section unprotected), and waiters
        do *not* drop the lease on the lock they failed to acquire -- so
        the owner's unlock store stalls behind a waiter's lease until
        expiry, unless the prioritization override breaks it."""
        lock_addr = self.lock.addr
        while True:
            # The site tag lets the Section 5 predictor identify (and, when
            # enabled, neutralize) this repeatedly-expiring lease site.
            yield Lease(lock_addr, site="counter.misuse_spin")
            ctx.trace.lock_attempt(ctx.core_id)
            v = yield Load(lock_addr)
            if v == 0:
                old = yield TestAndSet(lock_addr)
                if old == 0:
                    # BUG (deliberate): give up the lease while holding the
                    # lock, so others can observe the locked line.
                    yield Release(lock_addr)
                    break
            ctx.trace.lock_failed(ctx.core_id)
            # BUG (deliberate): no Release on failure; spin while leasing
            # the lock line, reading our own stale exclusive copy until
            # the lease expires or is broken.
            yield Work(SPIN_PAUSE)
        v = yield Load(self.value_addr)
        if self.critical_work:
            yield Work(self.critical_work)
        yield Store(self.value_addr, v + 1)
        yield Store(lock_addr, 0)
        return v

    def read(self, ctx: Ctx) -> Generator[Any, Any, int]:
        return (yield Load(self.value_addr))

    def peek_value(self) -> int:
        """The counter value in the backing store (no traffic)."""
        return self.machine.peek(self.value_addr)

    # -- worker -------------------------------------------------------------

    update_worker = counter_worker


class CasCounter:
    """Lock-free CAS-retry counter (load; CAS old -> old+1): the substrate
    the DHM cas-backoff arm manages, with the same lease placement as the
    Treiber loop (lease over the read-CAS window; no-op when disabled)."""

    def __init__(self, machine: Machine, *, critical_work: int = 0,
                 backoff=None, lease_time: int = 1 << 62,
                 lease_policy=None) -> None:
        self.machine = machine
        self.value_addr = machine.alloc_var(0, label="counter.value")
        #: Extra cycles spent between the load and the CAS (inside the
        #: lease window), matching LockedCounter's critical-section work so
        #: cross-arm comparisons measure the synchronization, not a
        #: workload asymmetry.
        self.critical_work = critical_work
        self.backoff = backoff
        self.lease_time = lease_time
        self.lease_policy = lease_policy

    def increment(self, ctx: Ctx) -> Generator[Any, Any, int]:
        """CAS-retry increment.  Returns the pre-increment value."""
        attempt = 0
        while True:
            lt = (self.lease_policy.time_for(self.value_addr)
                  if self.lease_policy is not None else self.lease_time)
            yield Lease(self.value_addr, lt)
            v = yield Load(self.value_addr)
            if self.critical_work:
                yield Work(self.critical_work)
            ok = yield CAS(self.value_addr, v, v + 1)
            yield Release(self.value_addr)
            if ok:
                if self.backoff is not None:
                    self.backoff.reset(ctx, self.value_addr)
                return v
            attempt += 1
            if self.backoff is not None:
                yield from self.backoff.wait(ctx, attempt, self.value_addr)

    def read(self, ctx: Ctx) -> Generator[Any, Any, int]:
        return (yield Load(self.value_addr))

    def peek_value(self) -> int:
        """The counter value in the backing store (no traffic)."""
        return self.machine.peek(self.value_addr)

    update_worker = counter_worker


class AtomicCounter:
    """Fetch-and-add counter (a hardware-RMW reference point; not in the
    paper's figures but useful as a sanity ceiling in tests)."""

    def __init__(self, machine: Machine) -> None:
        self.value_addr = machine.alloc_var(0, label="counter.value")

    def increment(self, ctx: Ctx) -> Generator[Any, Any, int]:
        return (yield FetchAdd(self.value_addr, 1))

    update_worker = counter_worker
