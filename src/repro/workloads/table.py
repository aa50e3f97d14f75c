"""The structure table: one row per structure family, one way to build it.

The experiment drivers (:mod:`repro.workloads.driver`), the check targets
(:mod:`repro.check.campaign`) and the bench targets
(:mod:`repro.bench.targets`) all build their structures through
:func:`populate`, so each variant -- including the contention-management
policies of the ``sync_ablation`` zoo -- is constructed in one place.  A
:class:`Row` holds a family's constructor, its closed-loop worker, its
open-loop worker if it has one, its sequential model and its final-state
observer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..core.isa import Work
from ..core.machine import Machine
from ..structures import (CasCounter, GlobalLockPQ, HarrisList,
                          LockFreeSkipList, LockedCounter, LockedExternalBST,
                          LockedHashTable, LotanShavitPQ, McasCounter,
                          McasQueue, McasStack, MichaelScottQueue,
                          PughLockPQ, TreiberStack)
from ..sync.adaptive import AdaptiveLeaseController
from ..sync.backoff import DhmBackoff, ExponentialBackoff
from ..sync.locks import ReciprocatingLock
from ..traffic import (TrafficSource, parse_traffic_spec,
                       traffic_counter_worker, traffic_search_worker,
                       traffic_stack_worker)

__all__ = ["Row", "Built", "ROWS", "ZOO_ARMS", "SYNC_POLICIES",
           "open_loop", "populate", "locked_worker"]

#: The zoo's contention-management arms beyond the plain structure.  They
#: run closed-loop only: the locked arm has no open-loop worker.
ZOO_ARMS = ("cas-backoff", "reciprocating", "mcas-helping", "adaptive-lease")
#: The six arms of the ``sync_ablation`` sweep.
SYNC_POLICIES = ("baseline", "lease") + ZOO_ARMS


# -- constructors -------------------------------------------------------------
#
# ``make(m, variant, **knobs)``.  Class names are looked up when called, so
# a test can swap a broken implementation into this module.

def _backoff(variant: str):
    if variant == "backoff":
        return ExponentialBackoff()
    if variant == "cas-backoff":
        return DhmBackoff()
    return None


def _stack(m: Machine, variant: str, **knobs: Any):
    if variant == "mcas-helping":
        return McasStack(m)
    return TreiberStack(m, backoff=_backoff(variant), **knobs)


def _queue(m: Machine, variant: str, **knobs: Any):
    if variant == "mcas-helping":
        return McasQueue(m)
    return MichaelScottQueue(
        m, variant="multi" if variant == "multilease" else "single",
        backoff=_backoff(variant), **knobs)


def _counter(m: Machine, variant: str, critical_work: int = 40,
             **knobs: Any):
    if variant == "mcas-helping":
        return McasCounter(m)
    if variant == "cas-backoff":
        # The locked arms' critical-section work between load and CAS, so
        # the zoo compares contention management, not section length.
        return CasCounter(m, critical_work=critical_work,
                          backoff=DhmBackoff())
    lock = ("tts" if variant in ("baseline", "lease", "adaptive-lease")
            else variant)
    return LockedCounter(m, lock=lock, critical_work=critical_work, **knobs)


def _pq(m: Machine, variant: str):
    return {"pugh": PughLockPQ, "lotan": LotanShavitPQ}.get(
        variant, GlobalLockPQ)(m)


# -- rows ---------------------------------------------------------------------

@dataclass(frozen=True)
class Row:
    """One structure family.

    ``make(m, variant, **knobs)`` builds a variant.  A closed-loop thread
    runs the structure's ``worker`` method with ``ops`` and the caller's
    sizes; an open-loop thread runs ``open_worker(s, lane)`` plus the
    ``open_sizes`` it shares with the closed-loop worker.  ``model`` names
    the sequential model in :mod:`repro.check.models` (looked up when
    needed, because :mod:`repro.check` imports this module);
    ``observe(s)`` reads the final state from the backing store in the
    model's ``snapshot()`` form.  ``pair`` says the zoo's locked arm
    applies: it wraps the structure's ``PAIR`` ops in a lock.
    """

    make: Callable[..., Any]
    model: str
    observe: Callable[[Any], Any]
    worker: str = "update_worker"
    open_worker: Callable[..., Any] | None = None
    open_sizes: tuple[str, ...] = ()
    pair: bool = False
    prefilled: bool = True


_SET = dict(model="SetModel", observe=lambda s: frozenset(s.keys_direct()),
            worker="mixed_worker", open_worker=traffic_search_worker,
            open_sizes=("update_pct",))

#: Family name -> row.  The names are the drivers' result-name prefixes.
ROWS: dict[str, Row] = {
    "stack": Row(_stack, "StackModel",
                 # drain_direct walks top->bottom; the model keeps
                 # bottom->top.
                 lambda s: tuple(reversed(s.drain_direct())),
                 open_worker=traffic_stack_worker, pair=True),
    "queue": Row(_queue, "QueueModel", lambda q: tuple(q.drain_direct()),
                 pair=True),
    "counter": Row(_counter, "CounterModel", lambda c: c.peek_value(),
                   open_worker=traffic_counter_worker, prefilled=False),
    "pq": Row(_pq, "PQModel", lambda pq: tuple(pq.keys_direct())),
    "list": Row(lambda m, variant, **kw: HarrisList(m, **kw), **_SET),
    "skiplist": Row(lambda m, variant, **kw: LockFreeSkipList(m, **kw),
                    **_SET),
    "hashtable": Row(lambda m, variant: LockedHashTable(m), **_SET),
    "bst": Row(lambda m, variant: LockedExternalBST(m), **_SET),
}


def open_loop(family: str, variant: str) -> bool:
    """Whether ``family``'s ``variant`` can run from a traffic source."""
    return ROWS[family].open_worker is not None and variant not in ZOO_ARMS


def locked_worker(ctx, lock, s, ops: int, local_work: int = 30):
    """Alternating put/take of ``s.PAIR``, each inside ``lock``'s critical
    section (the zoo's coarse-lock arm on the stack and the queue)."""
    put, take = s.PAIR
    for i in range(ops):
        start = ctx.machine.now
        token = yield from lock.acquire(ctx)
        if i % 2 == 0:
            value = (ctx.tid << 32) | i
            yield from getattr(s, put)(ctx, value)
            yield from lock.release(ctx, token)
            ctx.note_op(put, (value,), None, start)
        else:
            taken = yield from getattr(s, take)(ctx)
            yield from lock.release(ctx, token)
            ctx.note_op(take, (), taken, start)
        if local_work:
            yield Work(local_work)


# -- populate -----------------------------------------------------------------

@dataclass
class Built:
    """What :func:`populate` built."""

    structure: Any
    row: Row
    prefill: Iterable | None
    #: The adaptive-lease arm's controller, else None.
    policy: AdaptiveLeaseController | None
    #: The open-loop run's traffic source, else None.
    source: TrafficSource | None

    def model(self):
        """A fresh sequential model holding the prefill."""
        from ..check import models

        cls = getattr(models, self.row.model)
        return cls(self.prefill) if self.row.prefilled else cls()

    def final(self):
        """The final state, in the model's ``snapshot()`` form."""
        return self.row.observe(self.structure)

    def stats(self) -> dict:
        """The MCAS structures' and the adaptive controller's counters."""
        s = self.structure
        out = dict(s.stats()) if hasattr(s, "stats") else {}
        if self.policy is not None:
            out.update(self.policy.stats())
        return out


def populate(m: Machine, family: str, variant: str, *, threads: int,
             ops: int, prefill: Iterable | None = None, traffic: str = "",
             traffic_keys: int = 1, adaptive: dict | None = None,
             knobs: dict | None = None, **sizes: Any) -> Built:
    """Build ``family``'s ``variant`` on ``m``, prefill it and spawn
    ``threads`` workers.

    ``knobs`` go to the constructor and ``sizes`` to the worker.  The
    adaptive-lease arm's controller takes ``adaptive``; the reciprocating
    arm of a stack or queue allocates its lock first and wraps every op
    in it.  A non-empty ``traffic`` spec makes the workers open-loop:
    each pulls arrivals from its lane of a source seeded from the machine
    seed, with keys in ``range(traffic_keys)`` and ``ops`` arrivals per
    lane unless the spec says otherwise.
    """
    row = ROWS[family]
    knobs = dict(knobs or {})
    policy = None
    if variant == "adaptive-lease":
        policy = m.attach_tracer(AdaptiveLeaseController(**(adaptive or {})))
        knobs["lease_policy"] = policy
    lock = (ReciprocatingLock(m) if variant == "reciprocating" and row.pair
            else None)
    s = row.make(m, variant, **knobs)
    if row.prefilled and prefill is not None:
        s.prefill(prefill)
    source = None
    spec = parse_traffic_spec(traffic)
    if not spec.empty:
        if not open_loop(family, variant):
            raise ValueError(f"{family}/{variant} has no open-loop worker")
        source = TrafficSource(spec, num_lanes=threads, seed=m.config.seed,
                               key_range=traffic_keys, default_ops=ops)
    for t in range(threads):
        if source is not None:
            m.add_thread(row.open_worker, s, source.lane(t),
                         **{k: sizes[k] for k in row.open_sizes if k in sizes})
        elif lock is not None:
            m.add_thread(locked_worker, lock, s, ops, **sizes)
        else:
            m.add_thread(getattr(s, row.worker), ops, **sizes)
    return Built(s, row, prefill, policy, source)
