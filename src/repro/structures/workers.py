"""Closed-loop benchmark bodies, one per operation shape.

The paper drives every structure with one of four mixes: alternating
push/pop or enqueue/dequeue (Figures 2 and 3b), alternating
insert/deleteMin (Figures 3c and 4a), back-to-back increments (Figure 3a)
and Section 7's search mix.  Each structure class binds its shape's body
as a method (``update_worker = pair_worker``), so ``s.update_worker(ctx,
ops)`` runs ``ops`` operations back to back.  Every operation is reported
with its arguments and result, so the run's history is checkable (see
:mod:`repro.check`).

This module imports only :mod:`repro.core`: the traffic and workload
layers import it, never the reverse.
"""

from __future__ import annotations

from typing import Generator

from ..core.isa import Work
from ..core.thread import Ctx

__all__ = ["pair_worker", "pq_worker", "counter_worker", "set_worker",
           "set_op"]


def pair_worker(self, ctx: Ctx, ops: int,
                local_work: int = 30) -> Generator:
    """100%-update body of a stack or queue: alternating put/take, the two
    ops named by the class's ``PAIR``.  Put values are unique per (thread,
    op index)."""
    put_name, take_name = self.PAIR
    put, take = getattr(self, put_name), getattr(self, take_name)
    for i in range(ops):
        start = ctx.machine.now
        if i % 2 == 0:
            value = (ctx.tid << 32) | i
            yield from put(ctx, value)
            ctx.note_op(put_name, (value,), None, start)
        else:
            taken = yield from take(ctx)
            ctx.note_op(take_name, (), taken, start)
        if local_work:
            yield Work(local_work)


def pq_worker(self, ctx: Ctx, ops: int, key_range: int = 1 << 20,
              local_work: int = 30) -> Generator:
    """100%-update body of a priority queue: alternating insert of a
    uniform random key and deleteMin."""
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


def counter_worker(self, ctx: Ctx, ops: int) -> Generator:
    """``ops`` increments, each reporting the value it observed."""
    for _ in range(ops):
        start = ctx.machine.now
        before = yield from self.increment(ctx)
        ctx.note_op("inc", (), before, start)


def set_op(roll: int, update_pct: int) -> str:
    """The op that ``roll``, in ``range(100)``, draws from the search mix:
    ``update_pct`` percent updates, the rest searches.  An odd share
    cannot split evenly, so the extra point goes to inserts: ceil(pct/2)
    inserts, floor(pct/2) deletes.  The closed-loop, open-loop and
    generator mixes all split through here."""
    if roll < (update_pct + 1) // 2:
        return "insert"
    if roll < update_pct:
        return "delete"
    return "contains"


def set_worker(self, ctx: Ctx, ops: int, key_range: int,
               update_pct: int = 20) -> Generator:
    """The Section 7 low-contention mix (see :func:`set_op`) over uniform
    random keys; each op reports its boolean result."""
    for _ in range(ops):
        key = ctx.rng.randrange(key_range)
        op = set_op(ctx.rng.randrange(100), update_pct)
        start = ctx.machine.now
        result = yield from getattr(self, op)(ctx, key)
        ctx.note_op(op, (key,), result, start)
