"""Open-loop worker bodies: pull admitted ops from a lane, never self-pace.

These mirror the closed-loop bodies of :mod:`repro.structures.workers`
on the same structures, with the loop inverted: instead of issuing ``ops``
back-to-back operations, each body polls its :class:`~repro.traffic.
source.Lane` and runs whatever the arrival process admitted.  While the
queue is empty the worker idles (``Work`` for the lane's wait hint); when
every stream is dry and the queue drained, it exits.

Every op still goes through ``ctx.note_op`` with its arguments and
result, so open-loop histories stay checkable by the linearizability
checker (``repro check <target> --traffic ...`` on the counter, the
Treiber stack and the set targets), and records its enqueue->complete
latency into the lane histogram.
"""

from __future__ import annotations

from typing import Any, Generator

from ..core.isa import Work
from ..core.thread import Ctx
from ..structures.workers import set_op

__all__ = ["traffic_counter_worker", "traffic_stack_worker",
           "traffic_search_worker", "op_for_key"]


def op_for_key(key: int, tenant: int, update_pct: int) -> str:
    """Deterministic op choice for an admitted (key, tenant) pair.

    Open-loop ops can't roll the worker's RNG (admission order depends
    on the arrival merge, and the mix must be a property of the *offered
    load*, not of which core served it), so the roll is a hash of the
    op's own identity.  The split is the closed loop's
    (:func:`~repro.structures.workers.set_op`): ceil(pct/2) inserts,
    floor(pct/2) deletes, rest searches.
    """
    return set_op((key * 1103515245 + tenant * 12345 + 12821) % 100,
                  update_pct)


def traffic_counter_worker(ctx: Ctx, counter, lane) -> Generator:
    """Open-loop counterpart of :func:`~repro.structures.workers.
    counter_worker`: every admitted op is one increment (keys only steer
    the arrival process here; a counter has a single word)."""
    while True:
        item = lane.poll(ctx)
        if item is None:
            return
        if isinstance(item, int):
            yield Work(item)
            continue
        enqueued, _tenant, _key = item
        start = ctx.machine.now
        before = yield from counter.increment(ctx)
        lane.complete(enqueued, ctx.machine.now)
        ctx.note_op("inc", (), before, start)


def traffic_stack_worker(ctx: Ctx, stack, lane) -> Generator:
    """Open-loop counterpart of :func:`~repro.structures.workers.
    pair_worker` on a stack: even keys push (values unique per (tid,
    sequence) so histories stay checkable), odd keys pop."""
    seq = 0
    while True:
        item = lane.poll(ctx)
        if item is None:
            return
        if isinstance(item, int):
            yield Work(item)
            continue
        enqueued, _tenant, key = item
        start = ctx.machine.now
        if key % 2 == 0:
            value = (ctx.tid << 32) | seq
            seq += 1
            yield from stack.push(ctx, value)
            lane.complete(enqueued, ctx.machine.now)
            ctx.note_op("push", (value,), None, start)
        else:
            popped = yield from stack.pop(ctx)
            lane.complete(enqueued, ctx.machine.now)
            ctx.note_op("pop", (), popped, start)


def traffic_search_worker(ctx: Ctx, structure, lane,
                          update_pct: int = 20) -> Generator:
    """Open-loop counterpart of :func:`~repro.structures.workers.
    set_worker` for the Section 7 search structures: the admitted key is
    the operation's key, the op kind is hashed from it (see
    :func:`op_for_key`)."""
    while True:
        item = lane.poll(ctx)
        if item is None:
            return
        if isinstance(item, int):
            yield Work(item)
            continue
        enqueued, tenant, key = item
        op = op_for_key(key, tenant, update_pct)
        start = ctx.machine.now
        if op == "insert":
            added = yield from structure.insert(ctx, key)
            result: Any = added
        elif op == "delete":
            result = yield from structure.delete(ctx, key)
        else:
            result = yield from structure.contains(ctx, key)
        lane.complete(enqueued, ctx.machine.now)
        ctx.note_op(op, (key,), result, start)
