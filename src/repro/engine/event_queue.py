"""A deterministic event queue of plain key tuples.

Each event is one heap entry, the tuple ``(time, pri, seq, fn, args)``.
``seq`` is a monotonically increasing insertion counter and ``pri`` is a
perturbation priority (0 unless a schedule-exploration strategy is
installed), so simultaneous events fire in the order they were scheduled.
``seq`` is unique, so :mod:`heapq` orders entries by comparing the three
integer keys in C and never reaches ``fn``.  This gives bit-for-bit
reproducible simulations for a fixed seed, which the test suite relies on.

A :class:`ScheduleStrategy` (see :mod:`repro.check.perturb`) may be
installed to assign nonzero priorities to events at schedule time.  This
reorders *same-timestamp* events only -- the primary ``time`` key is never
touched -- so timing semantics are preserved while the tie-breaking order
among simultaneous events is explored.  With no strategy installed every
priority is 0 and the order is exactly the classic ``(time, seq)``.

Only events scheduled through :meth:`EventQueue.schedule_cancellable` get
a handle, an :class:`Event`, and can be cancelled; in the simulator that
is the lease expiry timer alone.  Cancellation is lazy: the handle's seq
joins a dead set, and pops skip (and forget) dead seqs.  When dead
entries outnumber live ones (and there are enough of them to matter) the
heap is compacted in place, so workloads that cancel heavily -- e.g.
every lease acquisition schedules an expiry that a voluntary release
cancels -- keep the heap linear in the number of *live* events.
Compaction rebuilds the heap from the surviving entries' stored
``(time, pri, seq)`` keys, so a strategy's chosen order among equal-time
events survives compaction unchanged.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable

from ..errors import SimulationError


class ScheduleStrategy:
    """Assigns a perturbation priority to each event at schedule time.

    The default implementation returns 0 for every event, which reproduces
    the classic ``(time, seq)`` order.  Subclasses (seeded random, PCT-style,
    replay -- see :mod:`repro.check.perturb`) override :meth:`priority`;
    smaller priorities fire earlier among events with the same timestamp.
    Strategies must be deterministic functions of their own seed and the
    events they have seen, never of wall-clock or global state.
    """

    def priority(self, seq: int, fn: Callable[..., Any], args: tuple) -> int:
        return 0


class Event:
    """Handle of a cancellable event: returned by
    :meth:`EventQueue.schedule_cancellable` so the caller can later
    :meth:`EventQueue.cancel` it.  Holds the event's key and payload."""

    __slots__ = ("time", "pri", "seq", "fn", "args", "cancelled")

    def __init__(self, time: int, pri: int, seq: int,
                 fn: Callable[..., Any], args: tuple) -> None:
        self.time = time
        self.pri = pri
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        pri = f" p{self.pri}" if self.pri else ""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time}{pri} #{self.seq} {name}{state}>"


class EventQueue:
    """Min-heap of ``(time, pri, seq, fn, args)`` entries."""

    #: Compact only once at least this many cancelled entries accumulate
    #: (avoids rebuilding tiny heaps over and over).
    COMPACT_MIN_DEAD = 64

    __slots__ = ("_heap", "_dead", "_seq", "strategy")

    def __init__(self, strategy: ScheduleStrategy | None = None) -> None:
        # Both containers are only ever mutated in place: the simulator's
        # run loop holds them in locals.
        self._heap: list[tuple] = []
        #: Seqs of cancelled entries still in the heap.
        self._dead: set[int] = set()
        self._seq = 0
        #: Optional perturbation strategy consulted once per scheduled
        #: event.  None means "no perturbation": every priority is 0.
        self.strategy = strategy

    def __len__(self) -> int:
        """Number of live (non-cancelled) events."""
        return len(self._heap) - len(self._dead)

    @property
    def heap_size(self) -> int:
        """Physical heap length, including cancelled entries (tests)."""
        return len(self._heap)

    def schedule(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute ``time``."""
        if time < 0:
            raise SimulationError(f"cannot schedule event at t={time}")
        seq = self._seq
        self._seq = seq + 1
        strategy = self.strategy
        pri = 0 if strategy is None else strategy.priority(seq, fn, args)
        heappush(self._heap, (time, pri, seq, fn, args))

    def schedule_cancellable(self, time: int, fn: Callable[..., Any],
                             *args: Any) -> Event:
        """:meth:`schedule`, returning a handle that :meth:`cancel` takes."""
        # Repeats schedule()'s body so the per-event path makes no extra
        # call.
        if time < 0:
            raise SimulationError(f"cannot schedule event at t={time}")
        seq = self._seq
        self._seq = seq + 1
        strategy = self.strategy
        pri = 0 if strategy is None else strategy.priority(seq, fn, args)
        heappush(self._heap, (time, pri, seq, fn, args))
        return Event(time, pri, seq, fn, args)

    def cancel(self, ev: Event) -> None:
        """Cancel a pending event.  Cancelling twice is a no-op.  The event
        must not have fired yet: its seq would then count as dead, and
        skew ``len()``, until the next compaction."""
        if not ev.cancelled:
            ev.cancelled = True
            dead = self._dead
            dead.add(ev.seq)
            n_dead = len(dead)
            if (n_dead >= self.COMPACT_MIN_DEAD
                    and n_dead > len(self._heap) - n_dead):
                self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.  O(n) in heap length --
        amortized O(1) per cancel, since at least half the heap is dead
        whenever this runs.  Ordering is untouched: surviving entries keep
        their (time, pri, seq) keys -- including any strategy-assigned
        priorities -- so determinism is preserved."""
        heap, dead = self._heap, self._dead
        heap[:] = [e for e in heap if e[2] not in dead]
        heapify(heap)
        dead.clear()

    def pop(self) -> tuple | None:
        """Pop and return the earliest live entry
        ``(time, pri, seq, fn, args)``, or None if empty."""
        heap, dead = self._heap, self._dead
        while heap:
            entry = heappop(heap)
            if entry[2] not in dead:
                return entry
            dead.remove(entry[2])
        return None

    def peek_time(self) -> int | None:
        """Time of the earliest live event without popping it."""
        heap, dead = self._heap, self._dead
        while heap and heap[0][2] in dead:
            dead.remove(heappop(heap)[2])
        return heap[0][0] if heap else None

    # -- checkpointing (repro.state) ----------------------------------------

    @property
    def next_seq(self) -> int:
        """The seq the next scheduled event will receive (the shrinker's
        prefix-checkpoint watermark)."""
        return self._seq

    def state_dict(self, codec) -> dict:
        """Live events as serializable descriptors.

        Cancelled entries are dropped -- they are behaviorally invisible
        (skipped on pop) and their callbacks may reference dead objects.
        Events are saved in full ``(time, pri, seq)`` order so the tree is
        canonical regardless of the heap's internal layout.
        """
        dead = self._dead
        live = sorted(e for e in self._heap if e[2] not in dead)
        return {
            "seq": self._seq,
            "events": [[time, pri, seq, codec.encode_fn(fn),
                        codec.encode(args)]
                       for time, pri, seq, fn, args in live],
        }

    def load_state(self, state: dict, codec) -> dict[int, tuple]:
        """Rebuild the heap from descriptors; returns the ``seq -> entry``
        map from which stored event references (lease expiry timers) get
        fresh handles.  The strategy is *not* consulted: each event keeps
        the priority it was assigned when originally scheduled."""
        heap = [(time, pri, seq, codec.decode_fn(fn_desc),
                 codec.decode(args_enc))
                for time, pri, seq, fn_desc, args_enc in state["events"]]
        heapify(heap)
        self._heap[:] = heap
        self._dead.clear()
        self._seq = state["seq"]
        return {e[2]: e for e in heap}
