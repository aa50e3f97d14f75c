"""Simulation clock and run loop.

One engine: the heap-backed :class:`~repro.engine.event_queue.EventQueue`
and an event-at-a-time loop.  With no
:class:`~repro.engine.event_queue.ScheduleStrategy` installed every
priority is 0, so events fire in exact ``(time, seq)`` order.

The loop pops the queue's ``(time, pri, seq, fn, args)`` tuples itself.
Per event it makes one test against the horizon -- the smaller of the
``until`` cycle and ``max_cycles`` -- and counts down one event budget;
only when the horizon test trips does it decide between deferring the
event past ``until`` and a :class:`~repro.errors.SimulationTimeout`.

Quiescence is *polled* by default (the predicate runs before every event,
as it always did) so bare simulators with ad-hoc ``quiescent`` lambdas keep
their semantics.  A machine whose predicate only changes at discrete
notification points (thread start/finish) opts into *notify* mode via
:meth:`Simulator.use_quiescence_notify`; the run loop then re-evaluates the
predicate only when :attr:`quiesce_dirty` has been raised, eliding the
no-op polls between notifications without changing when the run stops.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any, Callable

from ..errors import SimulationError, SimulationTimeout
from .event_queue import Event, EventQueue, ScheduleStrategy


class Simulator:
    """Drives an event queue forward in virtual time.

    The simulator knows nothing about cores or caches; it only provides
    ``now``, scheduling, a seeded RNG and a run loop with cycle/event
    budgets.  Higher layers register a *quiescence check* so that
    :meth:`run` can stop when all threads have finished even though idle
    events (e.g. never-fired lease expiries) may remain queued.

    ``strategy`` installs a schedule-perturbation
    :class:`~repro.engine.event_queue.ScheduleStrategy` that reorders
    same-timestamp events (used by :mod:`repro.check` to explore
    interleavings); the default ``None`` keeps the classic deterministic
    ``(time, seq)`` order.
    """

    __slots__ = ("queue", "now", "rng", "max_cycles", "max_events",
                 "events_processed", "quiescent", "_running",
                 "_poll_quiescence", "quiesce_dirty")

    def __init__(self, *, seed: int = 1,
                 max_cycles: int = 2_000_000_000,
                 max_events: int = 200_000_000,
                 strategy: ScheduleStrategy | None = None) -> None:
        self.queue = EventQueue(strategy)
        self.now: int = 0
        self.rng = random.Random(seed)
        self.max_cycles = max_cycles
        self.max_events = max_events
        self.events_processed: int = 0
        #: Callable returning True when the simulation may stop early.
        self.quiescent: Callable[[], bool] = lambda: False
        self._running = False
        self._poll_quiescence = True
        #: In notify mode: raised whenever the quiescence predicate may
        #: have changed; the run loop clears it after re-evaluating.
        self.quiesce_dirty = True

    # -- scheduling ---------------------------------------------------------

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"scheduling into the past: t={time} < now={self.now}")
        self.queue.schedule(time, fn, *args)

    def after(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.queue.schedule(self.now + delay, fn, *args)

    def cancel(self, ev: Event) -> None:
        """Cancel an event scheduled with
        :meth:`EventQueue.schedule_cancellable`."""
        self.queue.cancel(ev)

    # -- quiescence notification --------------------------------------------

    def use_quiescence_notify(self) -> None:
        """Stop polling the quiescence predicate before every event; only
        re-evaluate it after :meth:`notify_quiescence`.  Callers guarantee
        they notify at every point the predicate can flip (the Machine does
        so on thread start and finish)."""
        self._poll_quiescence = False
        self.quiesce_dirty = True

    def notify_quiescence(self) -> None:
        """Flag that the quiescence predicate may have changed."""
        self.quiesce_dirty = True

    # -- checkpointing (repro.state) ----------------------------------------

    def state_dict(self) -> dict:
        """Clock/budget progress and RNG stream (the queue serializes
        separately, through a codec)."""
        from ..state.codec import encode_rng

        return {"now": self.now,
                "events_processed": self.events_processed,
                "rng": encode_rng(self.rng)}

    def load_state(self, state: dict) -> None:
        from ..state.codec import decode_rng

        self.now = state["now"]
        self.events_processed = state["events_processed"]
        decode_rng(self.rng, state["rng"])

    # -- run loop -----------------------------------------------------------

    def run(self, until: int | None = None) -> int:
        """Process events until quiescence, the optional ``until`` cycle, or
        a budget is exhausted.  Returns the final simulation time.

        Clock rule: when ``until`` is given, the clock always advances to
        ``until`` unless quiescence stopped the run first -- whether the
        horizon was reached because the next event lies beyond it or
        because the queue drained entirely.  (The clock never moves
        backwards: ``run(until=past)`` leaves it where it was.)  At
        quiescence, or when the queue drains with no horizon, the clock
        stays at the last processed event's time.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        poll = self._poll_quiescence
        self.quiesce_dirty = True
        heap, dead = self.queue._heap, self.queue._dead
        pop = heappop
        max_cycles, max_events = self.max_cycles, self.max_events
        horizon = max_cycles if until is None else min(until, max_cycles)
        budget = max_events - self.events_processed
        try:
            while True:
                if poll or self.quiesce_dirty:
                    self.quiesce_dirty = False
                    if self.quiescent():
                        return self.now
                while heap:
                    time, pri, seq, fn, args = pop(heap)
                    if seq not in dead:
                        break
                    dead.remove(seq)
                else:
                    # Drained: the clock moves to the horizon, if any, and
                    # otherwise stays at the last processed event's time.
                    if until is not None and until > self.now:
                        self.now = until
                    return self.now
                if time > horizon:
                    if until is not None and time > until:
                        # Deferred under its own key, so it keeps its place
                        # in the (time, pri, seq) order when the run resumes.
                        heappush(heap, (time, pri, seq, fn, args))
                        if until > self.now:
                            self.now = until
                        return self.now
                    raise SimulationTimeout(
                        f"simulation exceeded max_cycles={max_cycles}",
                        cycle=time, events=max_events - budget)
                self.now = time
                budget -= 1
                if budget < 0:
                    raise SimulationTimeout(
                        f"simulation exceeded max_events={max_events}"
                        " (livelocked workload?)",
                        cycle=time, events=max_events - budget)
                fn(*args)
        finally:
            # The countdown is the only event counter inside the loop.
            self.events_processed = max_events - budget
            self._running = False
