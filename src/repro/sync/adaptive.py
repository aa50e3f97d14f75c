"""Adaptive lease durations predicted from observed probe pressure.

Our own entry in the contention-management ablation: instead of the
fixed (effectively infinite, ``min``-clamped) durations the structures
request by default, an :class:`AdaptiveLeaseController` watches the same
trace signals the :class:`~repro.trace.sinks.ContentionHeatmap`
aggregates and maintains a per-line duration estimate that the
structures consult on every lease issue (their ``lease_policy`` hook):

* a lease that **expires** was too short to cover its read-CAS window --
  the estimate doubles (the retry burns the whole window again, so
  under-estimation is the expensive direction);
* a lease released **voluntarily** while many probes queued behind it
  was needlessly generous -- the estimate contracts by a quarter, which
  bounds how long waiters can be deferred behind a hot line;
* ``broken``/``fifo`` releases (prioritization override, table
  pressure) also contract: the machine itself judged the lease to be in
  the way.

The controller is a trace sink, attached with
``machine.attach_tracer(...)``.  It is *stream-ordered*: adaptation
depends on the relative order of probe-queue and release events on a
line.  State is checkpointable
(``state_dict``/``load_state``), so shrink campaigns can prefix-restore
through it.
"""

from __future__ import annotations

from typing import Collection

from ..trace import events as ev
from ..trace.bus import Tracer


class AdaptiveLeaseController(Tracer):
    """Per-line lease-duration estimator (see module docstring).

    ``time_for(addr)`` is the structures' ``lease_policy`` hook: the
    current estimate for the line holding ``addr``.
    """

    def __init__(self, *, initial: int = 400, min_time: int = 100,
                 max_time: int = 6400, pressure_high: int = 4) -> None:
        self.initial = initial
        self.min_time = min_time
        self.max_time = max_time
        #: Queued probes behind one lease tenure above which a voluntary
        #: release still counts as over-holding.
        self.pressure_high = pressure_high
        self._est: dict[int, int] = {}       # line -> duration estimate
        self._pressure: dict[int, int] = {}  # line -> probes this tenure
        self.expirations = 0
        self.contractions = 0
        self.extensions = 0
        self._line_of = None

    # -- lease_policy hook ---------------------------------------------------

    def time_for(self, addr: int) -> int:
        if self._line_of is None:
            return self.initial
        return self._est.get(self._line_of(addr), self.initial)

    # -- Tracer interface ----------------------------------------------------

    def bind(self, machine) -> None:
        self._line_of = machine.amap.line_of

    def interests(self) -> Collection[type]:
        return frozenset((ev.LeaseStarted, ev.LeaseReleased,
                          ev.LeaseProbeQueued, ev.ProbeDeferred))

    def on_event(self, event: ev.TraceEvent) -> None:
        t = type(event)
        if t is ev.LeaseStarted:
            self._pressure[event.line] = 0
        elif t is ev.LeaseProbeQueued or t is ev.ProbeDeferred:
            line = event.line
            self._pressure[line] = self._pressure.get(line, 0) + 1
        elif t is ev.LeaseReleased:
            line = event.line
            est = self._est.get(line, self.initial)
            if event.mode == "expired":
                self.expirations += 1
                self.extensions += 1
                est = min(self.max_time, est * 2)
            elif (event.mode != "voluntary"
                  or self._pressure.get(line, 0) > self.pressure_high):
                self.contractions += 1
                est = max(self.min_time, est * 3 // 4)
            self._est[line] = est

    # -- checkpointing -------------------------------------------------------

    def state_dict(self, codec=None) -> dict:
        return {
            "est": [[line, est] for line, est in sorted(self._est.items())],
            "pressure": [[line, p] for line, p
                         in sorted(self._pressure.items())],
            "expirations": self.expirations,
            "contractions": self.contractions,
            "extensions": self.extensions,
        }

    def load_state(self, state: dict, codec=None) -> None:
        self._est = {line: est for line, est in state["est"]}
        self._pressure = {line: p for line, p in state["pressure"]}
        self.expirations = state["expirations"]
        self.contractions = state["contractions"]
        self.extensions = state["extensions"]

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {"adaptive_expirations": self.expirations,
                "adaptive_extensions": self.extensions,
                "adaptive_contractions": self.contractions,
                "adaptive_lines": len(self._est)}
