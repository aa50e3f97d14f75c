"""Continuous protocol checking driven by the trace stream.

``Directory.check_invariants`` verifies directory/L1 agreement at
quiescence; :class:`InvariantTracer` extends that to *every step of the
run* by re-checking after each emitted event.  Two windows make the naive
check unsound mid-run, and are excluded:

* lines with an in-flight transaction (``entry.busy`` / queued requests):
  the L1 of a probed owner is updated before the reply reaches home;
* lines with an eviction notice in flight (issued, not yet applied): the
  core's L1 already dropped the line but the directory has not heard yet.
  These are tracked from ``eviction_issued``/``eviction_applied`` events.

On top of agreement it checks the paper's Assumption 1 / Proposition 1
consequence -- at any time the probes queued at cores on one line, as
deferred probes or lease-queued probes, all belong to one request (the
directory keeps one transaction in flight per line; a GetX invalidates
every sharer, so several cores may queue that one request's probes) --
and audits the L1 pin refcounts exactly: each granted live lease holds
one pin reference, each queued probe one more, and no line is pinned
without a matching lease-table entry (catching both leaks and
underflows).

Violations raise :class:`~repro.errors.ProtocolError` immediately, with
the event and cycle that exposed them, so CI catches protocol regressions
at the first bad transition instead of at end-of-run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ProtocolError
from . import events as ev
from .bus import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..coherence.directory import Request
    from ..core.machine import Machine


class InvariantTracer(Tracer):
    """Checks coherence/lease invariants after every ``every``-th event."""

    def __init__(self, *, every: int = 1) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self.machine: "Machine | None" = None
        self.events_seen = 0
        self.checks_run = 0
        #: line -> number of eviction notices in flight.
        self._pending_evictions: dict[int, int] = {}

    def bind(self, machine: "Machine") -> None:
        self.machine = machine
        self.events_seen = 0
        self.checks_run = 0
        self._pending_evictions.clear()

    # -- sink interface -----------------------------------------------------

    def on_event(self, event: ev.TraceEvent) -> None:
        t = type(event)
        if t is ev.EvictionIssued:
            p = self._pending_evictions
            p[event.line] = p.get(event.line, 0) + 1
        elif t is ev.EvictionApplied:
            p = self._pending_evictions
            left = p.get(event.line, 0) - 1
            if left > 0:
                p[event.line] = left
            else:
                p.pop(event.line, None)
        self.events_seen += 1
        if self.events_seen % self.every == 0:
            try:
                self.check()
            except ProtocolError as err:
                raise ProtocolError(
                    f"invariant violated at t={event.t} after "
                    f"{event.kind} event: {err}") from None

    # -- the checks ---------------------------------------------------------

    def check(self) -> None:
        """Run all checks now (also callable directly, e.g. at quiescence)."""
        m = self.machine
        if m is None:
            raise ProtocolError("InvariantTracer not bound to a machine")
        self.checks_run += 1
        d = m.directory
        pending = self._pending_evictions
        # 1. Directory/L1 agreement on every settled line.
        for line, entry in d.entries.items():
            if entry.busy or entry.queue or pending.get(line):
                continue
            d.check_line(line, entry)
        # 2. Proposition 1: the probes queued at cores on a line, deferred
        # or lease-queued, belong to one request.
        queued: dict[int, set[Request]] = {}
        for unit in d.mem_units:
            probe = unit.deferred_probe
            if probe is not None:
                queued.setdefault(probe.line, set()).add(probe.req)
            mgr = unit.lease_mgr
            expected: dict[int, int] = {}
            if mgr is not None:
                for e in mgr.table.entries():
                    # 3. Exact pin accounting: a granted, live lease holds
                    # one pin reference on its line, and a queued probe
                    # holds one more.  Both directions are audited below.
                    if e.granted and not e.dead:
                        expected[e.line] = expected.get(e.line, 0) + 1
                    if e.queued_probe is not None:
                        expected[e.line] = expected.get(e.line, 0) + 1
                        queued.setdefault(e.line, set()).add(
                            e.queued_probe.req)
            actual = unit.l1.pinned_lines()
            if actual != expected:
                raise ProtocolError(
                    f"core {unit.core_id}: pin refcounts diverge from the "
                    f"lease table: L1 pins {actual}, leases+queued probes "
                    f"imply {expected}")
        for line, reqs in queued.items():
            if len(reqs) > 1:
                raise ProtocolError(
                    f"line {line}: probes of {len(reqs)} requests queued at "
                    "cores (Proposition 1 allows at most one)")
