"""Per-core lease controller implementing Algorithms 1 and 2.

The manager sits between the core's :class:`~repro.coherence.memunit.MemUnit`
and the directory:

* the core executes ``Lease``/``Release``/``MultiLease``/``ReleaseAll``
  instructions by calling into the manager;
* the memory unit consults :meth:`try_queue_probe` for every incoming
  coherence probe, which is where leased lines delay (or, under the
  Section 5 prioritization rule, break on) remote requests.

All acquisition paths are continuation-passing: ``done()`` fires when the
instruction retires (ownership granted / timers started).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..coherence.states import LineState
from ..config import LeaseConfig
from ..engine import Simulator
from ..errors import LeaseError
from ..trace import TraceBus
from .table import LeaseEntry, LeaseGroup, LeaseTable

if TYPE_CHECKING:  # pragma: no cover
    from ..coherence.memunit import MemUnit, Probe
    from ..mem import AddressMap


class _PendingAcquire:
    """The manager's single in-flight acquisition, as explicit state.

    At most one Lease/MultiLease instruction is in flight per core (the
    cores are in-order), so one slot suffices.  Keeping the progress
    (``mode``/``index``) as data instead of closure captures is what lets
    checkpoints serialize a machine stopped mid-acquisition.
    """

    __slots__ = ("mode", "entries", "index", "done", "group")

    def __init__(self, mode: str, entries: tuple,
                 done: Callable[[], None],
                 group: LeaseGroup | None = None) -> None:
        #: "single" | "hw" | "sw" -- which acquisition flow is running.
        self.mode = mode
        self.entries = entries
        self.index = 0
        self.done = done
        self.group = group


class LeaseManager:
    """Lease/Release state machine for one core."""

    __slots__ = ("core_id", "config", "amap", "memunit", "sim", "trace",
                 "faults", "table", "active_group", "site_stats", "_pending")

    def __init__(self, core_id: int, config: LeaseConfig,
                 amap: "AddressMap", memunit: "MemUnit",
                 sim: Simulator, trace: TraceBus, faults=None) -> None:
        self.core_id = core_id
        self.config = config
        self.amap = amap
        self.memunit = memunit
        self.sim = sim
        self.trace = trace
        #: Optional :class:`~repro.faults.FaultPlan`: skews expiry timers.
        self.faults = faults
        self.table = LeaseTable(config.max_num_leases)
        #: Currently active MultiLease group, if any (at most one; the paper
        #: forbids concurrent single- and multi-location leases).
        self.active_group: LeaseGroup | None = None
        #: Section 5 predictor state: site -> [leases_started,
        #: involuntary_ends].  Only populated when the predictor is on and
        #: the Lease instruction carries a site.
        self.site_stats: dict[str, list[int]] = {}
        #: In-flight Lease/MultiLease acquisition (one per in-order core).
        self._pending: _PendingAcquire | None = None

    # ------------------------------------------------------------------
    # Single-location leases (Algorithm 1)
    # ------------------------------------------------------------------

    def lease(self, addr: int, time: int,
              done: Callable[[], None], site: str | None = None) -> None:
        """``Lease(addr, time)``: lease the line of ``addr`` for at most
        ``min(time, MAX_LEASE_TIME)`` cycles.  ``done()`` fires once the
        line is held in exclusive state (possibly synchronously)."""
        if self.active_group is not None and not self.active_group.dead:
            raise LeaseError(
                "concurrent single- and multi-location leases are not "
                "allowed (Section 4)")
        line = self.amap.line_of(addr)
        self.trace.lease_requested(self.core_id, line, site)
        if self._predictor_rejects(site):
            # Section 5 speculative mechanism: this site's leases keep
            # ending involuntarily, so stop honouring them (lease usage is
            # advisory; skipping is always correct).
            self.trace.lease_ignored(self.core_id, line, site)
            done()
            return
        if line in self.table:
            # No extension of an already-leased address (footnote 1: this
            # could break the MAX_LEASE_TIME bound).
            self.trace.lease_noop(self.core_id, line)
            done()
            return
        duration = min(time, self.config.max_lease_time)
        if self.table.full:
            oldest = self.table.oldest()
            assert oldest is not None
            if oldest.started:
                # Same guard as every other release path: a lease that
                # never started (still in flight) is not a release for
                # trace/counter purposes.
                self.trace.lease_released(self.core_id, oldest.line, "fifo")
            self._release_entry(oldest, voluntary=True)
        entry = LeaseEntry(line, duration, site=site)
        self.table.add(entry)
        self._pending = _PendingAcquire("single", (entry,), done)
        self._acquire_current()

    # -- Section 5 involuntary-release predictor ---------------------------

    def _predictor_rejects(self, site: str | None) -> bool:
        if site is None or not self.config.predictor_enabled:
            return False
        stats = self.site_stats.get(site)
        if stats is None or stats[0] < self.config.predictor_min_samples:
            return False
        return stats[1] / stats[0] > self.config.predictor_threshold

    def _predictor_note(self, entry: LeaseEntry, *,
                        involuntary: bool) -> None:
        if entry.site is None or not self.config.predictor_enabled:
            return
        stats = self.site_stats.setdefault(entry.site, [0, 0])
        stats[0] += 1
        if involuntary:
            stats[1] += 1

    def _acquire_current(self) -> None:
        """Request exclusive ownership of the pending acquisition's current
        entry, then (on grant) start its countdown via :meth:`_on_grant`."""
        entry = self._pending.entries[self._pending.index]
        if self.memunit.l1.state_of(entry.line) in (LineState.M,
                                                    LineState.E):
            # Already owned exclusively: the lease is effective immediately.
            self._on_grant()
            return
        self.memunit.access(True, self.amap.base_of_line(entry.line),
                            is_lease=True, callback=self._on_grant)

    def _on_grant(self) -> None:
        """Ownership of the current entry's line arrived (or was already
        held): record the grant, start the single-lease timer, advance."""
        p = self._pending
        entry = p.entries[p.index]
        self._granted(entry)
        if not entry.dead and entry.group is None:
            self._start_timer(entry)
        p.index += 1
        if p.mode == "single":
            self._finish_pending()
        elif p.mode == "hw":
            self._hw_step()
        else:
            self._sw_step()

    def _finish_pending(self) -> None:
        """Retire the in-flight instruction (clear first: ``done`` may
        issue the next lease synchronously)."""
        p = self._pending
        self._pending = None
        p.done()

    def _granted(self, entry: LeaseEntry) -> None:
        entry.granted = True
        if entry.dead:
            # Released while in flight: never start; drop immediately.
            # Remove by *identity*: the release already evicted this entry,
            # and if the core has since re-leased the same line, removing
            # by line number would delete the new tenant.
            self.table.remove_entry(entry)
            self._drain_probe(entry)
        else:
            self.memunit.l1.pin(entry.line)

    def _start_timer(self, entry: LeaseEntry) -> None:
        assert entry.granted and not entry.started
        entry.started = True
        duration = entry.duration
        if self.faults is not None:
            skew = self.faults.timer_skew()
            if skew:
                # Clamp into [1, MAX_LEASE_TIME] so the Proposition-1
                # deferral bound survives the injected skew.
                duration = max(1, min(duration + skew,
                                      self.config.max_lease_time))
                self.trace.fault_injected("timer_skew", self.core_id, skew)
        self.trace.lease_started(self.core_id, entry.line, duration)
        sim = self.sim
        entry.expiry_event = sim.queue.schedule_cancellable(
            sim.now + duration, self._expire, entry)

    def release(self, addr: int) -> bool:
        """``Release(addr)``: returns True iff the release was voluntary
        (the lease was still held).  Releasing a line not in the table does
        nothing and returns False.  Releasing a member of a MultiLease
        group releases the whole group (Section 4 MultiRelease)."""
        line = self.amap.line_of(addr)
        entry = self.table.get(line)
        if entry is None:
            return False
        if entry.group is not None:
            self._release_group(entry.group, voluntary=True)
        else:
            self.trace.lease_released(self.core_id, line, "voluntary")
            self._release_entry(entry, voluntary=True)
        return True

    def release_all(self) -> None:
        """``ReleaseAll()``: voluntarily release every held lease.  Entries
        are deleted first, then outstanding probes serviced (Algorithm 2)."""
        entries = self.table.entries()
        for entry in entries:
            self._unlink_entry(entry)
            if entry.started:
                self.trace.lease_released(self.core_id, entry.line,
                                              "voluntary")
                self._predictor_note(entry, involuntary=False)
        for entry in entries:
            self._drain_probe(entry)
        if self.active_group is not None:
            self.active_group.dead = True
            self.active_group = None

    def _unlink_entry(self, entry: LeaseEntry) -> None:
        """Common release bookkeeping: detach ``entry`` from the table,
        cancel its timer, and drop exactly the pin references it holds --
        one for a granted live lease, one for a queued probe.  A lease
        still in flight (never granted) holds no pin, so none is dropped.
        All state is consistent before any subsequent trace emit (the
        invariant checker audits pin counts synchronously on every event).
        """
        self.table.remove_entry(entry)
        was_held = entry.holds_line
        entry.dead = True
        if entry.expiry_event is not None:
            self.sim.cancel(entry.expiry_event)
            entry.expiry_event = None
        if was_held:
            self.memunit.l1.unpin(entry.line)
        if entry.queued_probe is not None:
            self.memunit.l1.unpin(entry.line)

    def _release_entry(self, entry: LeaseEntry, *, voluntary: bool) -> None:
        """Remove one entry and service its queued probe."""
        self._unlink_entry(entry)
        if entry.started:
            self._predictor_note(entry, involuntary=not voluntary)
        self._drain_probe(entry)

    def _drain_probe(self, entry: LeaseEntry) -> None:
        probe = entry.queued_probe
        if probe is not None:
            entry.queued_probe = None
            self.memunit.apply_probe(probe)

    def _expire(self, entry: LeaseEntry) -> None:
        """ZERO-COUNTER event: involuntary release."""
        # This event is the timer firing: forget it, so the release below
        # does not cancel an event that has already been popped.
        entry.expiry_event = None
        if entry.dead or entry.line not in self.table:
            return
        self.trace.lease_released(self.core_id, entry.line, "expired")
        if entry.group is not None:
            self._release_group(entry.group, voluntary=False,
                                count_involuntary=False)
        else:
            self._release_entry(entry, voluntary=False)

    # ------------------------------------------------------------------
    # Probe interception
    # ------------------------------------------------------------------

    def try_queue_probe(self, probe: "Probe") -> bool:
        """Called by the memory unit for every incoming probe.  Returns True
        if the probe was queued behind a lease (the manager now owns its
        reply); False if it should be serviced normally."""
        entry = self.table.get(probe.line)
        if entry is None or not entry.holds_line:
            return False
        if (not probe.requester_is_lease
                and self.config.prioritize_regular_requests):
            # Section 5 prioritization: a regular request breaks the lease.
            self.trace.lease_released(self.core_id, probe.line,
                                          "broken")
            if entry.group is not None:
                self._release_group(entry.group, voluntary=False,
                                    count_involuntary=False)
            else:
                self._release_entry(entry, voluntary=False)
            return False  # memunit applies the probe immediately
        if entry.queued_probe is not None:
            # Proposition 1 guarantees at most one serviced request per line;
            # a second probe here means the directory protocol is broken.
            raise LeaseError(
                f"core {self.core_id}: second probe queued on leased line "
                f"{probe.line}")
        entry.queued_probe = probe
        # The queued probe takes its own pin reference: the line must stay
        # resident until the probe is applied at release time.
        self.memunit.l1.pin(probe.line)
        self.trace.lease_probe_queued(self.core_id, probe.line)
        return True

    # ------------------------------------------------------------------
    # Multi-location leases (Algorithm 2)
    # ------------------------------------------------------------------

    def multilease(self, addrs: tuple[int, ...], time: int,
                   done: Callable[[], None]) -> None:
        """``MultiLease(num, time, addr1, ...)``: jointly lease the lines of
        ``addrs``.  Releases all held leases first; ignored if the group
        would exceed MAX_NUM_LEASES."""
        self.release_all()
        lines = sorted({self.amap.line_of(a) for a in addrs})
        ignored = len(lines) > self.config.max_num_leases
        self.trace.multilease(self.core_id, len(lines), ignored)
        if ignored:
            done()
            return
        duration = min(time, self.config.max_lease_time)
        if self.config.multilease_mode == "software":
            self._software_multilease(lines, duration, done)
        else:
            self._hardware_multilease(lines, duration, done)

    def _hardware_multilease(self, lines: list[int], duration: int,
                             done: Callable[[], None]) -> None:
        """Acquire exclusive ownership of every line in global (address)
        sort order, waiting for each grant before requesting the next; the
        countdown timers start jointly once the whole group is held."""
        group = LeaseGroup(tuple(lines))
        self.active_group = group
        entries = tuple(LeaseEntry(line, duration, group) for line in lines)
        for e in entries:
            self.table.add(e)
        self._pending = _PendingAcquire("hw", entries, done, group)
        self._hw_step()

    def _hw_step(self) -> None:
        """One step of the hardware MultiLease walk: abort if the group
        died, start all counters together once every line is held, else
        acquire the next line in global sort order."""
        p = self._pending
        if p.group.dead:
            self._finish_pending()
            return
        if p.index == len(p.entries):
            # Whole group granted: start all counters together.
            for e in p.entries:
                if not e.dead:
                    self._start_timer(e)
            self._finish_pending()
            return
        self._acquire_current()

    def _software_multilease(self, lines: list[int], duration: int,
                             done: Callable[[], None]) -> None:
        """Emulate MultiLease with single-location leases: acquire in sorted
        order with staggered timeouts -- the j-th (outer) lease runs for
        ``time + (n-1-j) * X`` so that, heuristically, all leases overlap for
        ``time`` cycles.  Joint holding is *not* guaranteed."""
        stagger = self.config.software_stagger_cycles
        n = len(lines)
        entries = tuple(
            LeaseEntry(line, min(duration + (n - 1 - j) * stagger,
                                 self.config.max_lease_time))
            for j, line in enumerate(lines)
        )
        for e in entries:
            self.table.add(e)
        self._pending = _PendingAcquire("sw", entries, done)
        self._sw_step()

    def _sw_step(self) -> None:
        """One step of the software-emulated MultiLease walk: skip entries
        released while waiting, then charge the per-address bookkeeping
        before acquiring the next line."""
        p = self._pending
        while p.index < len(p.entries) and p.entries[p.index].dead:
            p.index += 1
        if p.index == len(p.entries):
            self._finish_pending()
            return
        # The emulation runs as ordinary instructions: charge the
        # per-address software bookkeeping before each acquisition.
        self.sim.after(self.config.software_multilease_overhead_cycles,
                       self._sw_acquire_step)

    def _sw_acquire_step(self) -> None:
        self._acquire_current()

    def _release_group(self, group: LeaseGroup, *, voluntary: bool,
                       count_involuntary: bool = False) -> None:
        """Release every member of a MultiLease group at once."""
        group.dead = True
        if self.active_group is group:
            self.active_group = None
        released = []
        for line in group.lines:
            entry = self.table.get(line)
            if entry is not None and entry.group is group:
                self._unlink_entry(entry)
                if entry.started:
                    if voluntary:
                        self.trace.lease_released(
                            self.core_id, entry.line, "voluntary")
                    elif count_involuntary:
                        self.trace.lease_released(
                            self.core_id, entry.line, "expired")
                released.append(entry)
        for entry in released:
            self._drain_probe(entry)

    # ------------------------------------------------------------------
    # Checkpointing (repro.state)
    # ------------------------------------------------------------------

    def state_dict(self, codec) -> dict:
        """Table entries in FIFO order, the active group, predictor stats
        and the in-flight acquisition.  Everything object-shaped goes
        through the identity pool: restore must preserve entry identity
        (releases remove by identity) and pin refcounts exactly."""
        return {
            "table": [codec.encode(e) for e in self.table.entries()],
            "active_group": codec.encode(self.active_group),
            "site_stats": [[site, list(v)]
                           for site, v in self.site_stats.items()],
            "pending": codec.encode(self._pending),
        }

    def load_state(self, state: dict, codec) -> None:
        self.table.load_entries(
            codec.decode(e) for e in state["table"])
        self.active_group = codec.decode(state["active_group"])
        self.site_stats = {site: list(v)
                           for site, v in state["site_stats"]}
        self._pending = codec.decode(state["pending"])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def is_leased(self, addr: int) -> bool:
        entry = self.table.get(self.amap.line_of(addr))
        return entry is not None and entry.holds_line
