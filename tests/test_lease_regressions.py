"""Regression tests for the lease-manager bookkeeping bugs fixed in this
PR: stale grants evicting a re-leased line, phantom FIFO release events
for never-started leases, and pin-reference miscounting (now a refcount
with a hard underflow error and an exact invariant-checker audit).
"""

import pytest

from conftest import make_machine

from repro import (CAS, InvariantTracer, Lease, Load, MultiLease,
                   ProtocolError, Release, ReleaseAll, Store, Work)


# -- satellite 1: stale grant on a dead entry --------------------------------

class TestStaleGrantAfterReLease:
    def test_stale_grant_does_not_evict_new_tenant(self):
        """A release kills an entry while its grant is in flight; the core
        re-leases the same line; then the stale grant lands.  The dead
        entry must be removed by *identity* -- the new tenant stays."""
        from repro.lease.table import LeaseEntry

        m = make_machine(2)
        mgr = m.cores[0].lease_mgr
        line = 0x40

        old = LeaseEntry(line, 100)
        mgr.table.add(old)
        mgr._unlink_entry(old)              # release path: dead + removed
        assert old.dead and mgr.table.get(line) is None

        new = LeaseEntry(line, 100)         # same line, re-leased
        mgr.table.add(new)
        mgr._granted(old)                   # the stale grant lands now
        # The buggy line-keyed removal deleted `new` here.
        assert mgr.table.get(line) is new
        assert not new.dead

    def test_stale_grant_leaves_no_pin(self):
        """The dead entry's grant must not leak a pin reference."""
        m = make_machine(2)
        addr = m.alloc_var(0)
        mgr = m.cores[0].lease_mgr
        line = m.amap.line_of(addr)

        mgr.lease(addr, 5_000, lambda: None)
        mgr.release_all()
        m.run()
        assert m.cores[0].memunit.l1.pin_count(line) == 0

    def test_release_then_relase_under_invariants(self):
        """The same interleaving through real instructions, audited by the
        (now exact) invariant checker on every event."""
        m = make_machine(2)
        checker = m.attach_tracer(InvariantTracer())
        a, b = m.alloc_var(0), m.alloc_var(0)

        def worker(ctx):
            for _ in range(5):
                yield MultiLease((a, b), 2_000)
                yield Store(a, 1)
                yield ReleaseAll()
                yield Lease(a, 2_000)
                yield Store(a, 2)
                yield Release(a)

        m.add_thread(worker)
        m.add_thread(worker)
        m.run()
        m.check_coherence_invariants()
        assert checker.checks_run > 0


# -- satellite 2: FIFO eviction of a never-started lease ----------------------

class TestFifoReleaseCounterParity:
    def test_started_fifo_eviction_counts_once(self):
        m = make_machine(1, max_num_leases=2)
        a, b, c = (m.alloc_var(0) for _ in range(3))

        def t0(ctx):
            yield Lease(a, 10_000)
            yield Lease(b, 10_000)
            yield Lease(c, 10_000)     # evicts a (started)
            yield ReleaseAll()

        m.add_thread(t0)
        m.run()
        assert m.counters.releases_fifo_eviction == 1

    def test_unstarted_fifo_eviction_is_not_counted(self):
        """Evicting an in-flight (never-started) oldest entry must not
        emit a ``fifo`` release: counter parity with every other release
        path, which all guard on ``entry.started``."""
        from repro.lease.table import LeaseEntry

        m = make_machine(1, max_num_leases=1)
        b = m.alloc_var(0)
        mgr = m.cores[0].lease_mgr
        in_flight = LeaseEntry(m.amap.line_of(b) + 7, 10_000)
        mgr.table.add(in_flight)              # grant still in flight
        assert not in_flight.started

        mgr.lease(b, 10_000, lambda: None)    # table full: evicts it
        assert in_flight.dead
        m.run()
        assert m.counters.releases_fifo_eviction == 0
        # The evictee contributes no release event of any kind.
        assert m.counters.releases_voluntary == 0


# -- satellite 3: pin refcounting ---------------------------------------------

class TestPinRefcount:
    def test_unpin_underflow_raises(self):
        m = make_machine(1)
        l1 = m.cores[0].memunit.l1
        with pytest.raises(ProtocolError, match="unpin underflow"):
            l1.unpin(0x40)

    def test_refcount_pairs_pin_and_unpin(self):
        m = make_machine(1)
        l1 = m.cores[0].memunit.l1
        l1.pin(0x40)
        l1.pin(0x40)
        assert l1.pin_count(0x40) == 2 and l1.is_pinned(0x40)
        l1.unpin(0x40)
        assert l1.pin_count(0x40) == 1 and l1.is_pinned(0x40)
        l1.unpin(0x40)
        assert l1.pin_count(0x40) == 0 and not l1.is_pinned(0x40)
        with pytest.raises(ProtocolError):
            l1.unpin(0x40)

    def test_queued_probe_holds_second_reference(self):
        """While a rival's probe is queued behind a lease the line carries
        two pin references (lease + probe); both drop at release."""
        m = make_machine(2, prioritize_regular_requests=False)
        addr = m.alloc_var(0)
        line = m.amap.line_of(addr)
        l1 = m.cores[0].memunit.l1
        counts = {}

        def holder(ctx):
            yield Lease(addr, 10_000)
            counts["held"] = l1.pin_count(line)
            yield Work(4_000)                  # rival's store queues here
            counts["queued"] = l1.pin_count(line)
            yield Release(addr)
            counts["released"] = l1.pin_count(line)

        def rival(ctx):
            yield Work(2_000)                  # well after the grant
            yield Store(addr, "rival")

        m.add_thread(holder)
        m.add_thread(rival)
        m.run()
        assert m.counters.probes_queued_at_core == 1
        assert counts["held"] == 1
        assert counts["queued"] == 2
        assert counts["released"] == 0

    def test_contended_run_passes_exact_pin_audit(self):
        """The invariant checker now demands pins == (granted live leases
        + queued probes), exactly, on every event of a contended run."""
        m = make_machine(4)
        checker = m.attach_tracer(InvariantTracer())
        addr = m.alloc_var(0)

        def worker(ctx):
            for _ in range(10):
                yield Lease(addr, 5_000)
                v = yield Load(addr)
                ok = yield CAS(addr, v, v + 1)
                yield Release(addr)
                assert ok

        for _ in range(4):
            m.add_thread(worker)
        m.run()
        assert m.peek(addr) == 40
        assert checker.checks_run > 0


# -- expiring timers ----------------------------------------------------------

def _expiring(multi: bool, cores: int = 2, rounds: int = 50):
    """Every lease outlives its 50-cycle timer, so each one expires."""
    m = make_machine(cores)
    a, b = m.alloc_var(0), m.alloc_var(0)

    def worker(ctx):
        for i in range(rounds):
            yield MultiLease((a, b), 50) if multi else Lease(a, 50)
            yield Store(a, i)
            yield Work(400)
            yield ReleaseAll() if multi else Release(a)

    for _ in range(cores):
        m.add_thread(worker)
    return m


class TestExpiredTimer:
    """An expiring lease used to cancel its own timer -- the very event
    that was running -- through ``_expire`` -> ``_release_entry`` ->
    ``_unlink_entry``.  Each expiry drove the queue's live count one
    further below the number of pending events."""

    @pytest.mark.parametrize("multi", [False, True])
    def test_queue_length_counts_pending_events(self, multi):
        from repro.state.codec import SnapshotCodec

        m = _expiring(multi)
        while m.idle_cores < m.config.num_cores:
            m.run(until=m.now + 700)
            pending = m.sim.queue.state_dict(SnapshotCodec(m))["events"]
            assert len(m.sim.queue) == len(pending)
        assert m.counters.releases_involuntary >= 100
        assert len(m.sim.queue) == 0

    @pytest.mark.parametrize("multi", [False, True])
    def test_no_cancel_touches_a_fired_timer(self, multi, monkeypatch):
        from repro.engine import Simulator
        from repro.lease.manager import LeaseManager

        fired = []
        expire, cancel = LeaseManager._expire, Simulator.cancel

        def spy_expire(mgr, entry):
            fired.append(entry.expiry_event)
            expire(mgr, entry)

        def spy_cancel(sim, ev):
            assert all(ev is not f for f in fired), "cancelled a fired timer"
            cancel(sim, ev)

        monkeypatch.setattr(LeaseManager, "_expire", spy_expire)
        monkeypatch.setattr(Simulator, "cancel", spy_cancel)
        m = _expiring(multi)
        m.run()
        assert len(fired) >= 100
