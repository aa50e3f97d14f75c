"""EventQueue: ordering, cancellation, determinism.

Pops return the heap entry ``(time, pri, seq, fn, args)``; only
``schedule_cancellable`` returns a handle that ``cancel`` takes.
"""

import pytest
from hypothesis import given, strategies as st

from repro.engine import EventQueue
from repro.errors import SimulationError


def _fire_all(q):
    while (entry := q.pop()) is not None:
        _, _, _, fn, args = entry
        fn(*args)


def test_pops_in_time_order():
    q = EventQueue()
    fired = []
    for t in (5, 1, 3, 2, 4):
        q.schedule(t, fired.append, t)
    _fire_all(q)
    assert fired == [1, 2, 3, 4, 5]


def test_fifo_within_same_time():
    q = EventQueue()
    order = []
    for i in range(10):
        q.schedule(7, order.append, i)
    _fire_all(q)
    assert order == list(range(10))


def test_cancel_skips_event():
    q = EventQueue()
    fired = []
    ev = q.schedule_cancellable(1, fired.append, "a")
    q.schedule(2, fired.append, "b")
    q.cancel(ev)
    _fire_all(q)
    assert fired == ["b"]


def test_cancel_twice_is_noop():
    q = EventQueue()
    ev = q.schedule_cancellable(1, lambda: None)
    q.cancel(ev)
    q.cancel(ev)
    assert len(q) == 0


def test_len_counts_live_events():
    q = EventQueue()
    evs = [q.schedule_cancellable(i, lambda: None) for i in range(5)]
    assert len(q) == 5
    q.cancel(evs[2])
    assert len(q) == 4
    q.pop()
    assert len(q) == 3


def test_peek_time_skips_cancelled():
    q = EventQueue()
    ev1 = q.schedule_cancellable(1, lambda: None)
    q.schedule(9, lambda: None)
    q.cancel(ev1)
    assert q.peek_time() == 9


def test_peek_time_empty():
    assert EventQueue().peek_time() is None


def test_pop_empty_returns_none():
    assert EventQueue().pop() is None


def test_negative_time_rejected():
    with pytest.raises(SimulationError):
        EventQueue().schedule(-1, lambda: None)
    with pytest.raises(SimulationError):
        EventQueue().schedule_cancellable(-1, lambda: None)


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=200))
def test_property_pop_order_is_stable_sort(times):
    """Events come out sorted by time, ties broken by insertion order."""
    q = EventQueue()
    for i, t in enumerate(times):
        q.schedule(t, lambda: None)
    out = []
    while (entry := q.pop()) is not None:
        time, _, seq, _, _ = entry
        out.append((time, seq))
    expected = sorted((t, i) for i, t in enumerate(times))
    assert out == expected


@given(st.lists(st.tuples(st.integers(0, 100), st.booleans()), max_size=100))
def test_property_cancellation_filters(entries):
    """Cancelled events never fire; the rest fire in stable order."""
    q = EventQueue()
    evs = []
    for t, keep in entries:
        evs.append((q.schedule_cancellable(t, lambda: None), keep))
    for ev, keep in evs:
        if not keep:
            q.cancel(ev)
    out = []
    while (entry := q.pop()) is not None:
        time, _, seq, _, _ = entry
        out.append((time, seq))
    expected = sorted((ev.time, ev.seq) for ev, keep in evs if keep)
    assert out == expected


@given(st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 50)),
    st.tuples(st.just("cancel"), st.integers(0, 200)),
    st.tuples(st.just("pop"), st.just(0)),
    st.tuples(st.just("peek"), st.just(0)),
), max_size=300))
def test_property_interleaved_ops_stay_consistent(ops):
    """Under any interleaving of schedule/cancel/pop/peek the queue agrees
    with a naive model: len() counts live events, heap_size never lies
    below it, pops come out in (time, seq) order, and peek_time always
    names the next live event's time."""
    q = EventQueue()
    live: dict[int, int] = {}         # seq -> time
    pending = []                      # scheduled, not yet popped
    for op, arg in ops:
        if op == "schedule":
            ev = q.schedule_cancellable(arg, lambda: None)
            pending.append(ev)
            live[ev.seq] = arg
        elif op == "cancel" and pending:
            ev = pending[arg % len(pending)]
            q.cancel(ev)              # double cancels must be no-ops...
            live.pop(ev.seq, None)    # ...so the model only forgets once
        elif op == "pop":
            entry = q.pop()
            if entry is None:
                assert not live
            else:
                time, _, seq, _, _ = entry
                # The pop must be the (time, seq)-minimal live event.
                assert (time, seq) == min(
                    (t, s) for s, t in live.items())
                del live[seq]
                pending[:] = [ev for ev in pending if ev.seq != seq]
        elif op == "peek":
            t = q.peek_time()
            assert t == (min(live.values()) if live else None)
        assert len(q) == len(live)
        assert q.heap_size >= len(q)
    # Drain: whatever is still live comes out in (time, seq) order.
    drained = []
    while (entry := q.pop()) is not None:
        time, _, seq, _, _ = entry
        assert live.pop(seq) == time
        drained.append((time, seq))
    assert not live
    assert drained == sorted(drained)


# -- lazy-cancel compaction -------------------------------------------------

def test_compaction_keeps_heap_bounded():
    """Schedule/cancel churn must not grow the physical heap without bound:
    once dead entries dominate, the queue compacts in place."""
    q = EventQueue()
    keep = q.schedule_cancellable(10**6, lambda: None)
    for i in range(10_000):
        ev = q.schedule_cancellable(i + 1, lambda: None)
        q.cancel(ev)
        assert q.heap_size <= max(2 * len(q), EventQueue.COMPACT_MIN_DEAD + 2)
    assert len(q) == 1
    assert q.heap_size < 100
    assert q.pop()[2] == keep.seq


def test_compaction_preserves_pop_order():
    q = EventQueue()
    events = [q.schedule_cancellable(t, lambda: None) for t in range(500)]
    for ev in events[::2]:
        q.cancel(ev)                 # forces several compactions
    out = []
    while (entry := q.pop()) is not None:
        time, _, seq, _, _ = entry
        out.append((time, seq))
    assert out == sorted((e.time, e.seq) for e in events[1::2])


def test_cancel_twice_after_compaction_is_noop():
    q = EventQueue()
    evs = [q.schedule_cancellable(t, lambda: None) for t in range(200)]
    for ev in evs[:150]:
        q.cancel(ev)
    for ev in evs[:150]:
        q.cancel(ev)                 # double-cancel must not revive a seq
    assert len(q) == 50
