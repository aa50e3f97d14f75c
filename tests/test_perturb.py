"""Schedule perturbation: the ScheduleStrategy hook and its strategies."""

import pytest

from repro.engine import EventQueue, ScheduleStrategy
from repro.check.perturb import (PctStrategy, RandomStrategy, ReplayStrategy,
                                 owner_core, strategy_for_schedule)


def _drain(q):
    """Pop every live entry: ``(time, pri, seq, fn, args)`` tuples."""
    out = []
    while (entry := q.pop()) is not None:
        out.append(entry)
    return out


# -- hook basics --------------------------------------------------------------

def test_no_strategy_all_priorities_zero():
    q = EventQueue()
    for i in range(5):
        q.schedule(3, lambda: None)
    assert all(pri == 0 for _, pri, _, _, _ in _drain(q))


def test_default_strategy_is_identity():
    """The base ScheduleStrategy assigns 0 everywhere: same order as none."""
    plain, hooked = EventQueue(), EventQueue(ScheduleStrategy())
    for t in (4, 1, 4, 4, 2, 1):
        plain.schedule(t, lambda: None)
        hooked.schedule(t, lambda: None)
    assert ([(t, seq) for t, _, seq, _, _ in _drain(plain)]
            == [(t, seq) for t, _, seq, _, _ in _drain(hooked)])


def test_strategy_only_reorders_same_timestamp():
    """Nonzero priorities must never move an event across timestamps."""

    class Always9(ScheduleStrategy):
        def priority(self, seq, fn, args):
            return 9 if seq % 2 else 0

    q = EventQueue(Always9())
    for t in (5, 5, 1, 1, 3, 3):
        q.schedule(t, lambda: None)
    times = [t for t, _, _, _, _ in _drain(q)]
    assert times == sorted(times)


def test_strategy_reorders_ties_by_priority():
    class BySeqReversed(ScheduleStrategy):
        def priority(self, seq, fn, args):
            return -seq           # later-scheduled first

    q = EventQueue(BySeqReversed())
    for i in range(6):
        q.schedule(7, lambda: None)
    assert [seq for _, _, seq, _, _ in _drain(q)] == [5, 4, 3, 2, 1, 0]


# -- RandomStrategy / ReplayStrategy ------------------------------------------

def test_random_strategy_is_seed_deterministic():
    def order(seed):
        q = EventQueue(RandomStrategy(seed, rate=0.5))
        for i in range(40):
            q.schedule(2, lambda: None)
        return [seq for _, _, seq, _, _ in _drain(q)]

    assert order(11) == order(11)
    assert order(11) != order(12)


def test_random_strategy_perturbs_some_schedule():
    perturbed = False
    for seed in range(5):
        q = EventQueue(RandomStrategy(seed, rate=0.5))
        for _ in range(30):
            q.schedule(1, lambda: None)
        if [seq for _, _, seq, _, _ in _drain(q)] != list(range(30)):
            perturbed = True
            break
    assert perturbed


def test_replay_reproduces_random_run():
    rand = RandomStrategy(99, rate=0.5)
    q1 = EventQueue(rand)
    for i in range(50):
        q1.schedule(i % 3, lambda: None)
    order1 = [(t, seq) for t, _, seq, _, _ in _drain(q1)]
    assert rand.decisions, "expected some perturbation at rate=0.5"

    q2 = EventQueue(ReplayStrategy(rand.decisions))
    for i in range(50):
        q2.schedule(i % 3, lambda: None)
    assert [(t, seq) for t, _, seq, _, _ in _drain(q2)] == order1


def test_empty_replay_equals_default_order():
    q1, q2 = EventQueue(), EventQueue(ReplayStrategy({}))
    for t in (2, 0, 2, 1, 0):
        q1.schedule(t, lambda: None)
        q2.schedule(t, lambda: None)
    assert ([(t, seq) for t, _, seq, _, _ in _drain(q1)]
            == [(t, seq) for t, _, seq, _, _ in _drain(q2)])


# -- PCT strategy -------------------------------------------------------------

class _Owner:
    def __init__(self, core_id):
        self.core_id = core_id

    def cb(self):
        pass


def test_owner_core_extraction():
    assert owner_core(_Owner(3).cb) == 3
    assert owner_core(lambda: None) is None


def test_pct_assigns_stable_per_core_priorities():
    strat = PctStrategy(5, depth=0)
    a, b = _Owner(0), _Owner(1)
    q = EventQueue(strat)
    for i in range(8):
        q.schedule(1, (a if i % 2 else b).cb)
    evs = [(owner_core(fn), pri) for _, pri, _, fn, _ in _drain(q)]
    pris = dict(evs)
    assert set(pris) == {0, 1}
    for core, pri in evs:             # same core -> same priority throughout
        assert pri == pris[core]


def test_pct_leaves_unowned_events_alone():
    q = EventQueue(PctStrategy(5, depth=3))
    q.schedule(1, lambda: None)
    _, pri, _, _, _ = q.pop()
    assert pri == 0


def test_pct_is_seed_deterministic():
    def pris(seed):
        strat = PctStrategy(seed, depth=2, horizon=16)
        q = EventQueue(strat)
        owners = [_Owner(i % 4) for i in range(4)]
        for i in range(32):
            q.schedule(1, owners[i % 4].cb)
        return [pri for _, pri, _, _, _ in sorted(_drain(q),
                                                  key=lambda e: e[2])]

    assert pris(3) == pris(3)


def test_strategy_for_schedule_alternates_and_derives():
    s1 = strategy_for_schedule(7, 1)
    s2 = strategy_for_schedule(7, 2)
    assert isinstance(s1, RandomStrategy)
    assert isinstance(s2, PctStrategy)
    # Deterministic derivation: same (campaign_seed, index) -> same seed.
    assert strategy_for_schedule(7, 1).seed == s1.seed
    assert strategy_for_schedule(8, 1).seed != s1.seed


# -- satellite: compaction boundary -------------------------------------------

def test_compaction_preserves_strategy_order():
    """Cancelling enough events to trigger compaction must keep the
    (time, pri, seq) order a strategy established, and cancellation of
    events that moved during compaction must still work."""

    class Zigzag(ScheduleStrategy):
        def priority(self, seq, fn, args):
            return (7 - seq) % 5

    q = EventQueue(Zigzag())
    events = [q.schedule_cancellable(t % 4, lambda: None)
              for t in range(400)]
    for ev in events[:260]:
        q.cancel(ev)                 # dead > live: forces compaction
    assert q.heap_size < 400         # compaction actually happened
    survivors = events[260:]
    # Scheduling and cancelling across the compaction boundary still works.
    late = q.schedule_cancellable(0, lambda: None)
    q.cancel(survivors[0])
    out = [(t, pri, seq) for t, pri, seq, _, _ in _drain(q)]
    expected = sorted((ev.time, ev.pri, ev.seq)
                      for ev in survivors[1:] + [late])
    assert out == expected


def test_strategy_runs_once_per_schedule_despite_compaction():
    """Compaction must not re-invoke the strategy (which would corrupt a
    replay's decision alignment or consume extra randomness)."""
    calls = []

    class Counting(ScheduleStrategy):
        def priority(self, seq, fn, args):
            calls.append(seq)
            return 1

    q = EventQueue(Counting())
    events = [q.schedule_cancellable(1, lambda: None) for _ in range(300)]
    for ev in events[:250]:
        q.cancel(ev)
    q.schedule(2, lambda: None)
    assert calls == list(range(301))   # exactly one call per schedule()
