"""Simulator run loop: clock, budgets, quiescence, scheduling rules."""

import pytest

from repro.config import MachineConfig
from repro.core.isa import Store
from repro.core.machine import Machine
from repro.engine import Simulator
from repro.errors import SimulationError, SimulationTimeout


def test_clock_advances_to_event_times():
    sim = Simulator()
    seen = []
    sim.at(10, lambda: seen.append(sim.now))
    sim.at(25, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [10, 25]
    assert sim.now == 25


def test_after_is_relative():
    sim = Simulator()
    seen = []

    def first():
        sim.after(5, lambda: seen.append(sim.now))

    sim.at(10, first)
    sim.run()
    assert seen == [15]


def test_cannot_schedule_into_the_past():
    sim = Simulator()
    sim.at(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(5, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.after(-1, lambda: None)


def test_until_stops_and_preserves_pending():
    sim = Simulator()
    seen = []
    sim.at(10, lambda: seen.append("a"))
    sim.at(100, lambda: seen.append("b"))
    sim.run(until=50)
    assert seen == ["a"]
    assert sim.now == 50
    sim.run()
    assert seen == ["a", "b"]


def test_until_advances_clock_when_queue_drains():
    """The queue emptying before the horizon must not strand the clock at
    the last event: run(until=N) means 'simulate N cycles'."""
    sim = Simulator()
    sim.at(10, lambda: None)
    assert sim.run(until=50) == 50
    assert sim.now == 50


def test_until_on_empty_queue_advances_clock():
    sim = Simulator()
    assert sim.run(until=30) == 30
    assert sim.now == 30


def test_until_in_the_past_never_moves_clock_backwards():
    sim = Simulator()
    sim.at(40, lambda: None)
    sim.run()
    assert sim.now == 40
    assert sim.run(until=10) == 40
    assert sim.now == 40


def test_quiescence_beats_until_horizon():
    """Quiescence stops the run first: the clock stays at the last
    processed event, not the horizon."""
    sim = Simulator()
    done = []
    sim.quiescent = lambda: bool(done)
    sim.at(5, lambda: (done.append(True), sim.notify_quiescence()))
    sim.run(until=100)
    assert sim.now == 5


def test_deferred_event_fires_after_resume():
    """An event beyond the horizon keeps its (time, seq) slot: scheduling
    more work before resuming must not reorder same-time events."""
    sim = Simulator()
    seen = []
    sim.at(100, lambda: seen.append("first"))
    sim.run(until=50)
    assert sim.now == 50 and seen == []
    sim.at(100, lambda: seen.append("second"))
    sim.run()
    assert seen == ["first", "second"]
    assert sim.now == 100


def test_incremental_until_equals_single_run():
    """Stepping the horizon forward in chunks processes the same events in
    the same order as one uninterrupted run."""
    def build():
        sim = Simulator()
        seen = []
        for t in (3, 7, 7, 12, 30):
            sim.at(t, lambda t=t: seen.append((sim.now, t)))
        return sim, seen

    sim_a, seen_a = build()
    sim_a.run()
    sim_b, seen_b = build()
    for horizon in (5, 7, 10, 29, 31, 40):
        sim_b.run(until=horizon)
        assert sim_b.now == horizon
    assert seen_a == seen_b


def test_max_events_budget():
    sim = Simulator(max_events=100)

    def tick():
        sim.after(1, tick)

    sim.at(0, tick)
    with pytest.raises(SimulationTimeout) as exc:
        sim.run()
    assert exc.value.events == 101


def test_max_cycles_budget():
    sim = Simulator(max_cycles=1000)
    sim.at(2000, lambda: None)
    with pytest.raises(SimulationTimeout):
        sim.run()


def test_timeouts_leave_events_processed_as_reported():
    """Both budgets leave ``events_processed`` at the count the timeout
    reports: max_events + 1 when the event budget trips."""
    sim = Simulator(max_events=100)

    def tick():
        sim.after(1, tick)

    sim.at(0, tick)
    with pytest.raises(SimulationTimeout) as exc:
        sim.run()
    assert sim.events_processed == exc.value.events == 101

    sim = Simulator(max_cycles=1000)
    for t in (10, 20, 2000):
        sim.at(t, lambda: None)
    with pytest.raises(SimulationTimeout) as exc:
        sim.run()
    assert sim.events_processed == exc.value.events == 2
    assert exc.value.cycle == 2000


def test_until_past_max_cycles():
    """An event past both ``until`` and ``max_cycles`` is deferred; one
    between them times out."""
    sim = Simulator(max_cycles=1000)
    sim.at(6000, lambda: None)
    assert sim.run(until=5000) == 5000
    sim = Simulator(max_cycles=1000)
    sim.at(2000, lambda: None)
    with pytest.raises(SimulationTimeout):
        sim.run(until=5000)


def test_quiescence_stops_early():
    sim = Simulator()
    seen = []
    done = []
    sim.quiescent = lambda: bool(done)
    sim.at(1, lambda: (seen.append(1), done.append(True),
                       sim.notify_quiescence()))
    sim.at(1000, lambda: seen.append(2))   # never fires: quiescent first
    sim.run()
    assert seen == [1]


def test_cancel_through_simulator():
    sim = Simulator()
    seen = []
    ev = sim.queue.schedule_cancellable(5, lambda: seen.append(1))
    sim.cancel(ev)
    sim.run()
    assert seen == []


def test_run_not_reentrant():
    sim = Simulator()
    err = []

    def inner():
        try:
            sim.run()
        except SimulationError as e:
            err.append(e)

    sim.at(1, inner)
    sim.run()
    assert len(err) == 1


def test_rng_is_seeded():
    a = Simulator(seed=42).rng.random()
    b = Simulator(seed=42).rng.random()
    c = Simulator(seed=43).rng.random()
    assert a == b
    assert a != c


def test_events_processed_counter():
    sim = Simulator()
    for i in range(7):
        sim.at(i, lambda: None)
    sim.run()
    assert sim.events_processed == 7


# ---------------------------------------------------------------------------
# Machine-level run loop: run(until) slicing
# ---------------------------------------------------------------------------

def _storm(cores: int, rounds: int) -> Machine:
    """Every core stores to one line: the densest invalidation traffic."""
    m = Machine(MachineConfig(num_cores=cores))
    addr = m.alloc_var(0, label="test.storm")

    def body(ctx):
        for i in range(rounds):
            yield Store(addr, i)
        ctx.note_op()

    for _ in range(cores):
        m.add_thread(body)
    return m


def test_incremental_machine_until_equals_single_run():
    whole = _storm(3, 4)
    whole.run()
    sliced = _storm(3, 4)
    t = 0
    while sliced.idle_cores < sliced.config.num_cores:
        t += 53
        sliced.run(until=t)
    assert sliced.result("x") == whole.result("x")
    assert sliced.sim.events_processed == whole.sim.events_processed


def test_deferred_probe_storm_is_deterministic():
    """Two cores storming one line defer a probe behind nearly every data
    arrival: the probe is applied after the waiting access commits.  Two
    runs of that schedule must agree field for field."""
    a, b = _storm(2, 3), _storm(2, 3)
    a.run()
    b.run()
    # The workload must actually defer probes for the check to mean much.
    assert a.counters.probes_deferred_mid_access > 0
    assert a.result("x") == b.result("x")
    assert a.sim.events_processed == b.sim.events_processed
