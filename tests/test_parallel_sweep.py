"""Sweep execution: parallel sweeps return what serial sweeps return,
deterministically, and every finished cell's machine is freed."""

import gc
import weakref

import pytest

from repro.harness.runner import sweep
from repro.harness.experiments import run_experiment
from repro.state import hooks
from repro.trace import NullTracer, RingBufferTracer
from repro.workloads.driver import bench_stack


VARIANTS = {"base": {"variant": "base"}, "lease": {"variant": "lease"}}


def test_parallel_sweep_equals_serial():
    serial = sweep(bench_stack, VARIANTS, (2, 4), ops_per_thread=15)
    parallel = sweep(bench_stack, VARIANTS, (2, 4), jobs=4,
                     ops_per_thread=15)
    # RunResult equality covers every field including the full counter
    # snapshot, so this is a bit-level determinism check.
    assert serial == parallel
    assert gc.get_freeze_count() == 0


def test_parallel_sweep_preserves_cell_order():
    res = sweep(bench_stack, VARIANTS, (4, 2), jobs=2, ops_per_thread=10)
    assert list(res) == ["base", "lease"]
    assert [r.num_threads for r in res["base"]] == [4, 2]
    assert [r.num_threads for r in res["lease"]] == [4, 2]


def test_run_experiment_jobs_passthrough():
    serial = run_experiment("fig2_stack", thread_counts=(2,),
                            ops_per_thread=10)
    parallel = run_experiment("fig2_stack", thread_counts=(2,), jobs=2,
                              ops_per_thread=10)
    assert serial == parallel


def test_sweep_rejects_sinks_with_jobs():
    with pytest.raises(ValueError, match="sinks"):
        sweep(bench_stack, VARIANTS, (2, 4), jobs=2,
              sinks=[RingBufferTracer()])


def test_sweep_rejects_sinks_hidden_in_variant_kwargs():
    # Sinks smuggled into one variant's kwargs (not the sweep-wide common
    # kwargs) must hit the same clear error, not a pickling failure.
    variants = {"base": {"variant": "base"},
                "traced": {"variant": "lease",
                           "sinks": [RingBufferTracer()]}}
    with pytest.raises(ValueError, match="sinks"):
        sweep(bench_stack, variants, (2, 4), jobs=2, ops_per_thread=10)


def test_sweep_allows_empty_sinks_with_jobs():
    # An explicit empty/None sinks entry is harmless and must not trip
    # the guard.
    variants = {"base": {"variant": "base", "sinks": None}}
    res = sweep(bench_stack, variants, (2, 4), jobs=2, ops_per_thread=10)
    assert [r.num_threads for r in res["base"]] == [2, 4]


def test_single_cell_sweep_stays_serial():
    # One cell: nothing to parallelize; sinks are allowed even with jobs>1.
    ring = RingBufferTracer()
    res = sweep(bench_stack, {"base": {"variant": "base"}}, (2,), jobs=4,
                ops_per_thread=10, sinks=[ring])
    assert ring.total > 0
    assert res["base"][0].ops == 20


@pytest.fixture
def collector_off():
    """Automatic collection off, so only the sweep's own collection can
    free a finished cell's machine (a web of reference cycles).  The test
    body asserts before collection is turned back on: turning it on first
    can trigger a full collection that hides a leak."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


class _MachineRefs(NullTracer):
    """Drops every event; keeps a weak reference to each machine it is
    attached to."""

    def __init__(self) -> None:
        self.refs: list[weakref.ref] = []

    def bind(self, machine) -> None:
        self.refs.append(weakref.ref(machine))


def test_hooked_cells_are_freed(collector_off, monkeypatch):
    refs = []

    def hook(m):
        refs.append(weakref.ref(m))
        m.run()

    monkeypatch.setattr(hooks, "run_hook", hook)
    sweep(bench_stack, VARIANTS, (2,), ops_per_thread=5)
    assert len(refs) == 2
    assert [r() for r in refs] == [None, None]
    assert gc.get_freeze_count() == 0


def test_unhooked_cells_are_freed(collector_off):
    assert hooks.run_hook is None
    sink = _MachineRefs()
    sweep(bench_stack, VARIANTS, (2,), ops_per_thread=5, sinks=[sink])
    assert len(sink.refs) == 2
    assert [r() for r in sink.refs] == [None, None]
    assert gc.get_freeze_count() == 0


def test_raising_cell_unfreezes(monkeypatch):
    def hook(m):
        raise RuntimeError("cell failed")

    monkeypatch.setattr(hooks, "run_hook", hook)
    with pytest.raises(RuntimeError, match="cell failed"):
        sweep(bench_stack, VARIANTS, (2,), ops_per_thread=5)
    assert gc.get_freeze_count() == 0
