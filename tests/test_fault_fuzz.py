"""Fault-injection campaigns and interleaving exploration.

The tentpole guarantee: under injected faults (jitter, NACKs, timer skew,
stragglers) the linearizability checker and the Proposition-1 tracer must
still pass -- faults perturb *timing*, never correctness -- and every
faulty run stays deterministic and replayable through repro-check/1 files.
The interleaving tests drive the release-while-in-flight and
MultiLease-abort paths through the :mod:`repro.check` perturbation
strategies, with and without faults.
"""

import dataclasses
import json

import pytest

from conftest import make_machine

import repro.check.campaign as campaign
from repro import (InvariantTracer, Machine, MachineConfig, MultiLease,
                   ReleaseAll, Store, Work)
from repro.check import (PctStrategy, RandomStrategy, replay_repro,
                         run_campaign)

#: A spec exercising every hook at rates high enough to fire in short runs.
FUZZ_SPEC = "net_jitter:p=0.02,max=120;dir_nack:p=0.01;timer_skew:±8"


# -- campaigns under faults ---------------------------------------------------

@pytest.mark.parametrize("target", ["treiber", "counter", "multilease"])
def test_fault_campaign_passes_checkers(target):
    rep = run_campaign(target, budget=6, seed=11, fault_spec=FUZZ_SPEC)
    assert rep.ok, f"{target}: {rep.failure.kind}: {rep.failure.detail}"
    assert rep.schedules_run == 6
    assert rep.ops_checked > 0


def test_fault_campaign_is_deterministic():
    a = run_campaign("counter", budget=4, seed=5, fault_spec=FUZZ_SPEC)
    b = run_campaign("counter", budget=4, seed=5, fault_spec=FUZZ_SPEC)
    assert a.ok and b.ok
    assert a.per_variant == b.per_variant
    assert a.ops_checked == b.ops_checked


def test_fault_repro_file_round_trips(tmp_path, monkeypatch):
    """A failure found under faults is recorded with its fault spec and
    replays with the same faults installed."""
    import repro.workloads.table as table
    from test_check_campaign import _BrokenTreiberStack

    monkeypatch.setattr(table, "TreiberStack", _BrokenTreiberStack)
    rep = run_campaign("treiber", budget=200, seed=7,
                       fault_spec=FUZZ_SPEC)
    assert not rep.ok
    assert rep.repro["fault_spec"] == FUZZ_SPEC

    path = tmp_path / "repro.json"
    path.write_text(json.dumps(rep.repro))
    out = replay_repro(json.loads(path.read_text()))
    assert not out.ok and out.kind == "linearizability"


def test_faultfree_repro_files_stay_loadable():
    """Backward compatibility: repro-check/1 files written before this PR
    have no ``fault_spec`` key; replay must treat them as fault-free."""
    rep = run_campaign("counter", budget=1, seed=3)
    # Build a minimal pre-PR-style repro by hand from a passing campaign.
    assert rep.ok
    repro = {
        "format": campaign.REPRO_FORMAT,
        "target": "counter",
        "variant": "lease",
        "machine_seed": campaign._machine_seed(3, 0),
        "decisions": {},
        "strategy": {"kind": "replay"},
    }
    out = replay_repro(repro)
    assert out.ok            # no recorded failure to reproduce


# -- interleaving exploration (satellite 5) -----------------------------------

def _multilease_abort_machine(cfg: MachineConfig,
                              strategy=None) -> Machine:
    """Two cores racing so that a regular store breaks a MultiLease group
    while later members' grants are still in flight: the release-while-in-
    flight and MultiLease-abort paths in one workload."""
    m = Machine(cfg, schedule_strategy=strategy)
    a, b, c = m.alloc_var(0), m.alloc_var(0), m.alloc_var(0)

    def leaser(ctx):
        for _ in range(8):
            yield MultiLease((a, b, c), 2_000)
            yield Store(a, 1)
            yield ReleaseAll()
            yield Work(20)

    def breaker(ctx):
        for i in range(40):
            yield Store(a, i)          # regular request: breaks leases
            yield Work(15)

    m.add_thread(leaser)
    m.add_thread(breaker)
    return m


def _abort_cfg(fault_spec: str = "", seed: int = 1) -> MachineConfig:
    cfg = MachineConfig(num_cores=2, seed=seed, fault_spec=fault_spec)
    return dataclasses.replace(
        cfg, lease=dataclasses.replace(
            cfg.lease, enabled=True, prioritize_regular_requests=True))


@pytest.mark.parametrize("fault_spec", ["", FUZZ_SPEC])
@pytest.mark.parametrize("strategy_seed", [1, 2, 3, 4])
def test_multilease_abort_under_perturbation(fault_spec, strategy_seed):
    """Random schedule jitter explores grant/break interleavings; the
    invariant checker audits pins and coherence on every event."""
    cfg = _abort_cfg(fault_spec, seed=strategy_seed)
    m = _multilease_abort_machine(
        cfg, RandomStrategy(strategy_seed, rate=0.3, amplitude=4))
    checker = m.attach_tracer(InvariantTracer())
    m.run()
    m.check_coherence_invariants()
    assert checker.checks_run > 0
    # The workload actually drives the abort path.
    assert m.counters.releases_broken_by_priority > 0


@pytest.mark.parametrize("make_strategy", [
    lambda s: RandomStrategy(s, rate=0.4, amplitude=6),
    lambda s: PctStrategy(s, depth=4),
])
@pytest.mark.parametrize("fault_spec", ["", FUZZ_SPEC])
def test_abort_paths_survive_schedule_strategies(make_strategy, fault_spec):
    hit = 0
    for seed in (1, 2, 3):
        cfg = _abort_cfg(fault_spec, seed=seed)
        m = Machine(cfg, schedule_strategy=make_strategy(seed))
        a, b = m.alloc_var(0), m.alloc_var(0)

        def leaser(ctx):
            for _ in range(6):
                yield MultiLease((a, b), 2_000)
                yield Store(b, 1)
                yield ReleaseAll()

        def breaker(ctx):
            for i in range(30):
                yield Store(a, i)
                yield Work(10)

        m.add_thread(leaser)
        m.add_thread(breaker)
        checker = m.attach_tracer(InvariantTracer())
        m.run()
        m.check_coherence_invariants()
        assert checker.checks_run > 0
        hit += m.counters.releases_broken_by_priority
    assert hit > 0      # across seeds the break/abort path fired
