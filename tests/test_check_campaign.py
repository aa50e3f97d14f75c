"""Fuzzing campaigns: targets, injected-bug detection, shrinking, replay."""

import json
from typing import Any, Generator

import pytest

import repro.check.campaign as campaign
from repro.check import (HistoryRecorder, LeasePropertyTracer,
                         PropertyViolation, ReplayStrategy, TARGETS,
                         load_repro, replay_repro, resolve_target,
                         run_campaign, run_once, shrink_failure)
from repro.check.campaign import _ddmin
from repro.core.isa import CAS, Lease, Load, Release
from repro.errors import ReproError
from repro.structures.treiber import NEXT_OFF, NIL, VALUE_OFF, TreiberStack
from repro.trace.events import (LeaseProbeQueued, LeaseStarted,
                                MultiLeaseIssued, ProbeServiced)


# -- registry -----------------------------------------------------------------

def test_resolve_target_accepts_experiment_aliases():
    assert resolve_target("fig2_stack") is TARGETS["treiber"]
    assert resolve_target("treiber") is TARGETS["treiber"]


def test_experiment_aliases_name_experiments_and_targets():
    from repro.check import EXPERIMENT_ALIASES
    from repro.harness import EXPERIMENTS

    for alias, target in EXPERIMENT_ALIASES.items():
        assert alias in EXPERIMENTS, f"alias {alias!r} names no experiment"
        assert target in TARGETS, f"alias {alias!r} -> unknown {target!r}"


def test_resolve_target_unknown_raises():
    with pytest.raises(ReproError, match="unknown check target"):
        resolve_target("nope")


@pytest.mark.parametrize("name", sorted(set(TARGETS) - {"sync_zoo_broken"}))
def test_target_passes_small_budget(name):
    rep = run_campaign(name, budget=4, seed=3)
    assert rep.ok, f"{name}: {rep.failure.kind}: {rep.failure.detail}"
    assert rep.schedules_run == 4
    assert rep.histories_checked == 4
    assert rep.ops_checked > 0
    assert rep.inconclusive == 0     # campaign histories stay exactly
                                     # checkable by construction


# -- contention-management zoo ------------------------------------------------

ZOO_TARGETS = ("sync_zoo_treiber", "sync_zoo_msqueue", "sync_zoo_counter")


@pytest.mark.parametrize("name", ZOO_TARGETS)
def test_zoo_campaign_runs_50_schedules_per_policy(name):
    """ISSUE 9's coverage bar: every zoo policy survives >= 50 perturbed
    schedules of its linearizability campaign on every structure."""
    rep = run_campaign(name, budget=200, seed=3)
    assert rep.ok, f"{name}: {rep.failure.kind}: {rep.failure.detail}"
    assert rep.schedules_run == 200
    assert len(rep.per_variant) == 4
    assert all(n >= 50 for n in rep.per_variant.values())


def test_zoo_broken_lock_campaign_must_fail():
    """The deliberately broken test-then-store lock proves the campaigns
    have teeth: lost counter updates surface as a linearizability (or
    final-state) failure within a handful of schedules."""
    rep = run_campaign("sync_zoo_broken", budget=12, seed=3)
    assert not rep.ok
    assert rep.failure.kind == "linearizability"
    assert rep.repro["target"] == "sync_zoo_broken"
    # The shrunken repro replays deterministically to the same failure.
    out = replay_repro(rep.repro)
    assert not out.ok


def test_run_once_reports_history_and_properties():
    target = resolve_target("treiber")
    variant, cfg = target.configs[1]          # lease variant
    out = run_once(target, variant, cfg, ReplayStrategy({}))
    assert out.ok and out.kind == "pass"
    assert out.ops == campaign.THREADS * campaign.OPS
    assert out.strategy["kind"] == "replay"
    assert "probes_checked" in out.properties


# -- injected bug -------------------------------------------------------------

class _BrokenTreiberStack(TreiberStack):
    """Treiber stack whose pop ignores the CAS outcome (drops the retry):
    under contention a failed CAS still returns the read value, so the
    node is never unlinked -- a lost update the checker must catch."""

    def pop(self, ctx) -> Generator[Any, Any, Any]:
        yield Lease(self.head, self.lease_time)
        h = yield Load(self.head)
        if h == NIL:
            yield Release(self.head)
            return None
        nxt = yield Load(h + NEXT_OFF)
        yield CAS(self.head, h, nxt)
        yield Release(self.head)
        return (yield Load(h + VALUE_OFF))


@pytest.fixture
def broken_treiber(monkeypatch):
    monkeypatch.setattr(campaign, "TreiberStack", _BrokenTreiberStack)


def test_injected_bug_is_caught_and_replayable(broken_treiber, tmp_path):
    rep = run_campaign("treiber", budget=200, seed=7)
    assert not rep.ok
    assert rep.failure.kind == "linearizability"
    assert "final state" in rep.failure.detail

    repro = rep.repro
    assert repro["format"] == campaign.REPRO_FORMAT
    assert repro["target"] == "treiber"
    # The repro round-trips through JSON and reproduces the failure.
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(repro))
    out = replay_repro(load_repro(str(path)))
    assert not out.ok and out.kind == "linearizability"


def test_injected_bug_repro_is_deterministic(broken_treiber):
    rep = run_campaign("treiber", budget=50, seed=7)
    assert not rep.ok
    outs = [replay_repro(rep.repro) for _ in range(2)]
    assert outs[0].detail == outs[1].detail


def test_stock_treiber_replay_of_empty_schedule_passes():
    rep = run_campaign("treiber", budget=1, seed=7)
    assert rep.ok and rep.repro is None


# -- shrinking ----------------------------------------------------------------

def test_ddmin_finds_single_culprit():
    items = [(i, 1) for i in range(16)]
    shrunk, runs = _ddmin(items, lambda d: 11 in d, max_runs=100)
    assert shrunk == [(11, 1)]
    assert 0 < runs <= 100


def test_ddmin_keeps_interacting_pair():
    items = [(i, 1) for i in range(12)]
    shrunk, runs = _ddmin(items, lambda d: 3 in d and 9 in d, max_runs=200)
    assert sorted(k for k, _ in shrunk) == [3, 9]


def test_ddmin_respects_run_budget():
    items = [(i, 1) for i in range(64)]
    _, runs = _ddmin(items, lambda d: len(d) == 64, max_runs=10)
    assert runs <= 10


def test_shrink_failure_returns_empty_when_baseline_fails(broken_treiber):
    from dataclasses import replace
    target = resolve_target("treiber")
    variant, base_cfg = target.configs[0]
    cfg = replace(base_cfg, seed=campaign._machine_seed(7, 0))
    shrunk, runs = shrink_failure(target, variant, cfg, {100: 2, 200: 3})
    assert shrunk == {}          # the perturbation was never the trigger
    assert runs == 1


# -- load_repro validation ----------------------------------------------------

def test_load_repro_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ReproError, match="not a repro-check/1"):
        load_repro(str(path))


# -- lease property tracer ----------------------------------------------------

class _FakeLease:
    max_lease_time = 100


class _FakeConfig:
    lease = _FakeLease()


class _FakeMachine:
    config = _FakeConfig()


def _ev(cls, t, *args, **kw):
    ev = cls(*args, **kw)
    ev.t = t
    return ev


def test_property_tracer_accepts_bounded_deferral():
    tr = LeasePropertyTracer()
    tr.bind(_FakeMachine())
    tr.on_event(_ev(LeaseProbeQueued, 10, 0, 0x40))
    tr.on_event(_ev(ProbeServiced, 110, 0, 0x40, "inv", False, True))
    assert tr.probes_checked == 1
    assert tr.max_observed_defer == 100


def test_property_tracer_flags_proposition1_violation():
    tr = LeasePropertyTracer()
    tr.bind(_FakeMachine())
    tr.on_event(_ev(LeaseProbeQueued, 10, 0, 0x40))
    with pytest.raises(PropertyViolation, match="Proposition 1"):
        tr.on_event(_ev(ProbeServiced, 210, 0, 0x40, "inv", False, True))


def test_property_tracer_flags_multilease_order():
    tr = LeasePropertyTracer()
    tr.bind(_FakeMachine())
    tr.on_event(_ev(MultiLeaseIssued, 5, 0, 2, False))
    tr.on_event(_ev(LeaseStarted, 6, 0, 0x80, 100))
    with pytest.raises(PropertyViolation, match="address order"):
        tr.on_event(_ev(LeaseStarted, 7, 0, 0x40, 100))


def test_property_tracer_accepts_sorted_multilease():
    tr = LeasePropertyTracer()
    tr.bind(_FakeMachine())
    tr.on_event(_ev(MultiLeaseIssued, 5, 0, 2, False))
    tr.on_event(_ev(LeaseStarted, 6, 0, 0x40, 100))
    tr.on_event(_ev(LeaseStarted, 7, 0, 0x80, 100))
    # Group complete: a later single-line lease has no ordering obligation.
    tr.on_event(_ev(LeaseStarted, 20, 0, 0x40, 100))


# -- history recorder ---------------------------------------------------------

def test_history_recorder_collects_and_validates():
    from conftest import make_machine

    m = make_machine(2)
    hist = m.attach_tracer(HistoryRecorder())
    s = TreiberStack(m)
    s.prefill([1, 2])
    for _ in range(2):
        m.add_thread(s.update_worker, 4, local_work=2)
    m.run()
    assert len(hist.records) == 8
    hist.validate()
    per_thread = hist.per_thread()
    assert set(per_thread) == {0, 1}
    for recs in per_thread.values():
        assert [r.op for r in recs] == ["push", "pop", "push", "pop"]
        assert all(r.invoked <= r.responded for r in recs)
