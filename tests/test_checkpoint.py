"""Checkpoint/restore (``repro.state``): roundtrip bit-identity, lease/pin
preservation, the ``repro-ckpt/1`` container's refusal rules, and
prefix-restore shrinking."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import repro.check.campaign as campaign
from repro.check.cluster import ClusterTarget
from repro.check.perturb import PctStrategy, RandomStrategy, ReplayStrategy
from repro.config import MachineConfig
from repro.core.machine import Machine
from repro.errors import CheckpointError, CheckpointMismatch, SimulationError
from repro.state import (CKPT_SCHEMA, checkpoint_cell_key, load_checkpoint,
                         restore_checkpoint, save_checkpoint)
from repro.structures import MichaelScottQueue, TreiberStack


def _config(*, leases: bool, protocol: str = "msi", faults: str = "",
            seed: int = 1) -> MachineConfig:
    cfg = MachineConfig(num_cores=4, protocol=protocol, fault_spec=faults,
                        seed=seed)
    return replace(cfg, lease=replace(cfg.lease, enabled=leases))


def _build_treiber(cfg: MachineConfig, strategy=None) -> Machine:
    m = Machine(cfg, schedule_strategy=strategy)
    s = TreiberStack(m)
    s.prefill(range(16))
    for _ in range(4):
        m.add_thread(s.update_worker, 12)
    return m


def _build_multilease(cfg: MachineConfig) -> Machine:
    m = Machine(cfg)
    q = MichaelScottQueue(m, variant="multi")
    q.prefill(range(32))
    for _ in range(4):
        m.add_thread(q.update_worker, 10)
    return m


def _strategy(kind: str):
    return {
        "none": lambda: None,
        "random": lambda: RandomStrategy(7),
        "pct": lambda: PctStrategy(7),
        "replay": lambda: ReplayStrategy({3: 2, 40: 1, 77: 3}),
    }[kind]()


# ---------------------------------------------------------------------------
# Roundtrip bit-identity across the feature grid
# ---------------------------------------------------------------------------

GRID = [
    # (leases, protocol, faults, strategy, cut)
    (False, "msi", "", "none", 300),
    (True, "msi", "", "none", 300),
    (True, "mesi", "", "none", 137),
    (False, "mesi", "", "random", 300),
    (True, "msi", "net_jitter:p=0.2,max=6", "none", 400),
    (True, "mesi", "dir_nack:p=0.1;timer_skew:4", "random", 300),
    (True, "msi", "dir_nack:p=0.05", "pct", 800),
    (True, "msi", "", "replay", 137),
]


@pytest.mark.parametrize("leases,protocol,faults,strategy,cut", GRID,
                         ids=lambda v: str(v))
def test_roundtrip_is_bit_identical(leases, protocol, faults, strategy, cut):
    """Snapshot mid-run, restore into a fresh machine, run both to the end:
    the checkpointed run, the restored run, and an uninterrupted run must
    produce field-for-field identical RunResults."""
    cfg = _config(leases=leases, protocol=protocol, faults=faults)

    m1 = _build_treiber(cfg, _strategy(strategy))
    m1.enable_checkpointing()
    m1.run(until=cut)
    # JSON round-trip the state tree: what restores on disk restores here.
    state = json.loads(json.dumps(m1.state_dict()))

    m2 = _build_treiber(cfg, _strategy(strategy))
    m2.load_state(state)
    m1.run()
    m2.run()

    m3 = _build_treiber(cfg, _strategy(strategy))
    m3.run()

    r1, r2, r3 = m1.result(), m2.result(), m3.result()
    assert r2 == r3, "restored run diverged from the uninterrupted run"
    assert r1 == r3, "taking a snapshot perturbed the run"
    # Field-for-field, not just __eq__: catches a future non-compared field.
    import dataclasses

    assert dataclasses.asdict(r2) == dataclasses.asdict(r3)
    assert m1.counters.checkpoints_saved == 1
    assert m2.counters.checkpoints_restored == 1
    # The bookkeeping counters stay out of RunResult comparisons.
    assert "checkpoints_saved" not in r2.counters


def test_checkpoint_counters_not_in_snapshot_delta():
    cfg = _config(leases=True)
    m = _build_treiber(cfg)
    m.enable_checkpointing()
    m.run(until=200)
    before = m.counters.snapshot()
    assert "checkpoints_saved" not in before
    m.state_dict()
    assert m.counters.checkpoints_saved == 1


# ---------------------------------------------------------------------------
# Pin refcounts and granted-lease identity (the PR 4 bug surface)
# ---------------------------------------------------------------------------

def _snapshot_with_live_leases(build, cfg):
    """Run machines at increasing cuts until the snapshot catches at least
    one granted lease and one pinned line; returns (machine, state)."""
    for cut in (120, 200, 300, 450, 700, 1000, 1500, 2200):
        m = build(cfg)
        m.enable_checkpointing()
        m.run(until=cut)
        has_lease = any(e.granted
                        for core in m.cores
                        for e in core.lease_mgr.table.entries())
        has_pin = any(core.memunit.l1._pinned for core in m.cores)
        if has_lease and has_pin and m._live_threads:
            return m, cut, json.loads(json.dumps(m.state_dict()))
    pytest.fail("no cut point caught a granted lease mid-run")


def test_restore_preserves_pin_refcounts_and_lease_identity():
    cfg = _config(leases=True)
    m1, cut, state = _snapshot_with_live_leases(_build_treiber, cfg)

    m2 = _build_treiber(cfg)
    m2.load_state(state)

    for c1, c2 in zip(m1.cores, m2.cores):
        # L1 pin refcounts survive the roundtrip exactly.
        assert c2.memunit.l1._pinned == c1.memunit.l1._pinned
        e1s = c1.lease_mgr.table.entries()
        e2s = c2.lease_mgr.table.entries()
        assert [(e.line, e.duration, e.granted, e.started, e.dead)
                for e in e2s] \
            == [(e.line, e.duration, e.granted, e.started, e.dead)
                for e in e1s]
        for e in e2s:
            if e.expiry_event is not None:
                # Granted-lease identity: the expiry event in the restored
                # queue must reference THIS entry object (removal is
                # by identity; a duplicated entry would never cancel).
                assert e.expiry_event.args[0] is e
                # ...and its seq must be live in the restored heap.
                queue = m2.sim.queue
                assert e.expiry_event.seq not in queue._dead
                assert any(entry[2] == e.expiry_event.seq
                           and entry[4][0] is e for entry in queue._heap)
    # And the restored machine still finishes identically.
    m2.run()
    m3 = _build_treiber(cfg)
    m3.run()
    assert m2.result() == m3.result()


def test_restore_preserves_multilease_group_identity():
    cfg = _config(leases=True)
    m1, cut, state = _snapshot_with_live_leases(_build_multilease, cfg)
    m2 = _build_multilease(cfg)
    m2.load_state(state)
    groups_seen = 0
    for core in m2.cores:
        by_group = {}
        for e in core.lease_mgr.table.entries():
            if e.group is not None:
                by_group.setdefault(id(e.group), []).append(e)
        for members in by_group.values():
            groups_seen += 1
            group = members[0].group
            for e in members:
                assert e.group is group, \
                    "multilease group object duplicated on restore"
                assert e.line in group.lines
    m2.run()
    m3 = _build_multilease(cfg)
    m3.run()
    assert m2.result() == m3.result()
    assert groups_seen >= 0  # group may have drained; identity held if any


# ---------------------------------------------------------------------------
# repro-ckpt/1 container: save/load/refusal
# ---------------------------------------------------------------------------

def test_checkpoint_file_roundtrip(tmp_path):
    cfg = _config(leases=True)
    m1 = _build_treiber(cfg)
    m1.enable_checkpointing()
    m1.run(until=300)
    path = tmp_path / "ckpt.json"
    cell = {"bench": "treiber", "num_threads": 4, "kwargs": {}}
    doc = save_checkpoint(m1, str(path), cell=cell)
    assert doc["format"] == "repro-ckpt/1"
    assert doc["cell"] == cell

    loaded = load_checkpoint(str(path))
    m2 = _build_treiber(cfg)
    cycle = restore_checkpoint(m2, loaded, cell=cell)
    assert cycle == doc["cycle"]
    m1.run()
    m2.run()
    assert m2.result() == m1.result()


def test_checkpoint_refuses_mismatched_config(tmp_path):
    m1 = _build_treiber(_config(leases=True, seed=1))
    m1.enable_checkpointing()
    m1.run(until=200)
    path = tmp_path / "ckpt.json"
    save_checkpoint(m1, str(path))
    doc = load_checkpoint(str(path))

    m_seed = _build_treiber(_config(leases=True, seed=2))
    with pytest.raises(CheckpointMismatch, match="seed"):
        restore_checkpoint(m_seed, doc)

    m_proto = _build_treiber(_config(leases=True, protocol="mesi"))
    with pytest.raises(CheckpointMismatch, match="refusing"):
        restore_checkpoint(m_proto, doc)

    m_cell = _build_treiber(_config(leases=True, seed=1))
    doc_cell = dict(doc, cell={"bench": "other", "num_threads": 2,
                               "kwargs": {}})
    with pytest.raises(CheckpointMismatch, match="cell"):
        restore_checkpoint(m_cell, doc_cell,
                           cell={"bench": "treiber", "num_threads": 4,
                                 "kwargs": {}})


def test_checkpoint_refuses_wrong_schema(tmp_path):
    m1 = _build_treiber(_config(leases=True))
    m1.enable_checkpointing()
    m1.run(until=200)
    path = tmp_path / "ckpt.json"
    save_checkpoint(m1, str(path))
    doc = load_checkpoint(str(path))
    doc["schema"] = CKPT_SCHEMA + 1
    m2 = _build_treiber(_config(leases=True))
    with pytest.raises(CheckpointMismatch, match="schema"):
        restore_checkpoint(m2, doc)


def test_load_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(str(bad))
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"format": "something-else/9"}))
    with pytest.raises(CheckpointError, match="unsupported"):
        load_checkpoint(str(other))
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"format": "repro-ckpt/1", "schema": 1}))
    with pytest.raises(CheckpointError, match="missing"):
        load_checkpoint(str(partial))


def test_cell_key_distinguishes_cells_and_configs():
    cfg = _config(leases=True)
    cell_a = {"bench": "treiber", "num_threads": 4, "kwargs": {}}
    cell_b = {"bench": "treiber", "num_threads": 8, "kwargs": {}}
    assert checkpoint_cell_key(cfg, cell_a) == checkpoint_cell_key(cfg, cell_a)
    assert checkpoint_cell_key(cfg, cell_a) != checkpoint_cell_key(cfg, cell_b)
    assert checkpoint_cell_key(cfg, cell_a) \
        != checkpoint_cell_key(_config(leases=False), cell_a)


def test_state_dict_requires_enabled_checkpointing():
    m = _build_treiber(_config(leases=True))
    m.run(until=100)
    with pytest.raises(CheckpointError):
        m.state_dict()


def test_enable_checkpointing_rejects_started_machine():
    m = _build_treiber(_config(leases=True))
    m.run(until=100)
    with pytest.raises(SimulationError):
        m.enable_checkpointing()


def test_load_state_requires_fresh_machine():
    cfg = _config(leases=True)
    m1 = _build_treiber(cfg)
    m1.enable_checkpointing()
    m1.run(until=200)
    state = m1.state_dict()
    m2 = _build_treiber(cfg)
    m2.run(until=50)
    with pytest.raises(CheckpointError, match="freshly built"):
        m2.load_state(state)


# ---------------------------------------------------------------------------
# Prefix-restore shrinking
# ---------------------------------------------------------------------------

def _assert_prefix_restore_shrinks_alike(monkeypatch, target, variant, cfg,
                                         every: int) -> None:
    """Record a perturbed schedule of ``target``, then ddmin it under a
    synthetic oracle -- a run "fails" iff two chosen decisions both
    applied -- once replaying every probe from cycle 0 and once with
    prefix restore every ``every`` cycles.  Both must return the two
    culprits, and prefix restore must replay fewer cycles."""
    rec = campaign.run_once(target, variant, cfg, RandomStrategy(5, rate=0.4))
    assert rec.ok
    full = dict(rec.decisions)
    keys = sorted(full)
    assert len(keys) >= 8
    culprits = {keys[len(keys) // 2], keys[-2]}

    real_run_once = campaign.run_once

    def fake_run_once(target, variant, cfg, strategy, **kw):
        out = real_run_once(target, variant, cfg, strategy, **kw)
        if culprits <= set(out.decisions):
            out.ok = False
            out.kind = "synthetic"
        return out

    monkeypatch.setattr(campaign, "run_once", fake_run_once)

    stats_off: dict = {}
    shrunk_off, runs_off = campaign.shrink_failure(
        target, variant, cfg, dict(full), checkpoint_every=None,
        stats=stats_off)
    stats_on: dict = {}
    shrunk_on, runs_on = campaign.shrink_failure(
        target, variant, cfg, dict(full), checkpoint_every=every,
        stats=stats_on)

    assert set(shrunk_on) == culprits
    assert shrunk_on == shrunk_off, \
        "prefix-restore changed the minimal repro"
    assert stats_on["restores"] > 0, "prefix restore never engaged"
    assert stats_on["cycles_replayed"] < stats_off["cycles_replayed"], \
        "prefix-restore did not save replayed cycles"
    assert stats_on["cycles_saved"] > 0


def test_shrink_prefix_restore_same_minimal_repro(monkeypatch):
    """ddmin with prefix-checkpointing must return the same minimal repro
    as the restart-from-zero path while replaying fewer cycles."""
    target = campaign.resolve_target("treiber")
    variant, base_cfg = target.configs[1]
    cfg = replace(base_cfg, seed=1234)
    _assert_prefix_restore_shrinks_alike(monkeypatch, target, variant, cfg,
                                         256)


def test_shrink_prefix_restore_on_a_cluster(monkeypatch):
    """The cluster target shrinks through the same ddmin, restoring
    ``Cluster.state_dict()`` checkpoints: same minimal repro, fewer
    cycles replayed."""
    target = ClusterTarget(nodes=2, cluster_spec="")
    variant, cfg = target.schedule(0, 1234, "")
    _assert_prefix_restore_shrinks_alike(monkeypatch, target, variant, cfg,
                                         512)


def test_run_once_restore_from_checkpoint_matches():
    """run_once with restore_from resumes to the same outcome as a full
    replay of the same decisions."""
    target = campaign.resolve_target("treiber")
    variant, base_cfg = target.configs[1]
    cfg = replace(base_cfg, seed=99)

    strat = RandomStrategy(3, rate=0.3)
    ckpts: list = []
    full = campaign.run_once(target, variant, cfg, strat,
                             checkpoint_every=512, checkpoints=ckpts)
    assert ckpts, "no checkpoints were recorded"
    wm, state = ckpts[0]

    replayed = campaign.run_once(target, variant, cfg,
                                 ReplayStrategy(dict(full.decisions)))
    resumed = campaign.run_once(target, variant, cfg,
                                ReplayStrategy(dict(full.decisions)),
                                restore_from=state)
    assert resumed.ok == replayed.ok
    assert resumed.decisions == replayed.decisions
    assert resumed.cycles == replayed.cycles
