"""Cluster checkpoint/restore: ``Cluster.state_dict`` JSON-roundtrips to
a bit-identical continuation at arbitrary mid-run cuts, and the refusal
paths (wrong shape, stale cluster, checkpointing disabled) all raise."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import replace

import pytest

from repro.cluster import ClusterConfig, build_cluster
from repro.config import MachineConfig
from repro.errors import (CheckpointError, CheckpointMismatch,
                          SimulationError)

FAULTY_SPEC = ("loss:p=0.1;dup:p=0.05;partition:p=0.05,len=2000,check=400;"
               "skew:40;delay:min=60,max=160")


def _ccfg(nodes: int = 3, spec: str = FAULTY_SPEC) -> ClusterConfig:
    mc = MachineConfig(num_cores=2, seed=11)
    mc = replace(mc, lease=replace(mc.lease, enabled=True))
    return ClusterConfig(nodes=nodes, objects=2, machine=mc,
                         lease_cycles=4_000, renew_margin=1_000,
                         cluster_spec=spec)


def _build(ccfg, structure: str = "counter"):
    return build_cluster(ccfg, structure=structure, ops_per_thread=5)


def _final(cluster) -> dict:
    # RunResult.counters comes from Counters.snapshot(), which already
    # excludes checkpoint bookkeeping, so restored-vs-reference runs
    # compare clean.
    return dataclasses.asdict(cluster.result("roundtrip"))


@pytest.mark.parametrize("structure", ["counter", "treiber"])
@pytest.mark.parametrize("cut", [1, 137, 800, 2_500])
def test_roundtrip_bit_identical(structure, cut):
    ref, _ = _build(_ccfg(), structure)
    ref.run()
    expected = _final(ref)

    a, _ = _build(_ccfg(), structure)
    a.enable_checkpointing()
    a.run(until=cut)
    blob = json.dumps(a.state_dict())
    a.run()
    assert _final(a) == expected  # checkpointing perturbs nothing

    b, _ = _build(_ccfg(), structure)
    b.load_state(json.loads(blob))
    b.run()
    assert _final(b) == expected


def test_restore_counts_checkpoint_traffic():
    a, _ = _build(_ccfg(nodes=2))
    a.enable_checkpointing()
    a.run(until=500)
    blob = json.dumps(a.state_dict())

    b, _ = _build(_ccfg(nodes=2))
    b.load_state(json.loads(blob))
    b.run()
    merged = b.merged_counters()
    # One CheckpointRestored per node bus plus one on the cluster bus;
    # snapshot() masks these, but the raw counters must still record them.
    assert merged.checkpoints_restored == 3


def test_enable_checkpointing_after_restore_is_a_noop():
    """A restored cluster is already recording, as a restored machine is:
    enabling checkpointing again changes nothing, the cluster can be
    snapshotted again, and the run ends where the reference run does."""
    ref, _ = _build(_ccfg(nodes=2))
    ref.run()
    expected = _final(ref)

    a, _ = _build(_ccfg(nodes=2))
    a.enable_checkpointing()
    a.run(until=800)
    blob = json.dumps(a.state_dict())

    b, _ = _build(_ccfg(nodes=2))
    b.load_state(json.loads(blob))
    b.enable_checkpointing()
    b.run(until=1_600)
    b.state_dict()
    b.run()
    assert _final(b) == expected


# -- refusal paths ------------------------------------------------------------

def test_state_dict_requires_enable_checkpointing():
    a, _ = _build(_ccfg(nodes=2))
    a.run(until=100)
    with pytest.raises(CheckpointError):
        a.state_dict()


def test_enable_checkpointing_after_run_rejected():
    a, _ = _build(_ccfg(nodes=2))
    a.run(until=100)
    with pytest.raises(SimulationError, match="before the cluster"):
        a.enable_checkpointing()


def test_load_rejects_wrong_node_count():
    a, _ = _build(_ccfg(nodes=2))
    a.enable_checkpointing()
    a.run(until=100)
    state = a.state_dict()

    b, _ = _build(_ccfg(nodes=3))
    with pytest.raises(CheckpointMismatch, match="2 nodes, cluster has 3"):
        b.load_state(state)


def test_load_rejects_wrong_schema():
    a, _ = _build(_ccfg(nodes=2))
    a.enable_checkpointing()
    a.run(until=100)
    state = a.state_dict()
    state["schema"] = 99

    b, _ = _build(_ccfg(nodes=2))
    with pytest.raises(CheckpointMismatch, match="schema"):
        b.load_state(state)


def test_load_rejects_already_run_cluster():
    a, _ = _build(_ccfg(nodes=2))
    a.enable_checkpointing()
    a.run(until=100)
    state = a.state_dict()

    b, _ = _build(_ccfg(nodes=2))
    b.run(until=50)
    with pytest.raises(CheckpointError, match="freshly built"):
        b.load_state(state)
