"""Files written before the run loop became a single heap engine stay
usable, or fail with a typed error.

Older ``repro-check/1`` and ``repro-cluster/1`` files carry an ``engine``
key that replay now ignores.  Older ``repro-ckpt/1`` files carry a
``pending_retire`` slot per core; a null one restores normally, while a
checkpoint holding work only the removed fast engine's batch-stepped
cores could schedule raises :class:`CheckpointError`.
"""

from __future__ import annotations

import json

import pytest

from repro.check import CLUSTER_REPRO_FORMAT, TARGETS, replay_repro
from repro.check.campaign import REPRO_FORMAT
from repro.config import MachineConfig
from repro.core.machine import Machine
from repro.errors import CheckpointError
from repro.state.checkpoint import build_document, restore_checkpoint
from repro.structures import TreiberStack

CUT = 300


def test_repro_check_with_engine_key_replays():
    variant = TARGETS["treiber"].configs[0][0]
    out = replay_repro({
        "format": REPRO_FORMAT, "target": "treiber", "variant": variant,
        "campaign_seed": 7, "schedule_index": 0, "machine_seed": 42,
        "fault_spec": "", "engine": "fast", "traffic": "",
        "decisions": {},
    })
    assert out.ok, out.detail


def test_repro_cluster_with_engine_key_replays():
    out = replay_repro({
        "format": CLUSTER_REPRO_FORMAT, "structure": "counter", "nodes": 2,
        "quorum": None, "cluster_spec": "", "machine_seed": 42,
        "engine": "fast", "decisions": {},
    })
    assert out.ok, out.detail


def _treiber() -> Machine:
    m = Machine(MachineConfig(num_cores=4).with_leases(True))
    s = TreiberStack(m)
    s.prefill(range(16))
    for _ in range(4):
        m.add_thread(s.update_worker, 10)
    return m


def _legacy_doc() -> dict:
    """A mid-run checkpoint in the older shape: every core carries a
    ``pending_retire`` slot."""
    m = _treiber()
    m.enable_checkpointing()
    m.run(until=CUT)
    doc = json.loads(json.dumps(build_document(m)))
    for core in doc["state"]["cores"]:
        core["pending_retire"] = None
    return doc


def _queue_event(doc: dict, fn: list, args: list) -> None:
    queue = doc["state"]["queue"]
    queue["events"].append([CUT + 1, 0, queue["seq"], fn, args])
    queue["seq"] += 1


def test_legacy_checkpoint_with_null_pending_retire_restores():
    whole = _treiber()
    whole.run()
    m = _treiber()
    restore_checkpoint(m, _legacy_doc())
    m.run()
    assert m.result("x") == whole.result("x")
    assert m.sim.events_processed == whole.sim.events_processed


@pytest.mark.parametrize("fn,args", [
    (["core", 1, "_dispatch_batched"],
     ["tuple", [["instr", "Work", [["cycles", 3]]]]]),
    (["core", 2, "_retire_batched"], ["tuple", []]),
])
def test_checkpoint_with_batched_core_event_fails_typed(fn, args):
    doc = _legacy_doc()
    _queue_event(doc, fn, args)
    with pytest.raises(CheckpointError, match="removed fast engine"):
        restore_checkpoint(_treiber(), doc)


def test_checkpoint_with_pending_retire_fails_typed():
    doc = _legacy_doc()
    doc["state"]["cores"][3]["pending_retire"] = ["tuple", [None]]
    with pytest.raises(CheckpointError, match="removed fast engine"):
        restore_checkpoint(_treiber(), doc)
