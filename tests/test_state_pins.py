"""Golden pins of mid-run state trees.

Each cell builds an owner (a ``Machine`` or a ``Cluster``), runs it to a
cycle where threads are still live, and digests the sorted JSON of its
``state_dict()``.  Moving how a checkpoint is taken or restored must
leave every digest here unchanged.  Each cell also restores a fresh
build from the tree and requires the restored run to end exactly where
the straight run does (same ``RunResult``, events and final cycle).

* three machine cells: a leased Treiber stack under ``RandomStrategy``,
  the open-loop lock counter, and a MultiLease queue under a fault spec
  and a contended ``--network`` spec;
* four cluster cells: the sharded counter and the sharded Treiber
  stacks, at 2 nodes on a reliable network and at 3 nodes on a lossy
  one.

To re-pin after an *intended* change of the state-tree layout, run::

    PYTHONPATH=src python tests/test_state_pins.py

and paste the printed table over ``GOLDEN``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import replace

import pytest

from repro.check.perturb import RandomStrategy
from repro.cluster import ClusterConfig, build_cluster
from repro.config import MachineConfig, NetworkConfig
from repro.core.machine import Machine
from repro.workloads.table import populate

FAULTS = "net_jitter:p=0.05,max=40;dir_nack:p=0.02"
NETWORK = "link:bw=2,queue=8,flits=4;arb:wrr,weights=2:1;port:dir=2,mem=4"
LOSSY = "loss:p=0.1;dup:p=0.05;skew:80"


def _leased(cfg: MachineConfig) -> MachineConfig:
    return replace(cfg, lease=replace(cfg.lease, enabled=True))


def _treiber() -> Machine:
    m = Machine(_leased(MachineConfig(num_cores=4, seed=5)),
                schedule_strategy=RandomStrategy(7))
    populate(m, "stack", "lease", threads=4, ops=12, prefill=range(16),
             knobs={"lease_time": 600}, local_work=4)
    return m


def _open_counter() -> Machine:
    m = Machine(_leased(MachineConfig(num_cores=4, seed=9)))
    populate(m, "counter", "lease", threads=4, ops=10,
             traffic="poisson:rate=3.0,zipf:s=1.1,tenants=2,queue=4",
             traffic_keys=16)
    return m


def _multilease() -> Machine:
    cfg = MachineConfig(num_cores=4, seed=3, fault_spec=FAULTS,
                        network=NetworkConfig(spec=NETWORK))
    m = Machine(_leased(cfg))
    populate(m, "queue", "multilease", threads=4, ops=10,
             prefill=range(32), knobs={"lease_time": 600})
    return m


def _cluster(structure: str, nodes: int, spec: str):
    def build():
        mc = _leased(MachineConfig(num_cores=2, seed=11))
        ccfg = ClusterConfig(nodes=nodes, objects=2, machine=mc,
                             lease_cycles=4_000, renew_margin=1_000,
                             cluster_spec=spec, seed=11)
        return build_cluster(ccfg, structure=structure, ops_per_thread=5)[0]
    return build


#: Cell id -> (builder, cut cycle).  Every cut falls inside the run.
CELLS = {
    "machine/treiber-lease-random": (_treiber, 1_500),
    "machine/counter-open-loop": (_open_counter, 2_000),
    "machine/multilease-faults-network": (_multilease, 2_500),
    "cluster/counter-n2-reliable": (_cluster("counter", 2, ""), 2_000),
    "cluster/treiber-n2-reliable": (_cluster("treiber", 2, ""), 2_000),
    "cluster/counter-n3-lossy": (_cluster("counter", 3, LOSSY), 3_000),
    "cluster/treiber-n3-lossy": (_cluster("treiber", 3, LOSSY), 3_000),
}

GOLDEN = {
    "cluster/counter-n2-reliable": "7856b49a74f3e5cd447e673edfd2c14bedd5365ce12c35d924e5ffbf89e3d6be",
    "cluster/counter-n3-lossy": "2ae9455e235ce987875571d71064aceb7068310f7fc175c334859112ff677904",
    "cluster/treiber-n2-reliable": "a3dd680f2c36360d2a67dc930553200cf5bd4d6bb363390f924449c7bee0660e",
    "cluster/treiber-n3-lossy": "afe716d9296263ddad98a04d8a6a6e5305172fcc8ea14c4cf080eb91ab46406a",
    "machine/counter-open-loop": "2545c49f8fc712769594c09aaf4593467a48feb417ef35926571e7a059f27dfe",
    "machine/multilease-faults-network": "110e3c2e71fa598f3b57a39272114f64b5e44f97905e2ae48edb4616ecb0bf32",
    "machine/treiber-lease-random": "435ceaf974d0b6dc35d3929725ed475a20ffa5a9e6c180f82b174e360fd27f8d",
}


def _record(owner) -> dict:
    return {**dataclasses.asdict(owner.result("pin")),
            "events": owner.sim.events_processed, "cycle": owner.sim.now}


def _tree(cid: str) -> tuple[str, str]:
    """The cell's state tree at its cut, as sorted JSON, and its digest."""
    build, cut = CELLS[cid]
    owner = build()
    owner.enable_checkpointing()
    owner.run(until=cut)
    assert not owner.sim.quiescent(), f"{cid}: the cut is past the run"
    blob = json.dumps(owner.state_dict(), sort_keys=True)
    return blob, hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("cid", sorted(CELLS))
def test_state_tree_pinned(cid):
    blob, digest = _tree(cid)
    assert digest == GOLDEN[cid], f"{cid}: the state tree moved"
    build, _ = CELLS[cid]
    straight = build()
    straight.run()
    restored = build()
    restored.load_state(json.loads(blob))
    restored.run()
    assert _record(restored) == _record(straight)


if __name__ == "__main__":
    print("GOLDEN = {")
    for cid in sorted(CELLS):
        print(f'    "{cid}": "{_tree(cid)[1]}",')
    print("}")
