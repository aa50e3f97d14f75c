"""Golden-result pin: the simulator's outputs over a fixed feature grid.

Each cell runs one small workload and hashes its complete outcome -- the
``RunResult`` (every counter included), ``events_processed`` and the final
cycle -- into a sha256 digest checked against the table below.  Any change
to the event schedule, however small, moves at least one digest, so a
refactor of the run loop, cores or coherence layer that is meant to leave
behaviour alone must keep this file passing unchanged.

To re-pin after an *intended* behaviour change, run::

    PYTHONPATH=src python tests/test_golden_results.py

and paste the printed table over ``GOLDEN``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import replace
from functools import partial

import pytest

from repro.check.perturb import PctStrategy, RandomStrategy
from repro.cluster import ClusterConfig, build_cluster
from repro.config import MachineConfig
from repro.core.isa import Lease, Release, Store, Work
from repro.core.machine import Machine
from repro.structures import AtomicCounter, LockFreeSkipList, TreiberStack

FAULTS = "net_jitter:p=0.05,max=40;dir_nack:p=0.02"
#: A link/port spec that saturates under four Treiber workers.
SAT_SPEC = "link:bw=2,queue=8,flits=4;arb:wrr,weights=2:1;port:dir=2,mem=4"


def _treiber(cfg: MachineConfig, ops: int = 10,
             strategy=None) -> Machine:
    m = Machine(cfg, schedule_strategy=strategy)
    s = TreiberStack(m)
    s.prefill(range(16))
    for _ in range(cfg.num_cores):
        m.add_thread(s.update_worker, ops)
    return m


def _storm(cfg: MachineConfig, rounds: int = 12) -> Machine:
    """Every core stores to one line: the densest invalidation traffic."""
    m = Machine(cfg)
    addr = m.alloc_var(0, label="golden.storm")

    def body(ctx):
        for i in range(rounds):
            yield Store(addr, i)
        ctx.note_op()

    for _ in range(cfg.num_cores):
        m.add_thread(body)
    return m


def _skiplist(cfg: MachineConfig, ops: int = 20,
              key_range: int = 256) -> Machine:
    """Lock-free skiplist at 20% updates, half its key range prefilled."""
    m = Machine(cfg)
    s = LockFreeSkipList(m)
    s.prefill(range(0, key_range, 2))
    for _ in range(cfg.num_cores):
        m.add_thread(s.mixed_worker, ops, key_range)
    return m


def _atomic(cfg: MachineConfig, ops: int = 10) -> Machine:
    """Fetch-and-add increments: the one counter no experiment arm runs."""
    m = Machine(cfg)
    c = AtomicCounter(m)
    for _ in range(cfg.num_cores):
        m.add_thread(c.update_worker, ops)
    return m


WORKLOADS = {"treiber": _treiber, "storm": _storm, "skiplist": _skiplist,
             "atomic": _atomic}
STRATEGIES = {"random": RandomStrategy, "pct": PctStrategy}


def _digest(result, events: int, now: int) -> str:
    blob = json.dumps([dataclasses.asdict(result), events, now],
                      sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _machine_cell(workload: str, protocol: str, leases: bool, faults: str,
                  cores: int, network: str = "") -> str:
    cfg = MachineConfig(num_cores=cores, protocol=protocol,
                        fault_spec=faults).with_leases(leases)
    if network:
        cfg = replace(cfg, network=replace(cfg.network, spec=network))
    m = WORKLOADS[workload](cfg)
    m.run()
    return _digest(m.result("golden"), m.sim.events_processed, m.sim.now)


def _strategy_cell(kind: str, cores: int) -> str:
    """Base Treiber with a seeded schedule-perturbation strategy."""
    m = _treiber(MachineConfig(num_cores=cores).with_leases(False),
                 strategy=STRATEGIES[kind](1))
    m.run()
    return _digest(m.result("golden"), m.sim.events_processed, m.sim.now)


def _expiry_cell(cores: int = 4, rounds: int = 50) -> str:
    """Every lease outlives its 50-cycle timer, so each one expires (its
    timer fires) before the core's Release."""
    m = Machine(MachineConfig(num_cores=cores).with_leases(True))
    addr = m.alloc_var(0, label="golden.expiry")

    def body(ctx):
        for i in range(rounds):
            yield Lease(addr, 50)
            yield Store(addr, i)
            yield Work(400)
            yield Release(addr)
        ctx.note_op()

    for _ in range(cores):
        m.add_thread(body)
    m.run()
    return _digest(m.result("golden"), m.sim.events_processed, m.sim.now)


def _cluster_cell() -> str:
    """One 2-node ``cluster_shards`` counter cell (two threads per node)."""
    mc = MachineConfig(num_cores=2).with_leases(True)
    ccfg = ClusterConfig(nodes=2, objects=2, machine=mc, lease_cycles=8_000,
                         renew_margin=2_000, seed=mc.seed)
    cluster, _ = build_cluster(ccfg, structure="counter", ops_per_thread=4)
    cluster.run()
    return _digest(cluster.result("golden"), cluster.sim.events_processed,
                   cluster.sim.now)


def _cells() -> dict:
    """Cell id -> zero-argument callable returning the cell's digest."""
    cells = {}
    for workload in ("treiber", "storm"):
        for protocol in ("msi", "mesi"):
            for leases in (False, True):
                for faults in ("", FAULTS):
                    for cores in (1, 4, 8):
                        cid = (f"{workload}-{protocol}-"
                               f"{'lease' if leases else 'base'}-"
                               f"{'faults' if faults else 'clean'}-c{cores}")
                        cells[cid] = partial(_machine_cell, workload,
                                             protocol, leases, faults, cores)
    for leases in (False, True):
        cells[f"skiplist-{'lease' if leases else 'base'}-c4"] = partial(
            _machine_cell, "skiplist", "msi", leases, "", 4)
    cells["atomic-base-c4"] = partial(_machine_cell, "atomic", "msi", False,
                                      "", 4)
    cells["treiber-network-sat-c4"] = partial(
        _machine_cell, "treiber", "msi", True, "", 4, SAT_SPEC)
    for kind in STRATEGIES:
        for cores in (4, 8):
            cells[f"treiber-{kind}-c{cores}"] = partial(_strategy_cell,
                                                        kind, cores)
    cells["lease-expiry-c4"] = _expiry_cell
    cells["cluster_shards-n2-c2"] = _cluster_cell
    return cells


CELLS = _cells()

GOLDEN = {
    "atomic-base-c4": "caa51ee61e3ce90c0cc5ffe2",
    "cluster_shards-n2-c2": "1a43546823280b7323b25234",
    "lease-expiry-c4": "0db17011ecd008d1f9b19b39",
    "skiplist-base-c4": "c82ceab96663627861c2f9a3",
    "skiplist-lease-c4": "eb64e7525ee84915ef65cf4b",
    "storm-mesi-base-clean-c1": "8a417ab58df9f7ff66e9e7ec",
    "storm-mesi-base-clean-c4": "ceecc27593ee6a5e55fd544e",
    "storm-mesi-base-clean-c8": "b795ef9ec16120cfe59d869c",
    "storm-mesi-base-faults-c1": "8a417ab58df9f7ff66e9e7ec",
    "storm-mesi-base-faults-c4": "bd1380350343489e6fce592f",
    "storm-mesi-base-faults-c8": "9f59da11379e4830348fb7a8",
    "storm-mesi-lease-clean-c1": "8a417ab58df9f7ff66e9e7ec",
    "storm-mesi-lease-clean-c4": "ceecc27593ee6a5e55fd544e",
    "storm-mesi-lease-clean-c8": "b795ef9ec16120cfe59d869c",
    "storm-mesi-lease-faults-c1": "8a417ab58df9f7ff66e9e7ec",
    "storm-mesi-lease-faults-c4": "bd1380350343489e6fce592f",
    "storm-mesi-lease-faults-c8": "9f59da11379e4830348fb7a8",
    "storm-msi-base-clean-c1": "8a417ab58df9f7ff66e9e7ec",
    "storm-msi-base-clean-c4": "ceecc27593ee6a5e55fd544e",
    "storm-msi-base-clean-c8": "b795ef9ec16120cfe59d869c",
    "storm-msi-base-faults-c1": "8a417ab58df9f7ff66e9e7ec",
    "storm-msi-base-faults-c4": "bd1380350343489e6fce592f",
    "storm-msi-base-faults-c8": "9f59da11379e4830348fb7a8",
    "storm-msi-lease-clean-c1": "8a417ab58df9f7ff66e9e7ec",
    "storm-msi-lease-clean-c4": "ceecc27593ee6a5e55fd544e",
    "storm-msi-lease-clean-c8": "b795ef9ec16120cfe59d869c",
    "storm-msi-lease-faults-c1": "8a417ab58df9f7ff66e9e7ec",
    "storm-msi-lease-faults-c4": "bd1380350343489e6fce592f",
    "storm-msi-lease-faults-c8": "9f59da11379e4830348fb7a8",
    "treiber-mesi-base-clean-c1": "3ce592a67a0aef3daf65e0b1",
    "treiber-mesi-base-clean-c4": "fae5a82428a84ed6b14abe6f",
    "treiber-mesi-base-clean-c8": "ccbaa7fa80f287535a063cec",
    "treiber-mesi-base-faults-c1": "3ce592a67a0aef3daf65e0b1",
    "treiber-mesi-base-faults-c4": "4017e6e1802d799a78b49727",
    "treiber-mesi-base-faults-c8": "d37a9a00c51466c925464e78",
    "treiber-mesi-lease-clean-c1": "2b0ceb7a8ad9de015d8edbdb",
    "treiber-mesi-lease-clean-c4": "6dee8ce117a7fd2911e3d3ba",
    "treiber-mesi-lease-clean-c8": "abbb9f1a8c0c05a6ee748238",
    "treiber-mesi-lease-faults-c1": "2b0ceb7a8ad9de015d8edbdb",
    "treiber-mesi-lease-faults-c4": "15ead9171506c05cfc3cf353",
    "treiber-mesi-lease-faults-c8": "9043bf37db5e8390cc0e3466",
    "treiber-msi-base-clean-c1": "bf09cdc8fa2e43cd4a0af685",
    "treiber-msi-base-clean-c4": "7b0e7dbae82b7f895de55b27",
    "treiber-msi-base-clean-c8": "8ca6da19d56b9e63f17c78a7",
    "treiber-msi-base-faults-c1": "92d253f43421c5d50d00ca10",
    "treiber-msi-base-faults-c4": "a3ccdd22a8b73282dff222b1",
    "treiber-msi-base-faults-c8": "e605717b3ca90d6f88dc11b0",
    "treiber-msi-lease-clean-c1": "2b0ceb7a8ad9de015d8edbdb",
    "treiber-msi-lease-clean-c4": "6dee8ce117a7fd2911e3d3ba",
    "treiber-msi-lease-clean-c8": "abbb9f1a8c0c05a6ee748238",
    "treiber-msi-lease-faults-c1": "2b0ceb7a8ad9de015d8edbdb",
    "treiber-msi-lease-faults-c4": "15ead9171506c05cfc3cf353",
    "treiber-msi-lease-faults-c8": "9043bf37db5e8390cc0e3466",
    "treiber-network-sat-c4": "346dc318e1cbd10dce086c58",
    "treiber-pct-c4": "35bb5f18cba026d71840a1aa",
    "treiber-pct-c8": "59d0996e373b19c802382718",
    "treiber-random-c4": "091f07f3442916c05c3e9621",
    "treiber-random-c8": "4e97aad4e46b5d192596c2fd",
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_golden_result(cell):
    assert CELLS[cell]() == GOLDEN[cell]


def test_golden_table_covers_grid():
    assert set(GOLDEN) == set(CELLS)


if __name__ == "__main__":
    print("GOLDEN = {")
    for cid in sorted(CELLS):
        print(f'    "{cid}": "{CELLS[cid]()}",')
    print("}")
