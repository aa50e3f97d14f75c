"""The cluster layer (``repro.cluster``): config/spec validation, the
PaxosLease negotiation, workload correctness, determinism, trace
events, and the CLI surface."""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.cluster import (Cluster, ClusterConfig, bench_cluster,
                           build_cluster, node_seed, parse_cluster_spec,
                           verify_cluster_counters)
from repro.config import MachineConfig
from repro.errors import ConfigError, SimulationError
from repro.trace.bus import Tracer
from repro.trace.events import (ClusterLeaseAcquired, ClusterLeaseReleased,
                                NodeMsgSent, PaxosRoundStarted)

FAULTY_SPEC = ("loss:p=0.1;dup:p=0.05;partition:p=0.05,len=2000,check=400;"
               "skew:40;delay:min=60,max=160")


def _mc(threads: int = 2, seed: int = 1) -> MachineConfig:
    cfg = MachineConfig(num_cores=threads, seed=seed)
    return replace(cfg, lease=replace(cfg.lease, enabled=True))


# -- spec + config validation -------------------------------------------------

def test_parse_cluster_spec_full():
    spec = parse_cluster_spec(FAULTY_SPEC)
    assert spec.loss_p == 0.1
    assert spec.dup_p == 0.05
    assert spec.partition_p == 0.05
    assert spec.partition_len == 2000
    assert spec.partition_check == 400
    assert spec.skew == 40
    assert (spec.delay_min, spec.delay_max) == (60, 160)


def test_parse_cluster_spec_empty_means_reliable():
    spec = parse_cluster_spec("")
    assert spec.loss_p == 0.0 and spec.dup_p == 0.0
    assert spec.partition_p == 0.0 and spec.skew == 0


@pytest.mark.parametrize("bad", [
    "bogus:x=1",
    "loss:p=1.5",
    "loss:p=0.1;loss:p=0.2",
    "partition:p=0.1",          # missing len
    "delay:min=100,max=50",     # inverted range
])
def test_parse_cluster_spec_rejects(bad):
    with pytest.raises(ConfigError):
        parse_cluster_spec(bad)


def test_cluster_config_rejects_bad_nodes():
    with pytest.raises(ConfigError, match="--nodes must be >= 1, got 0"):
        ClusterConfig(nodes=0)
    with pytest.raises(ConfigError, match="--nodes must be >= 1, got -2"):
        ClusterConfig(nodes=-2)


def test_cluster_config_rejects_bad_quorum():
    with pytest.raises(ConfigError):
        ClusterConfig(nodes=3, quorum=4)
    with pytest.raises(ConfigError):
        ClusterConfig(nodes=3, quorum=0)


def test_cluster_config_rejects_skew_swallowing_lease():
    with pytest.raises(ConfigError):
        ClusterConfig(nodes=2, lease_cycles=100, renew_margin=10,
                      cluster_spec="skew:60")


def test_cluster_config_majority_quorum():
    assert ClusterConfig(nodes=1).effective_quorum == 1
    assert ClusterConfig(nodes=2).effective_quorum == 2
    assert ClusterConfig(nodes=3).effective_quorum == 2
    assert ClusterConfig(nodes=5).effective_quorum == 3
    assert ClusterConfig(nodes=3, quorum=3).effective_quorum == 3


def test_node_seeds_distinct_and_nonzero():
    seeds = [node_seed(1, n) for n in range(8)]
    assert len(set(seeds)) == 8
    assert all(s > 0 for s in seeds)


def test_member_machine_rejects_own_strategy():
    cluster = Cluster(ClusterConfig(nodes=2, machine=_mc()))
    from repro.core.machine import Machine

    with pytest.raises(SimulationError, match="shared simulator"):
        Machine(_mc(), schedule_strategy=object(), sim=cluster.sim)


# -- workload correctness -----------------------------------------------------

def test_counter_workload_every_increment_lands_once():
    res = bench_cluster(2, structure="counter", nodes=3, objects=2,
                        ops_per_thread=5, config=_mc())
    # bench_cluster already asserts the shard sum internally; check the
    # headline numbers too.
    assert res.ops == 3 * 2 * 5
    assert res.extra["nodes"] == 3
    assert res.extra["cluster_leases_acquired"] >= 2


def test_counter_workload_under_faults():
    res = bench_cluster(2, structure="counter", nodes=3, objects=2,
                        ops_per_thread=5, cluster_spec=FAULTY_SPEC,
                        lease_cycles=4_000, renew_margin=1_000,
                        config=_mc())
    assert res.ops == 3 * 2 * 5
    assert res.extra["node_msgs_dropped"] > 0


def test_treiber_workload_completes():
    res = bench_cluster(2, structure="treiber", nodes=2, objects=2,
                        ops_per_thread=4, config=_mc())
    assert res.ops == 2 * 2 * 4
    assert res.extra["paxos_rounds"] >= 2


def test_guard_denial_when_lease_expires_mid_burst():
    # Tiny lease, long bursts, lossy network: some guards must observe an
    # expired cluster lease and force a re-acquire.
    res = bench_cluster(2, structure="counter", nodes=3, objects=1,
                        ops_per_thread=12, burst=12,
                        cluster_spec="loss:p=0.25;delay:min=100,max=400",
                        lease_cycles=1_200, renew_margin=300,
                        config=_mc())
    assert res.ops == 3 * 2 * 12
    assert (res.extra["cluster_guard_denied"]
            + res.extra["cluster_leases_expired"]) > 0


def test_unknown_structure_rejected():
    with pytest.raises(SimulationError, match="unknown cluster structure"):
        build_cluster(ClusterConfig(nodes=2, machine=_mc()),
                      structure="btree")


def test_verify_cluster_counters_catches_tampering():
    cluster, info = build_cluster(ClusterConfig(nodes=2, machine=_mc()),
                                  structure="counter", ops_per_thread=3)
    cluster.run()
    verify_cluster_counters(cluster, info)
    addr = info["shards_per_node"][0][0]
    cluster.nodes[0].memory.write(addr, cluster.nodes[0].peek(addr) + 1)
    with pytest.raises(SimulationError, match="counter mismatch"):
        verify_cluster_counters(cluster, info)


# -- determinism --------------------------------------------------------------

def _result_dict(res):
    return dataclasses.asdict(res)


def test_same_seed_same_result():
    a = bench_cluster(2, nodes=3, ops_per_thread=5,
                      cluster_spec=FAULTY_SPEC, lease_cycles=4_000,
                      renew_margin=1_000, config=_mc(seed=9))
    b = bench_cluster(2, nodes=3, ops_per_thread=5,
                      cluster_spec=FAULTY_SPEC, lease_cycles=4_000,
                      renew_margin=1_000, config=_mc(seed=9))
    assert _result_dict(a) == _result_dict(b)


def test_different_seed_different_schedule():
    a = bench_cluster(2, nodes=3, ops_per_thread=5,
                      cluster_spec=FAULTY_SPEC, lease_cycles=4_000,
                      renew_margin=1_000, config=_mc(seed=9))
    b = bench_cluster(2, nodes=3, ops_per_thread=5,
                      cluster_spec=FAULTY_SPEC, lease_cycles=4_000,
                      renew_margin=1_000, config=_mc(seed=10))
    assert _result_dict(a) != _result_dict(b)


# -- trace events + counters --------------------------------------------------

class _Recorder(Tracer):
    def __init__(self):
        self.events = []

    def on_event(self, ev):
        self.events.append(ev)


def test_cluster_bus_emits_typed_events():
    rec = _Recorder()
    bench_cluster(2, nodes=2, ops_per_thread=4, config=_mc(),
                  sinks=[rec])
    kinds = {type(e) for e in rec.events}
    assert NodeMsgSent in kinds
    assert PaxosRoundStarted in kinds
    assert ClusterLeaseAcquired in kinds
    assert ClusterLeaseReleased in kinds


def test_cluster_counters_reconcile_with_events():
    rec = _Recorder()
    res = bench_cluster(2, nodes=3, ops_per_thread=4,
                        cluster_spec=FAULTY_SPEC, lease_cycles=4_000,
                        renew_margin=1_000, config=_mc(), sinks=[rec])
    sent = sum(1 for e in rec.events if type(e) is NodeMsgSent)
    rounds = sum(1 for e in rec.events if type(e) is PaxosRoundStarted)
    grants = sum(1 for e in rec.events if type(e) is ClusterLeaseAcquired)
    assert res.extra["node_msgs"] == sent
    assert res.extra["paxos_rounds"] == rounds
    assert res.extra["cluster_leases_acquired"] == grants


def test_merged_counters_rekey_per_core_ops():
    cluster, _ = build_cluster(
        ClusterConfig(nodes=2, machine=_mc(threads=2)),
        structure="counter", ops_per_thread=3)
    cluster.run()
    merged = cluster.merged_counters()
    assert set(merged.per_core_ops) == {0, 1, 2, 3}
    assert sum(merged.per_core_ops.values()) == merged.ops_completed


# -- CLI surface --------------------------------------------------------------

def test_cli_run_cluster_experiment(capsys):
    rc = main(["run", "cluster_shards", "--threads", "2", "--nodes", "3",
               "--metric", "mops_per_sec"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "counter" in out and "treiber" in out


def test_cli_run_rejects_nodes_zero(capsys):
    assert main(["run", "cluster_shards", "--threads", "2",
                 "--nodes", "0"]) == 2
    err = capsys.readouterr().err
    assert "--nodes must be >= 1, got 0" in err


def test_cli_run_rejects_nodes_noninteger(capsys):
    assert main(["run", "cluster_shards", "--threads", "2",
                 "--nodes", "two"]) == 2
    assert "--nodes:" in capsys.readouterr().err


def test_cli_run_rejects_nodes_on_noncluster_experiment(capsys):
    assert main(["run", "fig2_stack", "--threads", "2",
                 "--nodes", "2"]) == 2
    assert "not a cluster experiment" in capsys.readouterr().err


def test_cli_check_list_targets_includes_cluster(capsys):
    assert main(["check", "--list-targets"]) == 0
    out = capsys.readouterr().out
    assert "cluster_lease" in out
    assert "PaxosLease" in out


def test_cli_bench_list_includes_cluster_scale(capsys):
    assert main(["bench", "--list"]) == 0
    assert "cluster_scale" in capsys.readouterr().out


def test_cli_check_cluster_rejects_bad_flags(capsys):
    assert main(["check", "cluster_lease", "--nodes", "0"]) == 2
    assert "--nodes must be >= 1" in capsys.readouterr().err
    assert main(["check", "cluster_lease", "--cluster", "bogus:x=1"]) == 2
    assert "--cluster:" in capsys.readouterr().err
    assert main(["check", "cluster_lease", "--quorum", "q"]) == 2
    assert "--quorum:" in capsys.readouterr().err
    assert main(["check", "cluster_lease", "--structure", "btree"]) == 2
    assert "--structure:" in capsys.readouterr().err
    assert main(["check", "cluster_lease", "--faults", "timer_skew:4"]) == 2
    assert "--cluster SPEC" in capsys.readouterr().err
