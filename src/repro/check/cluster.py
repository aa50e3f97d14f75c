"""The cluster check target: PaxosLease safety under an unkind network.

The property is the one PaxosLease exists to provide: **at most one node
holds the cluster lease on an object at any instant**
(:class:`~repro.check.properties.ClusterLeaseSafetyTracer`).
:class:`ClusterTarget` is what ``python -m repro check cluster_lease``
runs, through the same schedule loop, checks, shrinker and replay as the
table targets (:mod:`repro.check.campaign`).  Its schedules are a small
contended cluster workload under a grid of network weather (message
loss, duplication, partitions, timer skew) and cluster sizes; every run
also re-checks the usual per-node machinery -- coherence invariants at
quiescence and the sharded-counter sum (each increment lands exactly
once).  A failure's decision map is ddmin-shrunk, resuming each replay
from checkpoints of the prefix it shares (``Cluster.state_dict()``), and
the repro file (format ``repro-cluster/1``) replays with ``repro check
replay``.

The deliberate-bug check rides along: ``quorum=1`` on a multi-node
cluster breaks quorum intersection, and the same campaign must catch the
resulting double grant -- CI runs that negative as a self-test of the
tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..cluster import ClusterConfig, build_cluster, verify_cluster_counters
from ..config import LeaseConfig, MachineConfig
from ..errors import ReproError
from .campaign import Trial, repro_field
from .properties import ClusterLeaseSafetyTracer

__all__ = ["CLUSTER_REPRO_FORMAT", "CLUSTER_SPEC_GRID", "NODE_GRID",
           "ClusterTarget", "cluster_config_for"]

CLUSTER_REPRO_FORMAT = "repro-cluster/1"

#: Campaign workload shape: small and contended -- few objects, every
#: node's threads fighting over them, leases short enough to expire
#: mid-run.
THREADS_PER_NODE = 2
OPS = 4
LEASE_CYCLES = 3_000
RENEW_MARGIN = 800
INTRA_LEASE_TIME = 600

#: Network-weather grid the campaign cycles through when no explicit
#: ``--cluster`` spec pins one: reliable, lossy, duplicating, skewed,
#: partitioned, and the lot at once.
CLUSTER_SPEC_GRID: tuple[str, ...] = (
    "",
    "loss:p=0.12",
    "dup:p=0.12",
    "skew:80",
    "loss:p=0.15;dup:p=0.08;skew:100",
    "partition:p=0.08,len=1500,check=300",
    "loss:p=0.10;dup:p=0.05;partition:p=0.06,len=2000,check=400;"
    "skew:120;delay:min=40,max=200",
)

#: Cluster sizes the campaign cycles through when ``nodes`` is None.
NODE_GRID: tuple[int, ...] = (2, 3, 4, 5)


def cluster_config_for(*, nodes: int, cluster_spec: str, seed: int,
                       quorum: int | None = None) -> ClusterConfig:
    """The campaign's cluster shape: tight budgets so a stuck negotiation
    surfaces as SimulationTimeout instead of hanging the fuzzer."""
    mc = MachineConfig(
        num_cores=THREADS_PER_NODE,
        lease=LeaseConfig(enabled=True, max_lease_time=INTRA_LEASE_TIME),
        max_cycles=3_000_000,
        max_events=3_000_000,
        seed=seed,
    )
    return ClusterConfig(nodes=nodes, objects=2, machine=mc,
                         lease_cycles=LEASE_CYCLES,
                         renew_margin=RENEW_MARGIN,
                         cluster_spec=cluster_spec, quorum=quorum,
                         seed=seed)


@dataclass(frozen=True)
class ClusterTarget:
    """The cluster campaign as a check target.  With ``nodes`` /
    ``cluster_spec`` left as None its schedules sweep :data:`NODE_GRID` x
    :data:`CLUSTER_SPEC_GRID`; pinning either narrows the sweep to it.
    ``quorum`` is forwarded verbatim -- 1 on a multi-node cluster is the
    broken-quorum negative the campaign must catch."""

    structure: str = "counter"
    nodes: int | None = None
    cluster_spec: str | None = None
    quorum: int | None = None

    #: The cluster drives its own workload; ``--traffic`` does not apply.
    open_loop = False
    #: What a run that never quiesces most likely hit.
    stall = "stuck negotiation?"

    @property
    def name(self) -> str:
        return f"cluster_{self.structure}"

    def schedule(self, index: int, seed: int, fault_spec: str
                 ) -> tuple[str, ClusterConfig]:
        """Schedule ``index``'s grid cell, labelled ``n<nodes>[/<spec>]``,
        and its cluster config, seeded ``seed``."""
        if fault_spec:
            raise ReproError(
                f"check {self.name}: inter-node faults come from the "
                f"cluster spec, not a fault spec ({fault_spec!r})")
        n = (self.nodes if self.nodes is not None
             else NODE_GRID[index % len(NODE_GRID)])
        spec = (self.cluster_spec if self.cluster_spec is not None
                else CLUSTER_SPEC_GRID[(index // len(NODE_GRID))
                                       % len(CLUSTER_SPEC_GRID)])
        return (f"n{n}" + (f"/{spec}" if spec else ""),
                cluster_config_for(nodes=n, cluster_spec=spec, seed=seed,
                                   quorum=self.quorum))

    def start(self, variant: str, ccfg: ClusterConfig, strategy: Any,
              traffic: str = "") -> Trial:
        """One schedule: lease safety is checked as it runs; at quiescence
        the coherence invariants and the counter sum must hold."""
        cluster, info = build_cluster(
            ccfg, structure=self.structure, ops_per_thread=OPS,
            intra_lease_time=INTRA_LEASE_TIME, schedule=strategy)
        safety = cluster.attach_tracer(ClusterLeaseSafetyTracer())

        def settle() -> None:
            cluster.check_coherence_invariants()
            verify_cluster_counters(cluster, info)

        def verdict() -> tuple[str, str]:
            return ("pass",
                    f"lease-safe ({safety.acquires_checked} grants checked)")

        return Trial(cluster, safety,
                     lambda: cluster.merged_counters().ops_completed,
                     settle, verdict)

    def repro_fields(self, variant: str, ccfg: ClusterConfig,
                     traffic: str) -> dict:
        return {"format": CLUSTER_REPRO_FORMAT, "structure": self.structure,
                "nodes": ccfg.nodes, "quorum": self.quorum,
                "cluster_spec": ccfg.cluster_spec}

    @staticmethod
    def describe(repro: dict) -> str:
        return (f"cluster structure={repro.get('structure', 'counter')} "
                f"nodes={repro.get('nodes')} quorum={repro.get('quorum')}")

    @staticmethod
    def from_repro(repro: dict
                   ) -> tuple[ClusterTarget, str, ClusterConfig, str]:
        """``(target, variant, ccfg, traffic)`` of a ``repro-cluster/1``
        document: the target pinned to its nodes, spec and quorum."""
        quorum = repro.get("quorum")
        target = ClusterTarget(
            structure=repro.get("structure", "counter"),
            nodes=int(repro["nodes"]),
            cluster_spec=repro_field(repro, CLUSTER_REPRO_FORMAT,
                                     "cluster_spec", ""),
            quorum=int(quorum) if quorum is not None else None)
        variant, ccfg = target.schedule(0, int(repro["machine_seed"]), "")
        return target, variant, ccfg, ""
