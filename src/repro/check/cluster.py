"""Fuzzing the cluster layer: PaxosLease safety under an unkind network.

The property is the one PaxosLease exists to provide: **at most one node
holds the cluster lease on an object at any instant**
(:class:`~repro.check.properties.ClusterLeaseSafetyTracer`).  A campaign
explores seeded schedules of a small contended cluster workload while
cycling through a grid of network weather (message loss, duplication,
partitions, timer skew) and cluster sizes; every run also re-checks the
usual per-node machinery -- coherence invariants at quiescence and the
sharded-counter sum (each increment lands exactly once).

Failures shrink exactly like the single-machine campaigns: the
perturbation strategy's decision map is minimized with ddmin under
:class:`~repro.check.perturb.ReplayStrategy`, and the repro file
(format ``repro-cluster/1``) replays with ``repro check replay``.

The deliberate-bug check rides along: :func:`run_cluster_campaign` with
``quorum=1`` on a multi-node cluster breaks quorum intersection, and the
same campaign must catch the resulting double grant -- CI runs that
negative as a self-test of the tracer.
"""

from __future__ import annotations

from typing import Any, Callable

from ..cluster import ClusterConfig, build_cluster, verify_cluster_counters
from ..config import LeaseConfig, MachineConfig
from ..errors import (LeaseError, ProtocolError, ReproError, SimulationError,
                      SimulationTimeout)
from .campaign import (CampaignReport, RunOutcome, _ddmin, _machine_seed,
                       _strategy_for, malformed_repro)
from .perturb import ReplayStrategy
from .properties import ClusterLeaseSafetyTracer, PropertyViolation

__all__ = ["CLUSTER_REPRO_FORMAT", "CLUSTER_SPEC_GRID", "NODE_GRID",
           "cluster_config_for", "run_cluster_once", "run_cluster_campaign",
           "replay_cluster_repro"]

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


def run_cluster_once(ccfg: ClusterConfig, strategy: Any, *,
                     structure: str = "counter") -> RunOutcome:
    """Run one schedule of the cluster workload and check everything:
    lease safety while the run executes, then coherence invariants and
    the counter sum at quiescence."""
    cluster, info = build_cluster(
        ccfg, structure=structure, ops_per_thread=OPS,
        intra_lease_time=INTRA_LEASE_TIME, schedule=strategy)
    safety = cluster.attach_tracer(ClusterLeaseSafetyTracer())

    def outcome(ok: bool, kind: str, detail: str) -> RunOutcome:
        return RunOutcome(
            ok=ok, kind=kind, detail=detail,
            ops=cluster.merged_counters().ops_completed,
            decided=True, decisions=dict(strategy.decisions),
            strategy=strategy.describe(), properties=safety.summary(),
            cycles=cluster.now)

    try:
        cluster.run()
        cluster.check_coherence_invariants()
        verify_cluster_counters(cluster, info)
    except SimulationTimeout as exc:
        return outcome(False, "timeout",
                       f"no quiescence (stuck negotiation?): {exc}")
    except (PropertyViolation, ProtocolError, LeaseError) as exc:
        return outcome(False, "property", str(exc))
    except SimulationError as exc:
        return outcome(False, "history", str(exc))
    return outcome(True, "pass",
                   f"lease-safe ({safety.acquires_checked} grants checked)")


def _shrink_cluster_failure(ccfg: ClusterConfig, structure: str,
                            decisions: dict[int, int], *,
                            max_runs: int = 120) -> tuple[dict[int, int], int]:
    """ddmin the failing decision map by full replay (cluster runs are
    small; prefix-restore is not worth the state plumbing here)."""
    items = sorted(decisions.items())
    if not items:
        return {}, 0

    def fails(subset: dict[int, int]) -> bool:
        return not run_cluster_once(ccfg, ReplayStrategy(subset),
                                    structure=structure).ok

    if fails({}):
        # The unperturbed run fails too: the schedule was never the
        # trigger, so the minimal repro is the empty decision map.
        return {}, 1
    shrunk, runs = _ddmin(items, fails, max_runs)
    return dict(shrunk), runs + 1


def run_cluster_campaign(*, budget: int = 50, seed: int = 1,
                         nodes: int | None = None,
                         cluster_spec: str | None = None,
                         quorum: int | None = None,
                         structure: str = "counter",
                         shrink: bool = True, shrink_runs: int = 120,
                         progress: Callable[[str], None] | None = None
                         ) -> CampaignReport:
    """Explore ``budget`` schedules of the cluster workload; stop at the
    first failure (shrunk to a minimal replayable repro).  With ``nodes``
    / ``cluster_spec`` left as None the campaign sweeps
    :data:`NODE_GRID` x :data:`CLUSTER_SPEC_GRID`; pinning either
    narrows the sweep to it.  ``quorum`` is forwarded verbatim -- pass 1
    on a multi-node cluster to confirm the campaign catches a broken
    quorum."""
    report = CampaignReport(target=f"cluster_{structure}", seed=seed,
                            budget=budget)
    for i in range(budget):
        n = nodes if nodes is not None else NODE_GRID[i % len(NODE_GRID)]
        spec = (cluster_spec if cluster_spec is not None
                else CLUSTER_SPEC_GRID[(i // len(NODE_GRID))
                                       % len(CLUSTER_SPEC_GRID)])
        ccfg = cluster_config_for(nodes=n, cluster_spec=spec,
                                  seed=_machine_seed(seed, i),
                                  quorum=quorum)
        variant = f"n{n}" + (f"/{spec}" if spec else "")
        out = run_cluster_once(ccfg, _strategy_for(seed, i),
                               structure=structure)
        report.schedules_run += 1
        report.histories_checked += 1
        report.ops_checked += out.ops
        report.per_variant[variant] = report.per_variant.get(variant, 0) + 1
        if out.ok:
            continue
        report.failure = out
        if progress:
            progress(f"schedule {i} [{variant}] failed ({out.kind}): "
                     f"{out.detail}")
        decisions = out.decisions
        if shrink and decisions:
            if progress:
                progress(f"shrinking {len(decisions)} schedule decisions...")
            decisions, spent = _shrink_cluster_failure(
                ccfg, structure, decisions, max_runs=shrink_runs)
            report.shrink_runs = spent
            final = run_cluster_once(ccfg, ReplayStrategy(decisions),
                                     structure=structure)
            if not final.ok:
                report.failure = final
        report.repro = {
            "format": CLUSTER_REPRO_FORMAT,
            "structure": structure,
            "nodes": n,
            "quorum": quorum,
            "cluster_spec": spec,
            "campaign_seed": seed,
            "schedule_index": i,
            "machine_seed": ccfg.seed,
            "strategy": out.strategy,
            "decisions": {str(k): v for k, v in sorted(decisions.items())},
            "failure": {"kind": report.failure.kind,
                        "detail": report.failure.detail},
        }
        break
    return report


def replay_cluster_repro(repro: dict) -> RunOutcome:
    """Re-execute a ``repro-cluster/1`` repro dict deterministically."""
    if repro.get("format") != CLUSTER_REPRO_FORMAT:
        raise ReproError(
            f"not a {CLUSTER_REPRO_FORMAT} repro "
            f"(format={repro.get('format')!r})")
    quorum = repro.get("quorum")
    try:
        ccfg = cluster_config_for(
            nodes=int(repro["nodes"]),
            cluster_spec=repro.get("cluster_spec", ""),
            seed=int(repro["machine_seed"]),
            quorum=int(quorum) if quorum is not None else None)
        decisions = {int(k): int(v)
                     for k, v in repro.get("decisions", {}).items()}
    except (KeyError, TypeError, ValueError) as err:
        raise malformed_repro(CLUSTER_REPRO_FORMAT, err) from None
    return run_cluster_once(ccfg, ReplayStrategy(decisions),
                            structure=repro.get("structure", "counter"))
