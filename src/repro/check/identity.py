"""Identity harness: transformations that must not change a simulation.

``python -m repro check identity --budget N --seed S`` draws one cell per
round (an experiment arm, threads, protocol, faults, ``--network``,
``--traffic`` when the driver takes one, a schedule strategy) and runs it
through :func:`repro.harness.runner.sweep` with a run hook at the
:mod:`repro.state.hooks` seam, the path ``run`` takes.  The axes --
``restore`` (``--checkpoint-every``, then ``--resume``), ``infinite``
(``network="infinite"`` against no spec), ``cluster`` (a
``Cluster.state_dict()`` roundtrip, every fifth round) and ``jobs``
(serial against 2 workers, once) -- must leave the ``RunResult``, the
events processed and the final cycle unchanged.  The first divergence
stops the run with a ``repro-identity/1`` document that
:func:`replay_identity` re-runs.  See DESIGN.md section 12.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import random
import tempfile
from collections import Counter
from dataclasses import dataclass, field

from ..config import MachineConfig, NetworkConfig
from ..harness import EXPERIMENTS
from ..harness.runner import sweep
from ..state import CheckpointPolicy, hooks
from .campaign import RunOutcome, malformed_repro
from .cluster import CLUSTER_SPEC_GRID
from .perturb import PctStrategy, RandomStrategy

__all__ = ["IDENTITY_FORMAT", "IdentityReport", "draw_cell", "run_identity",
           "replay_identity"]

IDENTITY_FORMAT = "repro-identity/1"

FAULT_SPECS = ("", "net_jitter:p=0.1,max=40", "dir_nack:p=0.05;timer_skew:4",
               "link_degrade:p=0.3,factor=4",
               "net_jitter:p=0.02,max=120;dir_nack:p=0.01;"
               "link_degrade:p=0.2,factor=2,queue=2")

#: Campaign-small workload sizes, passed wherever the driver takes them.
SIZES = {"ops_per_thread": (6, 16), "txns_per_thread": (6, 16),
         "num_pages": (32, 64), "iterations": (1, 2)}

#: Arms drawn at 2 or 4 threads only.  At 8 threads they starve:
#: s1_snapshot/double_collect runs 1.2M cycles on the plain mesh (over
#: 40 s under a saturating link spec) and a3_misuse/misuse 4.3M cycles
#: (about 6 s); both finish in under 1 s at 4 threads.
FEW_THREADS = {("s1_snapshot", "double_collect"), ("a3_misuse", "misuse")}

STRATEGIES = {"none": None, "random": RandomStrategy, "pct": PctStrategy}

#: The keys of every drawn cell; cluster cells add nodes and cluster_spec.
CELL_KEYS = ("experiment", "arm", "threads", "protocol", "seed", "faults",
             "network", "traffic", "strategy", "size")


def _net_spec(rng: random.Random) -> str:
    link = f"link:bw={rng.randint(1, 3)}" + rng.choice(
        ("", ",queue=2", ",queue=8", ",flits=4", ",queue=4,flits=8"))
    arb = rng.choice(("arb:fifo", "arb:priority",
                      f"arb:wrr,weights={rng.randint(1, 3)}:"
                      f"{rng.randint(1, 2)}"))
    port = rng.choice(("", f";port:dir={rng.randint(1, 2)},mem="
                           f"{rng.choice((2, 4))},queue={rng.choice((2, 4))}"))
    return f"{link};{arb}{port}"


def _traffic_spec(rng: random.Random) -> str:
    rate = rng.choice((1.0, 2.0, 4.0, 8.0))
    return ",".join(filter(None, (
        rng.choice((f"poisson:rate={rate}", f"ramp:rate={rate},period=800",
                    f"burst:rate={rate},on=300,off=500")),
        rng.choice(("", "zipf:s=1.2", "hotset:frac=0.9,size=4,shift=64")),
        rng.choice(("", "tenants=2", "tenants=3")),
        f"queue={rng.choice((4, 8, 16))}")))


def draw_cell(rng: random.Random, *, cluster: bool = False) -> dict:
    """A JSON-safe cell, drawn uniformly over every arm of the
    single-machine experiments, or with ``cluster`` of the cluster
    experiments (those with ``nodes`` in their common kwargs)."""
    exp_id, arm = rng.choice([(e, a) for e, x in EXPERIMENTS.items()
                              if ("nodes" in x.common) == cluster
                              for a in x.variants])
    params = inspect.signature(EXPERIMENTS[exp_id].bench).parameters
    few = cluster or (exp_id, arm) in FEW_THREADS
    cell = {
        "experiment": exp_id, "arm": arm,
        "threads": rng.choice((2, 4) if few else (2, 4, 8)),
        "protocol": rng.choice(("msi", "mesi")),
        "seed": rng.randrange(1, 10_000),
        "faults": rng.choice(FAULT_SPECS),
        "network": _net_spec(rng) if rng.random() < 0.45 else "",
        "traffic": (_traffic_spec(rng)
                    if "traffic" in params and rng.random() < 0.7 else ""),
        "strategy": rng.choice(list(STRATEGIES)),
        "size": {k: rng.randint(lo, hi) for k, (lo, hi) in SIZES.items()
                 if k in params},
    }
    if cluster:
        cell.update(nodes=rng.choice((2, 3, 4)),
                    cluster_spec=rng.choice(CLUSTER_SPEC_GRID))
    return cell


def _common(cell: dict) -> dict:
    """The sweep's common kwargs: the experiment's own, then the cell's
    sizes, config, traffic, cluster shape and strategy."""
    cfg = MachineConfig(protocol=cell["protocol"], seed=cell["seed"],
                        fault_spec=cell["faults"],
                        network=NetworkConfig(spec=cell["network"]))
    common = {**EXPERIMENTS[cell["experiment"]].common, **cell["size"],
              "config": cfg}
    if cell["traffic"]:
        common["traffic"] = cell["traffic"]
    if "nodes" in cell:
        common.update(nodes=cell["nodes"], cluster_spec=cell["cluster_spec"])
    if STRATEGIES[cell["strategy"]] is not None:
        common["schedule"] = STRATEGIES[cell["strategy"]](cell["seed"])
    return common


def _run(cell: dict, inner=None) -> dict:
    """Run one cell through ``sweep`` with ``inner(machine)`` (default:
    ``machine.run()``) as the run hook; returns the compared record."""
    seen = []

    def hook(owner) -> None:     # a Machine, or a Cluster for cluster cells
        (inner or type(owner).run)(owner)
        seen.append((owner.sim.events_processed, owner.sim.now))

    exp, arm = EXPERIMENTS[cell["experiment"]], cell["arm"]
    prev, hooks.run_hook = hooks.run_hook, hook
    try:
        res = sweep(exp.bench, {arm: exp.variants[arm]}, (cell["threads"],),
                    **_common(cell))
    finally:
        hooks.run_hook = prev
    return {**dataclasses.asdict(res[arm][0]),
            "events_processed": seen[0][0], "final_cycle": seen[0][1]}


# -- axes: each returns ``(leg, reference, record)`` for its first leg whose
# record differs from the reference, else for its last leg.  A record of
# None means the leg could not run as drawn.

def _restore(cell: dict, straight: dict, *, every: int, pick: int):
    with tempfile.TemporaryDirectory() as tmp:
        sliced = CheckpointPolicy(every=every, directory=tmp)
        got = _run(cell, sliced)
        if not sliced.saved:
            return "the --checkpoint-every run saved nothing", straight, None
        if got != straight:
            return "the --checkpoint-every run", straight, got
        resume = CheckpointPolicy(
            resume_path=sliced.saved[pick % len(sliced.saved)])
        got = _run(cell, resume)
    if not resume.resume_consumed:
        return (f"the --resume run restored nothing "
                f"({resume.last_mismatch})", straight, None)
    return "the --resume run", straight, got


def _infinite(cell: dict, straight: dict):
    return ("the network=infinite run", straight,
            _run(dict(cell, network="infinite")))


def _cluster(cell: dict, straight: dict, *, cut: int):
    saved = []

    def save_at_cut(cluster) -> None:
        cluster.enable_checkpointing()
        cluster.run(until=cut)
        saved.append(json.dumps(cluster.state_dict()))
        cluster.run()

    def restore(cluster) -> None:
        cluster.load_state(json.loads(saved[0]))
        cluster.run()

    got = _run(cell, save_at_cut)
    if got != straight:
        return "the checkpointed run", straight, got
    return "the restored run", straight, _run(cell, restore)


def _jobs(cell: dict, straight: None):
    exp = EXPERIMENTS[cell["experiment"]]
    serial, fanned = ({f"{arm}@t={r.num_threads}": dataclasses.asdict(r)
                       for arm, series in sweep(
                           exp.bench, exp.variants, (2, 4), jobs=jobs,
                           **_common(cell)).items()
                       for r in series} for jobs in (1, 2))
    return "the --jobs 2 sweep", serial, fanned


AXES = {"restore": _restore, "infinite": _infinite, "cluster": _cluster,
        "jobs": _jobs}


def _params(axis: str, rng: random.Random, straight: dict | None) -> dict:
    """Draw an axis's parameters; cuts scale with the straight run."""
    cycle = straight["final_cycle"] if straight else 0
    if axis == "restore":
        return {"every": max(1, cycle * rng.randint(2, 4) // 8),
                "pick": rng.randrange(8)}
    if axis == "cluster":
        return {"cut": max(1, cycle * rng.randint(1, 7) // 8)}
    return {}


def _detail(cell: dict, leg: str, reference: dict, got: dict) -> str:
    """The cell, the diverging leg and the fields it differs in."""
    specs = "".join(f" {k}={cell[k]!r}" for k in ("nodes", "faults",
                    "network", "traffic", "cluster_spec") if cell.get(k))
    fields = ", ".join(sorted(k for k in set(reference) | set(got or ())
                              if got and reference.get(k) != got.get(k)))
    return (f"{cell['experiment']}/{cell['arm']} t={cell['threads']}{specs}: "
            f"{leg}" + (f" differs in: {fields}" if fields else ""))


# -- the harness --------------------------------------------------------------

@dataclass
class IdentityReport:
    """What a ``check identity`` invocation covered and found."""

    rounds: int = 0
    counts: Counter = field(default_factory=Counter)
    arms: set = field(default_factory=set)
    repro: dict | None = None   # the first divergence's document

    def summary(self) -> str:
        k = self.counts
        return (f"check identity: {self.rounds} round(s) over "
                f"{len({e for e, _ in self.arms})} experiment(s), "
                f"{len(self.arms)} arm(s): restore {k['restore']} (traffic "
                f"{k['traffic']}, network {k['network']}, 8 threads "
                f"{k['8 threads']}), infinite {k['infinite']}, cluster "
                f"{k['cluster']}, jobs {k['jobs']}")


def run_identity(*, budget: int = 100, seed: int = 1) -> IdentityReport:
    """Run ``budget`` rounds, every fifth a cluster round, then the jobs
    sweep; stop at the first divergence."""
    rng = random.Random(seed)
    report = IdentityReport()
    for i in range(budget + 1):
        if i < budget:
            report.rounds += 1
            cell = draw_cell(rng, cluster=i % 5 == 4)
            straight = _run(cell)
            axes = ["cluster" if "nodes" in cell else "restore"]
            axes += [] if cell["network"] else ["infinite"]
        else:   # once per invocation, without a strategy: a serial sweep
            # carries one strategy's RNG from cell to cell, workers do not
            cell = dict(draw_cell(rng), strategy="none")
            straight, axes = None, ["jobs"]
        report.arms.add((cell["experiment"], cell["arm"]))
        for axis in axes:
            report.counts[axis] += 1
            if axis == "restore":
                report.counts.update(
                    [k for k in ("traffic", "network") if cell[k]]
                    + ["8 threads"] * (cell["threads"] == 8))
            p = _params(axis, rng, straight)
            leg, reference, got = AXES[axis](cell, straight, **p)
            if got != reference:
                report.repro = {
                    "format": IDENTITY_FORMAT, "axis": axis, "cell": cell,
                    "params": p, "seed": seed, "round": i,
                    "detail": _detail(cell, leg, reference, got),
                    "reference": reference, "got": got}
                return report
    return report


def replay_identity(doc: dict) -> RunOutcome:
    """Re-run a ``repro-identity/1`` document's cell on its axis."""
    try:
        axis, cell, p = doc["axis"], doc["cell"], doc["params"]
        inspect.signature(AXES[axis]).bind(cell, None, **p)
        missing = sorted(set(CELL_KEYS) - set(cell))
        if missing or cell["arm"] not in \
                EXPERIMENTS[cell["experiment"]].variants:
            raise KeyError(missing or cell["arm"])
    except (KeyError, TypeError) as err:
        raise malformed_repro(IDENTITY_FORMAT, err) from None
    leg, reference, got = AXES[axis](
        cell, None if axis == "jobs" else _run(cell), **p)
    return RunOutcome(ok=got == reference, kind=axis, ops=0, decided=True,
                      detail=_detail(cell, leg, reference, got))
