"""Fuzzing campaigns: explore schedules, check each run, shrink failures.

A campaign runs one target under a budget of perturbed schedules.  A
target is a :class:`CheckTarget` (a row of the structure table at
campaign scale, on one machine) or a
:class:`~repro.check.cluster.ClusterTarget` (PaxosLease nodes on one
clock).  It supplies only what differs between the two:

* ``schedule(index, seed, fault_spec)`` -- schedule ``index``'s variant
  label and config;
* ``start(variant, cfg, strategy, traffic)`` -- one schedule, built and
  instrumented, and how it is judged (a :class:`Trial`);
* ``repro_fields``, ``describe`` and ``from_repro`` -- its repro format,
  written, announced and read back.

The rest is this module's, shared.  Each schedule:

1. builds a fresh machine or cluster with a derived seed and a
   perturbation strategy from
   :func:`~repro.check.perturb.strategy_for_schedule` (schedule 0 is
   always the unperturbed baseline);
2. checks the target's properties while the run executes (the lease
   properties, or cluster lease safety);
3. at quiescence, settles (coherence invariants, then the history or
   the counter sum) and judges (a table target searches for a
   linearization of the history against its sequential model).

On a failure the campaign *shrinks* the strategy's recorded decision map
with ddmin -- re-running the workload under :class:`ReplayStrategy` with
ever-smaller decision subsets, resuming from checkpoints of the prefix
they share -- and emits a repro dict that :func:`replay_repro` (or
``python -m repro check replay``) re-executes deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from ..config import LeaseConfig, MachineConfig
from ..core.machine import Machine
from ..errors import (LeaseError, ProtocolError, ReproError, SimulationError,
                      SimulationTimeout)
from ..core.isa import Load, Store, Work
from ..structures.counter import LockedCounter
from ..sync.locks import ReciprocatingLock, SPIN_PAUSE
from ..workloads.table import ZOO_ARMS, open_loop, populate
from .history import HistoryRecorder
from .linearize import check_history
from .models import CounterModel
from .perturb import ReplayStrategy, strategy_for_schedule
from .properties import LeasePropertyTracer, PropertyViolation

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import ClusterConfig
    from .cluster import ClusterTarget

__all__ = ["CheckTarget", "Trial", "RunOutcome", "CampaignReport",
           "TARGETS", "EXPERIMENT_ALIASES", "resolve_target", "run_once",
           "run_campaign", "replay_repro", "load_repro"]

REPRO_FORMAT = "repro-check/1"

#: Campaign workload shape: small and contended, and short enough that the
#: exact linearizability check always decides (4 threads x 8 ops = 32 ops).
THREADS = 4
OPS = 8
#: Lease length for leased variants: short, so expiries/breaks actually
#: happen inside these tiny runs.
LEASE_TIME = 600
#: Key range for open-loop (``--traffic``) campaign variants: small, so
#: the even/odd push-pop split and per-key op hashes stay contended.
TRAFFIC_KEY_RANGE = 16
#: The adaptive-lease arm's controller, tuned down to campaign scale so
#: expiries and contractions actually fire inside 32-op runs.
_ADAPTIVE = {"initial": 120, "min_time": 40, "max_time": LEASE_TIME,
             "pressure_high": 2}


def _cfg(*, leases: bool, mode: str = "hardware",
         max_lease_time: int = LEASE_TIME) -> MachineConfig:
    """Campaign machine: 4 cores, tight budgets so a deadlocked or
    livelocked schedule surfaces as SimulationTimeout in well under a
    second instead of hanging the fuzzer."""
    return MachineConfig(
        num_cores=THREADS,
        lease=LeaseConfig(enabled=leases, max_lease_time=max_lease_time,
                          multilease_mode=mode),
        max_cycles=3_000_000,
        max_events=3_000_000,
    )


class Trial(NamedTuple):
    """One schedule of a target, built and instrumented but not yet run:
    what :func:`run_once` runs, checks and reports."""

    owner: Any                                  #: the Machine or Cluster
    props: Any                                  #: its property tracer
    ops: Callable[[], int]                      #: operations completed
    settle: Callable[[], None]                  #: post-run checks (raise)
    verdict: Callable[[], tuple[str, str]]      #: (kind, detail) once settled


@dataclass(frozen=True)
class CheckTarget:
    """One fuzzable structure instance: a row of the structure table
    (:mod:`repro.workloads.table`) at campaign scale.

    ``configs`` maps variant names to machine configs; the campaign cycles
    through them across schedule indices.  A variant builds as the table
    variant ``arm`` when set, else as the table variant of its own name,
    with the target's ``prefill``, constructor ``knobs`` and worker
    ``sizes``.  ``experiments`` are the harness experiment ids ``repro
    check`` resolves to this target.  ``builder``, when set, replaces the
    table build (the must-fail target).
    """

    name: str
    title: str
    family: str
    configs: tuple[tuple[str, MachineConfig], ...]
    arm: str = ""
    prefill: tuple | None = None
    knobs: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    experiments: tuple[str, ...] = ()
    builder: Callable[[Machine, str], tuple] | None = None

    #: What a run that never quiesces most likely hit.
    stall = "deadlock/livelock?"

    @property
    def open_loop(self) -> bool:
        """Whether every variant runs under ``--traffic``."""
        return all(open_loop(self.family, self.arm or v)
                   for v, _ in self.configs)

    def config_for(self, variant: str) -> MachineConfig:
        for name, cfg in self.configs:
            if name == variant:
                return cfg
        raise ReproError(f"target {self.name!r} has no variant {variant!r}: "
                         f"choices are {[n for n, _ in self.configs]}")

    def schedule(self, index: int, seed: int, fault_spec: str
                 ) -> tuple[str, MachineConfig]:
        """Schedule ``index``'s variant (they take turns) and its machine
        config, seeded ``seed`` and run under ``fault_spec``."""
        variant, cfg = self.configs[index % len(self.configs)]
        return variant, replace(cfg, seed=seed, fault_spec=fault_spec)

    def start(self, variant: str, cfg: MachineConfig, strategy: Any,
              traffic: str = "") -> Trial:
        """One schedule, built, prefilled and spawned: the history and the
        lease properties are recorded as it runs; at quiescence the
        coherence invariants and the history's intervals must hold, and
        the history must linearize against the sequential model
        (preloaded with the prefill) to the final state read from the
        backing store -- the extra observation that catches lost
        updates."""
        m = Machine(cfg, schedule_strategy=strategy)
        hist = m.attach_tracer(HistoryRecorder())
        props = m.attach_tracer(LeasePropertyTracer())
        if self.builder is not None:
            model_factory, final_fn = self.builder(m, variant)
        else:
            built = populate(
                m, self.family, self.arm or variant, threads=THREADS,
                ops=OPS, prefill=self.prefill, traffic=traffic,
                traffic_keys=TRAFFIC_KEY_RANGE, adaptive=_ADAPTIVE,
                knobs=self.knobs, **self.sizes)
            model_factory, final_fn = built.model, built.final

        def settle() -> None:
            m.check_coherence_invariants()
            hist.validate()

        def verdict() -> tuple[str, str]:
            res = check_history(hist.records, model_factory,
                                final_state=final_fn())
            if not res.ok:
                return "linearizability", res.reason
            if not res.decided:
                return "inconclusive", res.reason
            return "pass", f"linearizable ({res.states_explored} states)"

        return Trial(m, props, lambda: len(hist.records), settle, verdict)

    def repro_fields(self, variant: str, cfg: MachineConfig,
                     traffic: str) -> dict:
        return {"format": REPRO_FORMAT, "target": self.name,
                "variant": variant, "fault_spec": cfg.fault_spec,
                "traffic": traffic}

    @staticmethod
    def describe(repro: dict) -> str:
        return (f"target={repro.get('target')} "
                f"variant={repro.get('variant')}")

    @staticmethod
    def from_repro(repro: dict
                   ) -> tuple[CheckTarget, str, MachineConfig, str]:
        """``(target, variant, cfg, traffic)`` of a ``repro-check/1``
        document."""
        target = resolve_target(repro["target"])
        variant = repro["variant"]
        cfg = replace(target.config_for(variant),
                      seed=int(repro["machine_seed"]),
                      fault_spec=repro_field(repro, REPRO_FORMAT,
                                             "fault_spec", ""))
        return (target, variant, cfg,
                repro_field(repro, REPRO_FORMAT, "traffic", ""))


# -- the must-fail target -----------------------------------------------------

class _BrokenReciprocatingLock(ReciprocatingLock):
    """DELIBERATELY BROKEN: acquisition is test-then-store instead of CAS,
    so two threads that both observe 0 both "acquire" and race the
    critical section.  Registered as the ``sync_zoo_broken`` must-fail
    target proving the zoo campaigns catch real mutual-exclusion
    violations."""

    def acquire(self, ctx):
        ctx.trace.lock_attempt(ctx.core_id)
        while True:
            cur = yield Load(self.addr)
            if cur == 0:
                # BUG (deliberate): the load-store window admits everyone
                # who raced past the load.
                yield Store(self.addr, self.TERM)
                return self.TERM
            ctx.trace.lock_failed(ctx.core_id)
            yield Work(SPIN_PAUSE)

    def release(self, ctx, token):
        yield Store(self.addr, 0)


def _build_zoo_broken(m: Machine, variant: str):
    c = LockedCounter(m, lock="reciprocating", critical_work=8)
    c.lock = _BrokenReciprocatingLock(m)
    for _ in range(THREADS):
        m.add_thread(c.update_worker, OPS)
    return lambda: CounterModel(0), lambda: m.peek(c.value_addr)


# -- targets ------------------------------------------------------------------

_BASE_LEASE = (("base", _cfg(leases=False)), ("lease", _cfg(leases=True)))
#: The zoo targets cycle their policies as variants, so a budget of 4*N
#: runs N perturbed schedules per policy.
_ZOO = tuple((arm, _cfg(leases=arm == "adaptive-lease")) for arm in ZOO_ARMS)
_LEASED = {"lease_time": LEASE_TIME}
_PAIRS = {"local_work": 4}
_STACK = (10_000, 10_001, 10_002)
_QUEUE = (20_000, 20_001, 20_002)
#: Prefill and worker sizes shared by the PQ targets and by the sets.
_PQ = {"prefill": (40_000, 40_002, 40_004, 40_006),
       "sizes": {"key_range": 64, "local_work": 4}}
_SET = {"prefill": (1, 4, 7, 10), "sizes": {"key_range": 12, "update_pct": 60}}

TARGETS: dict[str, CheckTarget] = {
    t.name: t for t in (
        CheckTarget(
            "treiber", "Treiber stack (Fig. 1 lease placement)", "stack",
            _BASE_LEASE, prefill=_STACK, knobs=_LEASED, sizes=_PAIRS,
            experiments=("fig2_stack", "e1_backoff", "e3_messages_per_op")),
        CheckTarget(
            "msqueue", "Michael-Scott queue, single-lease variant", "queue",
            _BASE_LEASE, prefill=_QUEUE, knobs=_LEASED, sizes=_PAIRS,
            experiments=("fig3_queue",)),
        CheckTarget(
            "multilease", "MS queue MultiLease variant (hw + sw emulation)",
            "queue", (("hw", _cfg(leases=True, mode="hardware")),
                      ("sw", _cfg(leases=True, mode="software"))),
            arm="multilease", prefill=(30_000, 30_001, 30_002),
            knobs=_LEASED, sizes=_PAIRS),
        CheckTarget(
            "counter", "Lock-protected counter (leased TTS lock)", "counter",
            _BASE_LEASE, arm="tts", knobs={"critical_work": 8},
            experiments=("fig3_counter",)),
        CheckTarget(
            "pq", "Global-lock skiplist priority queue", "pq", _BASE_LEASE,
            arm="globallock", experiments=("fig3_pq",), **_PQ),
        CheckTarget(
            "lotan", "Lotan-Shavit skiplist priority queue (literal)", "pq",
            _BASE_LEASE, arm="lotan", **_PQ),
        CheckTarget(
            "harris", "Harris lock-free list (set semantics)", "list",
            _BASE_LEASE, knobs=_LEASED,
            experiments=("e2_low_contention_list",), **_SET),
        CheckTarget(
            "skiplist", "Lock-free skiplist (set semantics)", "skiplist",
            _BASE_LEASE, knobs=_LEASED,
            experiments=("e2_low_contention_skiplist",), **_SET),
        CheckTarget(
            "hashtable", "Lock-striped hash table (set semantics)",
            "hashtable", _BASE_LEASE,
            experiments=("e2_low_contention_hashtable",), **_SET),
        CheckTarget(
            "bst", "External BST (set semantics)", "bst", _BASE_LEASE,
            experiments=("e2_low_contention_bst",), **_SET),
        CheckTarget(
            "sync_zoo_treiber", "Contention zoo: Treiber stack policies",
            "stack", _ZOO, prefill=_STACK, knobs=_LEASED, sizes=_PAIRS,
            experiments=("sync_ablation",)),
        CheckTarget(
            "sync_zoo_msqueue", "Contention zoo: MS queue policies", "queue",
            _ZOO, prefill=_QUEUE, knobs=_LEASED, sizes=_PAIRS),
        CheckTarget(
            "sync_zoo_counter", "Contention zoo: counter policies",
            "counter", _ZOO, knobs={"critical_work": 8}),
        CheckTarget(
            "sync_zoo_broken", "Must-fail: test-then-store lock (broken)",
            "counter", (("broken", _cfg(leases=False)),),
            arm="reciprocating", builder=_build_zoo_broken),
    )
}

#: ``repro check <experiment>`` accepts harness experiment ids too.
EXPERIMENT_ALIASES: dict[str, str] = {
    exp: t.name for t in TARGETS.values() for exp in t.experiments}
#: The targets ``--traffic`` applies to.
OPEN_LOOP_TARGETS = tuple(sorted(n for n, t in TARGETS.items()
                                 if t.open_loop))


def resolve_target(name: str) -> CheckTarget:
    key = EXPERIMENT_ALIASES.get(name, name)
    try:
        return TARGETS[key]
    except KeyError:
        choices = sorted(set(TARGETS) | set(EXPERIMENT_ALIASES))
        raise ReproError(
            f"unknown check target {name!r}: choices are "
            f"{', '.join(choices)}") from None


# -- single run ---------------------------------------------------------------

@dataclass
class RunOutcome:
    """Result of checking one schedule."""

    ok: bool
    kind: str                   #: pass | inconclusive | linearizability |
                                #: timeout | property | history
    detail: str
    ops: int
    decided: bool
    decisions: dict[int, int] = field(default_factory=dict)
    strategy: dict = field(default_factory=dict)
    properties: dict = field(default_factory=dict)
    cycles: int = 0             #: final simulation cycle of the run


def run_once(target: CheckTarget | ClusterTarget, variant: str,
             cfg: MachineConfig | ClusterConfig,
             strategy: ReplayStrategy | Any, *,
             traffic: str = "",
             checkpoint_every: int | None = None,
             checkpoints: list | None = None,
             restore_from: dict | None = None) -> RunOutcome:
    """Run one schedule of ``target`` (a :class:`CheckTarget` or a
    :class:`~repro.check.cluster.ClusterTarget`) and check everything it
    knows how to check: its properties during the run, then at quiescence
    its settle checks and its verdict (:class:`Trial`).

    Checkpoint hooks (used by the prefix-restore shrinker): with
    ``checkpoints`` (a list to fill) and ``checkpoint_every`` set, the run
    is sliced and ``(queue-watermark, state_dict)`` pairs are appended
    every interval; with ``restore_from`` (a state tree), the machine or
    cluster is restored from it before running, skipping the
    already-explored prefix.
    """
    if traffic and not target.open_loop:
        raise ReproError(
            f"check target {target.name!r} has no open-loop variant "
            f"(--traffic works with: {', '.join(OPEN_LOOP_TARGETS)})")
    trial = target.start(variant, cfg, strategy, traffic)
    owner, sim = trial.owner, trial.owner.sim

    def outcome(kind: str, detail: str) -> RunOutcome:
        return RunOutcome(
            ok=kind in ("pass", "inconclusive"), kind=kind, detail=detail,
            ops=trial.ops(), decided=kind != "inconclusive",
            decisions=dict(strategy.decisions),
            strategy=strategy.describe(), properties=trial.props.summary(),
            cycles=sim.now)

    try:
        if restore_from is not None:
            owner.load_state(restore_from)
        if checkpoints is not None and checkpoint_every:
            owner.enable_checkpointing()
            while not sim.quiescent():
                owner.run(until=sim.now + checkpoint_every)
                if sim.quiescent() or sim.queue.peek_time() is None:
                    break
                checkpoints.append((sim.queue.next_seq, owner.state_dict()))
        owner.run()
        trial.settle()
    except SimulationTimeout as exc:
        return outcome("timeout", f"no quiescence ({target.stall}): {exc}")
    except (PropertyViolation, ProtocolError, LeaseError) as exc:
        return outcome("property", str(exc))
    except SimulationError as exc:
        return outcome("history", str(exc))
    return outcome(*trial.verdict())


def _strategy_for(campaign_seed: int, index: int):
    """Schedule 0 is the unperturbed baseline (an empty replay records no
    decisions and assigns priority 0 everywhere); later schedules come
    from the seeded generator."""
    if index == 0:
        return ReplayStrategy({})
    return strategy_for_schedule(campaign_seed, index)


def _machine_seed(campaign_seed: int, index: int) -> int:
    return ((campaign_seed * 2_654_435_761 + index * 40_503)
            & 0x7FFFFFFF) or 1


# -- shrinking ----------------------------------------------------------------

def _ddmin(items: list[tuple[int, int]],
           fails: Callable[[dict[int, int]], bool],
           max_runs: int) -> tuple[list[tuple[int, int]], int]:
    """Classic ddmin over decision entries: find a (locally) minimal
    subset that still fails.  ``fails`` must be deterministic, which
    replay strategies guarantee."""
    runs = 0
    n = 2
    while len(items) >= 2 and runs < max_runs:
        size = max(1, len(items) // n)
        reduced = False
        for start in range(0, len(items), size):
            if runs >= max_runs:
                break
            subset = items[:start] + items[start + size:]
            runs += 1
            if fails(dict(subset)):
                items = subset
                n = max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if n >= len(items):
                break
            n = min(len(items), n * 2)
    return items, runs


def shrink_failure(target: CheckTarget | ClusterTarget, variant: str,
                   cfg: MachineConfig | ClusterConfig,
                   decisions: dict[int, int], *,
                   traffic: str = "",
                   max_runs: int = 160,
                   checkpoint_every: int | None = 2048,
                   stats: dict | None = None) -> tuple[dict[int, int], int]:
    """Minimize a failing decision map by replaying subsets.  Returns the
    shrunken map and how many replay runs were spent.  Any failure kind
    counts -- a subset that fails differently is still a bug, and keeping
    the predicate loose lets ddmin cut much deeper.

    Prefix restore: decisions are keyed by event ``seq``, and a checkpoint
    taken at queue watermark ``W`` precedes every scheduling decision with
    seq >= W.  A replay whose decision map differs from the run that
    recorded a checkpoint only at seqs >= ``W`` is *identical* to that run
    up to the checkpoint, so instead of re-simulating from cycle 0 it
    restores the checkpoint and replays only the suffix.  Because ddmin
    narrows against its most recent *failing* subset (not the original
    map), every probe records its own checkpoints; when a probe fails it
    becomes the new baseline, carrying forward the still-valid prefix of
    the old one.  ``stats`` (optional dict) collects the accounting:
    ``cycles_replayed`` / ``cycles_saved`` / ``restores``.
    """
    items = sorted(decisions.items())
    if not items:
        return {}, 0
    track = stats if stats is not None else {}
    track.setdefault("cycles_replayed", 0)
    track.setdefault("cycles_saved", 0)
    track.setdefault("restores", 0)
    #: Keys of the last *failing* decision map (ddmin's current baseline)
    #: and its ``(queue watermark, state tree)`` checkpoints, ascending.
    base_keys = set(decisions)
    prefix: list[tuple[int, dict]] = []

    def fails(subset: dict[int, int]) -> bool:
        nonlocal base_keys, prefix
        sub_keys = set(subset)
        removed = base_keys - sub_keys
        usable: list[tuple[int, dict]] = []
        if removed and sub_keys <= base_keys:
            cut = min(removed)
            for wm, state in prefix:
                if wm <= cut:
                    usable.append((wm, state))
                else:
                    break
        best = usable[-1][1] if usable else None
        probe: list[tuple[int, dict]] = []
        out = run_once(target, variant, cfg, ReplayStrategy(subset),
                       traffic=traffic, restore_from=best,
                       checkpoint_every=checkpoint_every,
                       checkpoints=probe)
        start = 0
        if best is not None:
            start = best["sim"]["now"]
            track["restores"] += 1
            track["cycles_saved"] += start
        track["cycles_replayed"] += max(0, out.cycles - start)
        if not out.ok:
            # This subset is ddmin's new baseline; its checkpoints are the
            # still-valid prefix of the old run plus the ones just taken.
            base_keys = sub_keys
            prefix = usable + probe
        return not out.ok

    if not fails({}):
        # Seed the baseline checkpoints by re-running the full failing map
        # once with recording on.
        run_once(target, variant, cfg, ReplayStrategy(dict(items)),
                 traffic=traffic,
                 checkpoint_every=checkpoint_every, checkpoints=prefix)
        shrunk, runs = _ddmin(items, fails, max_runs)
        runs += 2
    else:
        # The unperturbed run fails too: the schedule was never the
        # trigger, so the minimal repro is the empty decision map.
        shrunk, runs = [], 1
    return dict(shrunk), runs


# -- campaign -----------------------------------------------------------------

@dataclass
class CampaignReport:
    """Everything a ``repro check`` invocation learned."""

    target: str
    seed: int
    budget: int
    schedules_run: int = 0
    histories_checked: int = 0
    ops_checked: int = 0
    inconclusive: int = 0
    shrink_runs: int = 0
    #: Prefix-restore accounting for the shrink phase (repro.state):
    #: cycles actually re-simulated, cycles skipped by restoring
    #: checkpoints, and how many replays started from a checkpoint.
    shrink_cycles_replayed: int = 0
    shrink_cycles_saved: int = 0
    shrink_restores: int = 0
    per_variant: dict[str, int] = field(default_factory=dict)
    failure: RunOutcome | None = None
    repro: dict | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def run_campaign(target: str | CheckTarget | ClusterTarget, *,
                 budget: int = 100, seed: int = 1,
                 shrink: bool = True, shrink_runs: int = 160,
                 fault_spec: str = "", traffic: str = "",
                 progress: Callable[[str], None] | None = None
                 ) -> CampaignReport:
    """Explore ``budget`` schedules of ``target`` (a target, or the name
    of a table target or of an experiment that resolves to one); stop at
    the first failure (shrinking it to a minimal replayable repro).
    ``fault_spec`` (see :mod:`repro.faults`) fuzzes the schedules *under
    faults*: every machine runs with the seeded fault plan installed, and
    the same linearizability + property checks must still hold.
    ``traffic`` (see :mod:`repro.traffic`) switches the workload to its
    open-loop variant: arrivals are admitted from seeded streams and the
    same linearizability checks run over the admitted-op histories."""
    if isinstance(target, str):
        target = resolve_target(target)
    report = CampaignReport(target=target.name, seed=seed, budget=budget)
    for i in range(budget):
        variant, cfg = target.schedule(i, _machine_seed(seed, i), fault_spec)
        out = run_once(target, variant, cfg, _strategy_for(seed, i),
                       traffic=traffic)
        report.schedules_run += 1
        report.histories_checked += 1
        report.ops_checked += out.ops
        report.per_variant[variant] = report.per_variant.get(variant, 0) + 1
        if out.decided is False:
            report.inconclusive += 1
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
            shrink_stats: dict = {}
            decisions, spent = shrink_failure(
                target, variant, cfg, decisions, traffic=traffic,
                max_runs=shrink_runs, stats=shrink_stats)
            report.shrink_runs = spent
            report.shrink_cycles_replayed = shrink_stats["cycles_replayed"]
            report.shrink_cycles_saved = shrink_stats["cycles_saved"]
            report.shrink_restores = shrink_stats["restores"]
            # Re-run the minimal schedule to report the minimized failure.
            final = run_once(target, variant, cfg,
                             ReplayStrategy(decisions), traffic=traffic)
            if not final.ok:
                report.failure = final
        report.repro = {
            **target.repro_fields(variant, cfg, traffic),
            "campaign_seed": seed,
            "schedule_index": i,
            "machine_seed": cfg.seed,
            "strategy": out.strategy,
            "decisions": {str(k): v for k, v in sorted(decisions.items())},
            "failure": {"kind": report.failure.kind,
                        "detail": report.failure.detail},
        }
        break
    return report


# -- repro files --------------------------------------------------------------

def load_repro(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt != REPRO_FORMAT:
        raise ReproError(
            f"{path}: not a {REPRO_FORMAT} repro file (format={fmt!r})")
    return data


def malformed_repro(fmt: str, err: Exception) -> ReproError:
    """The error for a repro document of format ``fmt`` that lacks a
    field or holds one of the wrong type."""
    return ReproError(f"malformed {fmt} repro ({type(err).__name__}: {err})")


def repro_field(repro: dict, fmt: str, name: str, default: Any) -> Any:
    """``repro[name]``, or ``default`` when the field is absent.  A value
    of another type than ``default``'s makes a malformed ``fmt`` repro."""
    value = repro.get(name, default)
    if not isinstance(value, type(default)):
        raise malformed_repro(fmt, TypeError(
            f"{name} is {type(value).__name__}, not "
            f"{type(default).__name__}"))
    return value


def replay_repro(repro: dict, *,
                 progress: Callable[[str], None] | None = None
                 ) -> RunOutcome:
    """Re-execute a repro document deterministically and return the
    outcome of its checks.  Its ``format`` says what it replays:
    ``repro-check/1`` a table target's schedule and ``repro-cluster/1``
    the cluster target's (both as :func:`run_campaign` writes them), and
    ``repro-identity/1`` an identity axis
    (:func:`~repro.check.identity.replay_identity`).  ``progress``, when
    set, hears one line naming what is replayed before it runs."""
    # Both modules import this one, so they load on first use.
    from .cluster import CLUSTER_REPRO_FORMAT, ClusterTarget
    from .identity import IDENTITY_FORMAT, replay_identity

    fmt = repro.get("format") if isinstance(repro, dict) else None
    if fmt == IDENTITY_FORMAT:
        if progress:
            progress(f"identity axis={repro.get('axis')}")
        return replay_identity(repro)
    kind = {REPRO_FORMAT: CheckTarget,
            CLUSTER_REPRO_FORMAT: ClusterTarget}.get(fmt)
    if kind is None:
        raise ReproError(
            f"not a {REPRO_FORMAT}, {CLUSTER_REPRO_FORMAT} or "
            f"{IDENTITY_FORMAT} repro (format={fmt!r})")
    decisions = repro_field(repro, fmt, "decisions", {})
    if progress:
        progress(f"{kind.describe(repro)} decisions={len(decisions)}")
    try:
        target, variant, cfg, traffic = kind.from_repro(repro)
        schedule = {int(k): int(v) for k, v in decisions.items()}
    except (KeyError, TypeError, ValueError) as err:
        raise malformed_repro(fmt, err) from None
    return run_once(target, variant, cfg, ReplayStrategy(schedule),
                    traffic=traffic)
