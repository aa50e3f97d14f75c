"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``               -- list the registered experiments (one per paper
                            figure/table) with their paper claims.
* ``run <experiment>``   -- run one experiment and print its series.
                            ``--jobs N`` fans the sweep cells over worker
                            processes; ``--save out.json`` writes the raw
                            results; ``--invariants`` checks coherence/
                            lease invariants continuously while running.
                            ``--checkpoint-every N`` saves a
                            ``repro-ckpt/1`` checkpoint per cell every N
                            cycles into ``--checkpoint-dir``; ``--resume
                            CKPT`` restores one cell from a saved file;
                            ``--warm-start`` resumes every cell from its
                            newest compatible checkpoint.
* ``trace <experiment>`` -- run one experiment with the JSONL tracer
                            attached, writing every simulator event to a
                            file and reconciling the trace against the
                            run's counters.
* ``check <target>``     -- fuzz schedules of a contended structure and
                            check every history for linearizability plus
                            the lease properties; on failure, shrink the
                            schedule and write a replayable repro file.
                            ``check identity`` fuzzes restore/network/
                            ``--jobs`` identity over every experiment arm;
                            ``check replay repro.json`` re-runs a repro.
* ``bench [targets...]`` -- time the simulator's hot loops and write one
                            ``BENCH_<name>.json`` per target.  ``--quick``
                            shrinks the workloads for CI; ``--baseline
                            FILE`` diffs normalized scores against a
                            committed baseline and fails (exit 1) on any
                            regression beyond ``--tolerance``;
                            ``--write-baseline FILE`` records a new one;
                            ``--profile`` prints a cProfile summary.
* ``config``             -- print the Table-1 machine configuration.

``run`` and ``trace`` accept a global ``--seed N`` that reseeds the
simulated machine (and thereby every workload RNG) for the whole sweep.
``run``/``trace``/``check``/``bench`` accept ``--faults SPEC``, a
semicolon-separated fault-injection spec (see :mod:`repro.faults`), e.g.
``"net_jitter:p=0.01,max=200;dir_nack:p=0.005;timer_skew:±8"``.  Faults
are deterministic per seed: the same seed + spec replays byte-identically,
serial or under ``--jobs``.
``run``/``check``/``bench`` accept ``--traffic SPEC``, an open-loop
arrival spec (see :mod:`repro.traffic`), e.g.
``"poisson:rate=2.0,zipf:s=1.2,tenants=2,slo:p99=8000"``: workers pull
admitted arrivals instead of self-pacing, ``run`` prints tail-latency
percentiles plus an SLO verdict (and exits 1 on SLO failure), and
``check`` fuzzes the open-loop workload variants.
``run``/``trace`` accept ``--network SPEC``, a contended-interconnect
spec (see :mod:`repro.coherence.links`), e.g.
``"link:bw=2,queue=8,flits=4;arb:wrr,weights=2:1;port:dir=2,mem=4"``:
finite-bandwidth egress links, pluggable arbitration and serialized
directory/memory ports.  Unset (or ``infinite``) keeps the default
contention-free mesh, bit-identical to the pre-links model.

Examples::

    python -m repro list
    python -m repro run fig2_stack --threads 2,8,32
    python -m repro run fig2_stack --jobs 4 --save stack.json --seed 7
    python -m repro run fig4_tl2 --metric nj_per_op
    python -m repro run fig2_stack --faults "dir_nack:p=0.01" --seed 7
    python -m repro run counter --traffic "poisson:rate=2.0,slo:p99=9000"
    python -m repro run sync_ablation --threads 2,8,32
    python -m repro run fig2_stack --checkpoint-every 5000
    python -m repro run fig2_stack --warm-start
    python -m repro trace fig2_stack --threads 4 --heatmap
    python -m repro run cluster_shards --nodes 3 --threads 2,4
    python -m repro check --list-targets
    python -m repro check treiber --budget 200 --seed 7
    python -m repro check sync_zoo_treiber --budget 200
    python -m repro check treiber --budget 50 --faults "timer_skew:±8"
    python -m repro check cluster_lease --budget 60 --nodes 3
    python -m repro check cluster_lease --cluster "loss:p=0.1;skew:80"
    python -m repro check identity --budget 80 --seed 1
    python -m repro check replay repro.treiber.json
    python -m repro bench --list
    python -m repro bench --quick --baseline benchmarks/baseline.json
    python -m repro bench snapshot_roundtrip --seed 7
    python -m repro bench treiber --profile
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .check.campaign import OPEN_LOOP_TARGETS
from .cluster import parse_cluster_spec
from .coherence.links import parse_network_spec
from .config import MachineConfig
from .faults import parse_fault_spec
from .harness import EXPERIMENTS, run_experiment
from .harness.experiments import fold_overrides
from .harness.runner import PAPER_THREAD_COUNTS, series_table
from .trace import (ContentionHeatmap, InvariantTracer, JsonlTracer,
                    reconcile)
from .traffic import parse_traffic_spec


class _CliError(Exception):
    """A user-input problem: printed as one line, exit code 2."""


def _parse_threads(spec: str) -> tuple[int, ...]:
    """Parse a ``--threads`` list ("2,4,8"); positive integers only."""
    parts = [p.strip() for p in spec.split(",")]
    counts = []
    for p in parts:
        if not p:
            raise _CliError(f"--threads: empty entry in {spec!r}")
        try:
            n = int(p)
        except ValueError:
            raise _CliError(f"--threads: {p!r} is not an integer") from None
        if n <= 0:
            raise _CliError(f"--threads: {n} is not a positive thread count")
        counts.append(n)
    if not counts:
        raise _CliError("--threads: no thread counts given")
    return tuple(counts)


def _parse_jobs(spec: str) -> int:
    """Parse a ``--jobs`` value; positive integers only."""
    try:
        n = int(spec)
    except ValueError:
        raise _CliError(f"--jobs: {spec!r} is not an integer") from None
    if n < 1:
        raise _CliError(f"--jobs: {n} is not a positive job count")
    return n


def _parse_seed(spec: str) -> int:
    """Parse a ``--seed`` value; non-negative integers only."""
    try:
        n = int(spec)
    except ValueError:
        raise _CliError(f"--seed: {spec!r} is not an integer") from None
    if n < 0:
        raise _CliError(f"--seed: {n} is negative")
    return n


def _parse_metric(spec: str, *, allow_all: bool = True) -> str:
    """Validate a ``--metric`` name against the RunResult metrics."""
    from .harness.runner import valid_metrics

    choices = (("all",) if allow_all else ()) + valid_metrics()
    if spec not in choices:
        raise _CliError(f"--metric: unknown metric {spec!r} "
                        f"(choose from: {', '.join(choices)})")
    return spec


def _parse_nodes(spec: str) -> int:
    """Parse a ``--nodes`` value.  Non-integers are a CLI error; a bad
    count is a ConfigError naming the flag, same as ClusterConfig's own
    validation raises."""
    from .errors import ConfigError

    try:
        n = int(spec)
    except ValueError:
        raise _CliError(f"--nodes: {spec!r} is not an integer") from None
    if n < 1:
        raise ConfigError(f"--nodes must be >= 1, got {n}")
    return n


#: The spec-string options and their grammars (see :mod:`repro.spec`).
_SPEC_PARSERS = {"--cluster": parse_cluster_spec, "--faults": parse_fault_spec,
                 "--network": parse_network_spec,
                 "--traffic": parse_traffic_spec}


def _parse_spec(flag: str, spec: str) -> str:
    """Validate a spec-string option, naming the flag in any error.  Only
    the grammar is checked; per-machine range checks like slow-core ids
    happen in MachineConfig.validate.  ``--traffic`` must also give an
    arrival clause."""
    from .errors import ConfigError

    try:
        parsed = _SPEC_PARSERS[flag](spec)
    except ConfigError as err:
        raise _CliError(f"{flag}: {err}") from None
    if flag == "--traffic" and parsed.empty:
        raise _CliError("--traffic: empty spec (give an arrival clause, "
                        "e.g. 'poisson:rate=2.0')")
    return spec


def _get_experiment(exp_id: str):
    if exp_id not in EXPERIMENTS:
        raise _CliError(f"unknown experiment {exp_id!r}; "
                        "try: python -m repro list")
    return EXPERIMENTS[exp_id]


def _refuse_machine_sinks(exp, *, invariants: bool,
                          heatmap: bool = False) -> None:
    """Refuse the sinks that bind to one machine on a cluster experiment,
    which runs one machine per node."""
    if "nodes" not in exp.common:
        return
    if invariants:
        raise _CliError(
            "--invariants: cluster experiments check invariants via "
            "the safety campaign (python -m repro check cluster_lease)")
    if heatmap:
        raise _CliError(
            "--heatmap: the contention heatmap labels one machine's "
            "allocations; a cluster experiment runs one machine per node")


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for exp_id, exp in EXPERIMENTS.items():
        print(f"{exp_id:<{width}}  {exp.title}")
        print(f"{'':<{width}}  paper: {exp.paper_claim}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .errors import CheckpointError, CheckpointMismatch

    exp = _get_experiment(args.experiment)
    threads = _parse_threads(args.threads)
    jobs = _parse_jobs(args.jobs)
    metric = _parse_metric(args.metric)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = _parse_seed(args.seed)
    if args.faults:
        overrides["faults"] = _parse_spec("--faults", args.faults)
    if args.network:
        overrides["network"] = _parse_spec("--network", args.network)
    if args.traffic:
        import inspect

        if "traffic" not in inspect.signature(exp.bench).parameters:
            raise _CliError(
                f"--traffic: experiment {exp.id!r} has no open-loop "
                "variant (try: counter, treiber, skiplist, or "
                "cluster_shards)")
        overrides["traffic"] = _parse_spec("--traffic", args.traffic)
    if args.nodes is not None:
        if "nodes" not in exp.common:
            raise _CliError(
                f"--nodes: experiment {exp.id!r} is not a cluster "
                "experiment (try: python -m repro run cluster_shards)")
        overrides["nodes"] = _parse_nodes(args.nodes)
    if args.invariants:
        if jobs > 1:
            raise _CliError("--invariants requires --jobs 1 (trace sinks "
                            "cannot cross process boundaries)")
        _refuse_machine_sinks(exp, invariants=True)
        overrides["sinks"] = [InvariantTracer()]

    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        raise _CliError(f"--checkpoint-every: {args.checkpoint_every} is "
                        "not a positive cycle count")
    checkpointing = bool(args.checkpoint_every or args.resume
                         or args.warm_start)
    policy = None
    if checkpointing:
        if jobs > 1:
            raise _CliError(
                "--checkpoint-every/--resume/--warm-start require --jobs 1 "
                "(the checkpoint hook is process-local)")
        from .state import CheckpointPolicy

        try:
            policy = CheckpointPolicy(
                every=args.checkpoint_every,
                directory=args.checkpoint_dir,
                resume_path=args.resume,
                warm_start=args.warm_start)
        except (OSError, CheckpointError) as err:
            raise _CliError(f"--resume: {err}") from None

    print(f"{exp.id}: {exp.title}")
    from .state import hooks

    if policy is not None:
        hooks.run_hook = policy
    try:
        res = run_experiment(args.experiment, thread_counts=threads,
                             jobs=jobs, **overrides)
    except (CheckpointError, CheckpointMismatch) as err:
        raise _CliError(f"checkpoint: {err}") from None
    finally:
        if policy is not None:
            hooks.run_hook = None

    if policy is not None:
        for label, cycle in policy.restored:
            print(f"restored {label} at cycle {cycle}")
        if policy.saved:
            print(f"saved {len(policy.saved)} checkpoint(s) to "
                  f"{args.checkpoint_dir}")
        if args.resume and not policy.resume_consumed:
            detail = policy.last_mismatch or "no sweep cell ran"
            raise _CliError(
                f"--resume: {args.resume} matched no sweep cell ({detail})")
    labels = {"mops_per_sec": "throughput (Mops/s)",
              "nj_per_op": "energy (nJ/op)"}
    shown = (tuple(labels) if metric == "all" else (metric,))
    for m in shown:
        print(f"\n-- {labels.get(m, m)} --")
        print(series_table(res, metric=m))
    slo_failed = False
    if args.traffic:
        from .stats import format_table

        lat_rows = []
        for name, series in res.items():
            for n, r in zip(threads, series):
                if r.latency is None:
                    continue
                lat = r.latency
                slo_failed |= lat.get("slo") == "fail"
                lat_rows.append({
                    "variant": name, "threads": n,
                    "p50": lat.get("p50"), "p99": lat.get("p99"),
                    "p999": lat.get("p999"),
                    "mean": (round(lat["mean"], 1)
                             if lat.get("mean") is not None else None),
                    "shed": lat["shed"],
                    "shed%": round(100 * lat["shed_frac"], 1),
                    "slo": lat["slo"],
                })
        if lat_rows:
            print("\n-- tail latency (cycles, enqueue->complete) --")
            print(format_table(lat_rows))
    if args.invariants:
        checker = overrides["sinks"][0]
        print(f"\ninvariants: OK ({checker.checks_run} checks)")
    if args.save:
        payload = {
            "experiment": exp.id,
            "title": exp.title,
            "thread_counts": list(threads),
            "results": {
                name: [dataclasses.asdict(r) for r in series]
                for name, series in res.items()
            },
        }
        with open(args.save, "w", encoding="utf-8") as fp:
            json.dump(payload, fp, indent=2, sort_keys=True)
            fp.write("\n")
        print(f"\nsaved results to {args.save}")
    if slo_failed:
        # The SLO gate: a stated bound was violated somewhere in the sweep.
        print("SLO: FAIL (see the tail-latency table)", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    exp = _get_experiment(args.experiment)
    threads = _parse_threads(args.threads)
    seed = _parse_seed(args.seed) if args.seed is not None else None
    faults = _parse_spec("--faults", args.faults) if args.faults else None
    network = (_parse_spec("--network", args.network) if args.network
               else None)
    if args.limit is not None and args.limit < 0:
        raise _CliError(f"--limit: {args.limit} is not a non-negative "
                        "event count")
    _refuse_machine_sinks(exp, invariants=args.invariants,
                          heatmap=args.heatmap)
    out_path = args.out or f"{args.experiment}.trace.jsonl"
    sinks = [JsonlTracer(out_path, max_events=args.limit)]
    jsonl = sinks[0]
    heatmap = None
    if args.heatmap:
        heatmap = ContentionHeatmap()
        sinks.append(heatmap)
    if args.invariants:
        sinks.append(InvariantTracer())
    mismatches = 0
    with jsonl:
        for name, kw in exp.variants.items():
            for n in threads:
                jsonl.annotate(variant=name, threads=n)
                before = dict(jsonl.counts)
                res = exp.bench(n, **fold_overrides({
                    **exp.common, **kw, "sinks": sinks, "seed": seed,
                    "faults": faults, "network": network}))
                delta = {k: v - before.get(k, 0)
                         for k, v in jsonl.counts.items()}
                problems = reconcile(delta, res.counters)
                jsonl.annotate()
                jsonl.write_line({
                    "kind": "run_summary", "variant": name, "threads": n,
                    "cycles": res.cycles, "ops": res.ops,
                    "events": sum(delta.values()),
                    "reconciled": not problems,
                })
                status = "ok" if not problems else "MISMATCH"
                print(f"{exp.id}/{name} t={n}: {sum(delta.values())} "
                      f"events, ops={res.ops}, reconcile={status}")
                for p in problems:
                    print(f"  {p}", file=sys.stderr)
                mismatches += bool(problems)
    print(f"wrote {jsonl.written} of {jsonl.total} events to {out_path}")
    if heatmap is not None:
        print("\n-- contention heatmap --")
        print(heatmap.report())
    if mismatches:
        print(f"{mismatches} run(s) failed trace/counter reconciliation",
              file=sys.stderr)
        return 1
    return 0


#: The flags each ``check`` mode accepts.  A flag set outside its modes
#: is an error, so a mistyped mode never silently ignores one.
_CAMPAIGN_FLAGS = ("--budget", "--seed", "--no-shrink", "--save")
_CHECK_FLAGS = {
    "target": _CAMPAIGN_FLAGS + ("--faults", "--traffic"),
    "cluster_lease": _CAMPAIGN_FLAGS + ("--nodes", "--cluster", "--quorum",
                                        "--structure"),
    "replay": (), "identity": ("--budget", "--seed", "--save")}

#: Refusals with more to say than that the flag does not apply.
_CHECK_REFUSALS = {
    **{("replay", flag): f"check replay: {flag} is recorded in the repro "
                         "file; it cannot be overridden on replay"
       for flag in ("--faults", "--traffic")},
    ("cluster_lease", "--faults"):
        "check cluster_lease: inter-node faults come from --cluster SPEC "
        "(e.g. 'loss:p=0.1;skew:80'), not --faults",
    ("cluster_lease", "--traffic"):
        "check cluster_lease: --traffic applies to the single-machine "
        f"targets ({', '.join(OPEN_LOOP_TARGETS)}); the cluster campaign "
        "drives its own workload",
}


def _check_mode(args: argparse.Namespace) -> str:
    """The ``check`` mode of ``args.target``; refuses flags it ignores."""
    mode = "cluster_lease" if args.target == "cluster" else args.target
    mode = mode if mode in _CHECK_FLAGS else "target"
    accepted = _CHECK_FLAGS[mode]
    for flag in dict.fromkeys(f for fs in _CHECK_FLAGS.values() for f in fs):
        value = getattr(args, flag[2:].replace("-", "_"))
        if flag not in accepted and value is not None and value is not False:
            raise _CliError(_CHECK_REFUSALS.get((mode, flag)) or (
                f"check {args.target}: {flag} does not apply (accepted: "
                f"{', '.join(accepted) or 'no flags'})"))
    return mode


def _cmd_check(args: argparse.Namespace) -> int:
    from .check import ClusterTarget, replay_repro, run_campaign
    from .check.identity import run_identity
    from .errors import ReproError

    if args.list_targets:
        from .check import EXPERIMENT_ALIASES
        from .check.campaign import TARGETS

        width = max(len(k) for k in TARGETS)
        for name, target in TARGETS.items():
            variants = ", ".join(v for v, _cfg in target.configs)
            print(f"{name:<{width}}  {target.title} [{variants}]")
        aliases = ", ".join(f"{a}->{t}"
                            for a, t in sorted(EXPERIMENT_ALIASES.items()))
        print(f"\nexperiment aliases: {aliases}")
        print(f"\n{'cluster_lease':<{width}}  PaxosLease safety: at most "
              "one node holds an object, fuzzed under message loss/dup/"
              "partitions/timer skew [counter, treiber; --nodes, "
              "--cluster, --quorum, --structure]")
        return 0
    if args.target is None:
        raise _CliError("check: missing target "
                        "(try: python -m repro check --list-targets)")
    mode = _check_mode(args)
    if mode == "replay":
        if not args.repro:
            raise _CliError("check replay: missing repro file "
                            "(usage: python -m repro check replay FILE)")
        try:
            with open(args.repro, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as err:
            raise _CliError(f"check replay: {err}") from None
        try:
            out = replay_repro(data, progress=lambda msg: print(
                f"replaying {args.repro}: {msg}"))
        except ReproError as err:
            raise _CliError(f"check replay: {err}") from None
        if out.ok:
            print("replay PASSED (the recorded failure did not reproduce)")
            return 1
        print(f"replay reproduced the failure: [{out.kind}] {out.detail}")
        return 0
    if args.repro is not None:
        raise _CliError(f"check: unexpected extra argument {args.repro!r}")

    seed = _parse_seed(args.seed if args.seed is not None else "1")
    budget = args.budget if args.budget is not None else 100
    if budget < 1:
        raise _CliError(f"--budget: {budget} is not a positive "
                        "schedule count")

    if mode == "identity":
        report = run_identity(budget=budget, seed=seed)
        print(report.summary())
        if report.repro is None:
            print("no divergence found")
            return 0
        print(f"\nDIVERGENCE [{report.repro['axis']}] "
              f"{report.repro['detail']}")
        return _write_repro(report.repro, args.save or "repro.identity.json")

    target = args.target
    if mode == "cluster_lease":
        nodes = _parse_nodes(args.nodes) if args.nodes is not None else None
        spec = (_parse_spec("--cluster", args.cluster)
                if args.cluster is not None else None)
        quorum = None
        if args.quorum is not None:
            try:
                quorum = int(args.quorum)
            except ValueError:
                raise _CliError(f"--quorum: {args.quorum!r} is not an "
                                "integer") from None
        structure = args.structure or "counter"
        if structure not in ("counter", "treiber"):
            raise _CliError(f"--structure: unknown structure "
                            f"{structure!r} (counter or treiber)")
        target = ClusterTarget(structure=structure, nodes=nodes,
                               cluster_spec=spec, quorum=quorum)

    faults = _parse_spec("--faults", args.faults) if args.faults else ""
    if faults:
        print(f"fault campaign: {faults}")
    traffic = _parse_spec("--traffic", args.traffic) if args.traffic else ""
    if traffic:
        print(f"open-loop traffic: {traffic}")
    try:
        report = run_campaign(target, budget=budget, seed=seed,
                              shrink=not args.no_shrink,
                              fault_spec=faults, traffic=traffic,
                              progress=lambda msg: print(f"  {msg}"))
    except ReproError as err:
        raise _CliError(str(err)) from None
    return _report_campaign(report, args.save)


def _report_campaign(report, save: str | None) -> int:
    print(f"check {report.target}: explored {report.schedules_run} "
          f"schedule(s), checked {report.histories_checked} histories / "
          f"{report.ops_checked} operations "
          f"({', '.join(f'{k}: {v}' for k, v in report.per_variant.items())})")
    if report.inconclusive:
        print(f"  {report.inconclusive} history check(s) hit the state "
              "budget (inconclusive, counted as pass)")
    if report.ok:
        print("no failures found")
        return 0
    fail = report.failure
    print(f"\nFAILURE [{fail.kind}] after {report.schedules_run} "
          f"schedule(s): {fail.detail}")
    if report.shrink_runs:
        print(f"shrunk to {len(report.repro['decisions'])} schedule "
              f"decision(s) in {report.shrink_runs} replay run(s)")
        if report.shrink_restores:
            print(f"prefix-restore: {report.shrink_restores} replay(s) "
                  f"resumed from checkpoints, saving "
                  f"{report.shrink_cycles_saved} of "
                  f"{report.shrink_cycles_replayed + report.shrink_cycles_saved} "
                  "replayed cycles")
    return _write_repro(report.repro, save or f"repro.{report.target}.json")


def _write_repro(repro: dict, out_path: str) -> int:
    """Write a failure's repro file; the failing exit code."""
    with open(out_path, "w", encoding="utf-8") as fp:
        json.dump(repro, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"wrote repro to {out_path} "
          f"(replay: python -m repro check replay {out_path})")
    return 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from . import bench
    from .errors import ConfigError

    if args.list:
        width = max(len(k) for k in bench.TARGETS)
        for name, target in bench.TARGETS.items():
            print(f"{name:<{width}}  {target.title}")
        return 0
    jobs = _parse_jobs(args.jobs)
    seed = _parse_seed(args.seed) if args.seed is not None else None
    fault_spec = _parse_spec("--faults", args.faults) if args.faults else ""
    traffic = _parse_spec("--traffic", args.traffic) if args.traffic else ""
    if args.repeats < 1:
        raise _CliError(f"--repeats: {args.repeats} is not a positive "
                        "repeat count")
    if not 0.0 < args.tolerance < 1.0:
        raise _CliError(f"--tolerance: {args.tolerance} is not a fraction "
                        "in (0, 1)")
    names = args.targets or bench.default_target_names()
    for name in names:
        if name not in bench.TARGETS:
            known = ", ".join(bench.TARGETS)
            raise _CliError(f"bench: unknown target {name!r} "
                            f"(known: {known})")

    baseline = None
    if args.baseline:
        try:
            baseline = bench.load_baseline(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as err:
            raise _CliError(f"--baseline: {err}") from None

    mode = "quick" if args.quick else "full"
    extras = f", faults={fault_spec!r}" if fault_spec else ""
    if seed is not None:
        extras += f", seed={seed}"
    if traffic:
        extras += f", traffic={traffic!r}"
    print(f"bench ({mode}, repeats={args.repeats}, jobs={jobs}{extras}): "
          f"{', '.join(names)}")
    try:
        results = bench.run_many(names, quick=args.quick, jobs=jobs,
                                 repeats=args.repeats,
                                 fault_spec=fault_spec, seed=seed,
                                 traffic=traffic)
    except ConfigError as err:
        raise _CliError(f"bench: {err}") from None
    for name in names:
        print("  " + bench.record_summary_line(results[name]))
    paths = bench.write_results(results, args.out_dir)
    print(f"wrote {len(paths)} record(s) to "
          f"{args.out_dir or '.'}/BENCH_<name>.json")

    if args.profile:
        print()
        for name in names:
            bench.profile_target(name, quick=args.quick)

    if args.write_baseline:
        bench.write_baseline(results, args.write_baseline)
        print(f"wrote baseline to {args.write_baseline}")

    if baseline is not None:
        rows = bench.diff_results(results, baseline,
                                  tolerance=args.tolerance)
        print(f"\n-- vs baseline {args.baseline} "
              f"(tolerance {args.tolerance:.0%}) --")
        print(bench.format_diff(rows))
        regressed = [r["name"] for r in rows if r["regressed"]]
        if regressed:
            print(f"perf regression in: {', '.join(regressed)}",
                  file=sys.stderr)
            return 1
    return 0


def _cmd_config(_args: argparse.Namespace) -> int:
    cfg = MachineConfig()
    print("Table 1 machine configuration (defaults):")
    print(f"  core model        : in-order, {cfg.clock_hz / 1e9:g} GHz")
    print(f"  L1 per tile       : {cfg.l1_size_bytes // 1024} KB, "
          f"{cfg.l1_assoc}-way, {cfg.l1_latency} cycle")
    print(f"  L2 per tile       : {cfg.l2_size_bytes_per_tile // 1024} KB, "
          f"{cfg.l2_assoc}-way, tag/data {cfg.l2_tag_latency}/"
          f"{cfg.l2_data_latency} cycles")
    print(f"  cache line        : {cfg.line_size} bytes")
    print(f"  protocol          : {cfg.protocol.upper()} "
          "(private L1, shared L2)")
    print(f"  MAX_LEASE_TIME    : {cfg.lease.max_lease_time} cycles")
    print(f"  MAX_NUM_LEASES    : {cfg.lease.max_num_leases}")
    print(f"  multilease mode   : {cfg.lease.multilease_mode}")
    print(f"  prioritization    : {cfg.lease.prioritize_regular_requests}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Lease/Release (PPoPP 2016) reproduction harness")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")
    sub.add_parser("config", help="print the machine configuration")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", help="experiment id (see `list`)")
    run_p.add_argument(
        "--threads", default=",".join(map(str, PAPER_THREAD_COUNTS)),
        help="comma-separated thread counts (default: the paper's axis)")
    run_p.add_argument("--metric", default="all", metavar="METRIC",
                       help="'all' or any numeric RunResult metric "
                            "(mops_per_sec, nj_per_op, messages_per_op, "
                            "...); validated against the full list")
    run_p.add_argument("--jobs", default="1", metavar="N",
                       help="run sweep cells on N worker processes")
    run_p.add_argument("--save", metavar="OUT.json",
                       help="write the raw results as JSON")
    run_p.add_argument("--invariants", action="store_true",
                       help="check coherence/lease invariants on every "
                            "event (slow; implies --jobs 1)")
    run_p.add_argument("--seed", default=None, metavar="N",
                       help="reseed the simulated machine for the whole "
                            "sweep (default: the config's seed)")
    run_p.add_argument("--faults", default=None, metavar="SPEC",
                       help="fault-injection spec, e.g. "
                            "'net_jitter:p=0.01,max=200;dir_nack:p=0.005' "
                            "(deterministic per seed)")
    run_p.add_argument("--network", default=None, metavar="SPEC",
                       help="contended-interconnect spec, e.g. "
                            "'link:bw=2,queue=16;arb:wrr,weights=2:1;"
                            "port:dir=2,mem=4'; 'infinite' (the default) "
                            "keeps the contention-free analytic model")
    run_p.add_argument("--traffic", default=None, metavar="SPEC",
                       help="open-loop arrival spec, e.g. "
                            "'poisson:rate=2.0,zipf:s=1.2,tenants=2,"
                            "slo:p99=8000'; reports tail-latency "
                            "percentiles and exits 1 on SLO failure "
                            "(experiments: counter, treiber, skiplist, "
                            "cluster_shards)")
    run_p.add_argument("--nodes", default=None, metavar="N",
                       help="node count for cluster experiments (e.g. "
                            "cluster_shards); must be >= 1")
    run_p.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N",
                       help="save a repro-ckpt/1 checkpoint every N "
                            "simulated cycles per sweep cell (implies "
                            "--jobs 1)")
    run_p.add_argument("--checkpoint-dir", default="checkpoints",
                       metavar="DIR",
                       help="where checkpoint files go and where "
                            "--warm-start looks (default: checkpoints/)")
    run_p.add_argument("--resume", default=None, metavar="CKPT.json",
                       help="restore the matching sweep cell from this "
                            "checkpoint instead of running it from cycle "
                            "0; refuses mismatched configs")
    run_p.add_argument("--warm-start", action="store_true",
                       help="restore every sweep cell from its newest "
                            "compatible checkpoint in --checkpoint-dir, "
                            "when one exists")

    trace_p = sub.add_parser(
        "trace", help="run one experiment with the JSONL event tracer")
    trace_p.add_argument("experiment", help="experiment id (see `list`)")
    trace_p.add_argument("--threads", default="4",
                         help="comma-separated thread counts (default: 4)")
    trace_p.add_argument("--out", metavar="FILE.jsonl",
                         help="output path (default: <experiment>"
                              ".trace.jsonl)")
    trace_p.add_argument("--limit", type=int, default=None, metavar="N",
                         help="write at most N event lines (counts still "
                              "cover the full stream)")
    trace_p.add_argument("--heatmap", action="store_true",
                         help="print the per-allocation contention heatmap")
    trace_p.add_argument("--invariants", action="store_true",
                         help="also check invariants on every event")
    trace_p.add_argument("--seed", default=None, metavar="N",
                         help="reseed the simulated machine (default: the "
                              "config's seed)")
    trace_p.add_argument("--faults", default=None, metavar="SPEC",
                         help="fault-injection spec; fault events appear "
                              "in the JSONL stream")
    trace_p.add_argument("--network", default=None, metavar="SPEC",
                         help="contended-interconnect spec; link_queued/"
                              "link_granted/port_busy events appear in "
                              "the JSONL stream")

    check_p = sub.add_parser(
        "check", help="fuzz schedules and check linearizability + lease "
                      "properties")
    check_p.add_argument(
        "target", nargs="?", default=None,
        help="check target (see --list-targets), an experiment id that "
             "maps to one (e.g. fig2_stack), 'identity', or 'replay'")
    check_p.add_argument("--list-targets", action="store_true",
                         help="list the check targets, their variants and "
                              "experiment aliases, then exit")
    check_p.add_argument("repro", nargs="?", default=None,
                         help="repro file path (with target 'replay')")
    check_p.add_argument("--budget", type=int, default=None, metavar="N",
                         help="schedules to explore or identity rounds to "
                              "run (default 100)")
    check_p.add_argument("--seed", default=None, metavar="N",
                         help="campaign seed: drives both the perturbation "
                              "strategies and the per-schedule machine "
                              "seeds (default 1)")
    check_p.add_argument("--no-shrink", action="store_true",
                         help="skip ddmin shrinking of a failing schedule")
    check_p.add_argument("--save", metavar="REPRO.json", default=None,
                         help="where to write the repro on failure "
                              "(default: repro.<target>.json)")
    check_p.add_argument("--faults", default=None, metavar="SPEC",
                         help="fuzz schedules under this fault spec; the "
                              "spec is recorded in repro files so replay "
                              "reproduces the same faults")
    check_p.add_argument("--traffic", default=None, metavar="SPEC",
                         help="fuzz the open-loop workload variant under "
                              "this arrival spec (targets: "
                              f"{', '.join(OPEN_LOOP_TARGETS)}); recorded "
                              "in repro files")
    check_p.add_argument("--nodes", default=None, metavar="N",
                         help="(cluster_lease) pin the node count instead "
                              "of sweeping 2..5")
    check_p.add_argument("--cluster", default=None, metavar="SPEC",
                         help="(cluster_lease) pin the inter-node fault "
                              "spec, e.g. 'loss:p=0.1;dup:p=0.05;"
                              "partition:p=0.05,len=2000;skew:80', "
                              "instead of sweeping the built-in grid")
    check_p.add_argument("--quorum", default=None, metavar="Q",
                         help="(cluster_lease) override the majority "
                              "quorum; 1 on a multi-node cluster is the "
                              "deliberate-bug self-test the campaign must "
                              "catch")
    check_p.add_argument("--structure", default=None,
                         metavar="STRUCT",
                         help="(cluster_lease) workload structure: "
                              "'counter' (default) or 'treiber'")

    bench_p = sub.add_parser(
        "bench", help="time the simulator's hot loops; gate against a "
                      "perf baseline")
    bench_p.add_argument("targets", nargs="*", metavar="TARGET",
                         help="bench targets (default: all; see "
                              "repro.bench.TARGETS)")
    bench_p.add_argument("--list", action="store_true",
                         help="list the bench targets and exit")
    bench_p.add_argument("--quick", action="store_true",
                         help="shrunk workloads for CI smoke runs")
    bench_p.add_argument("--seed", default=None, metavar="N",
                         help="reseed the simulated machines the targets "
                              "build (recorded in the bench records; "
                              "pure-scheduler targets ignore it)")
    bench_p.add_argument("--jobs", default="1", metavar="N",
                         help="run targets on N worker processes (timing "
                              "fidelity drops; baselines should use 1)")
    bench_p.add_argument("--repeats", type=int, default=3, metavar="N",
                         help="timing repetitions per target; best-of-N "
                              "is recorded (default 3)")
    bench_p.add_argument("--profile", action="store_true",
                         help="also print a cProfile summary per target")
    bench_p.add_argument("--baseline", metavar="FILE.json", default=None,
                         help="diff normalized scores against this "
                              "baseline; exit 1 on regression")
    bench_p.add_argument("--tolerance", type=float, default=0.30,
                         metavar="F",
                         help="allowed fractional score drop before a "
                              "target counts as regressed (default 0.30)")
    bench_p.add_argument("--out-dir", default=".", metavar="DIR",
                         help="where BENCH_<name>.json records go "
                              "(default: current directory)")
    bench_p.add_argument("--write-baseline", metavar="FILE.json",
                         default=None,
                         help="bundle this run's records into a new "
                              "baseline file")
    bench_p.add_argument("--faults", default=None, metavar="SPEC",
                         help="run the machine-building targets under "
                              "this fault spec (don't gate faulty runs "
                              "against a fault-free baseline)")
    bench_p.add_argument("--traffic", default=None, metavar="SPEC",
                         help="override the arrival spec of open-loop "
                              "targets (tail_latency)")
    return parser


def main(argv: list[str] | None = None) -> int:
    from .errors import ConfigError

    args = build_parser().parse_args(argv)
    handler = {"list": _cmd_list, "run": _cmd_run, "trace": _cmd_trace,
               "check": _cmd_check, "bench": _cmd_bench,
               "config": _cmd_config}[args.command]
    try:
        return handler(args)
    except (_CliError, ConfigError) as err:
        print(str(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
