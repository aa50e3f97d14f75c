"""Benchmark suite: end-to-end and per-layer metrics, with output checks.

    python3 benchmarks/suite/run.py [--workload W] [--seed N]
        [--seconds S | --runs K] [--trace [0|1]] [--out DIR]

Each workload pass runs in a fresh single-threaded ``python`` process
(``child.py``), one process at a time, round-robin across the selected
workloads (all four by default).  Untraced passes repeat until ``--seconds``
of measuring per workload would be exceeded (at least one), or exactly
``--runs`` times; without ``--trace`` a few set-up probes come first, so
``setup_s`` is a median over several set-ups.  With ``--trace`` untraced
and traced passes alternate (at least one of each); traced passes feed
only the ``host.*`` metrics.

Prints every metric with its unit, median, quartiles, min, max and n;
writes one JSON result per set to ``--out``; and prints as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (per-layer ones with ``--trace``).  Exits 1 when a
check fails, 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import metrics as M
from child import WORKLOADS

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
CHILD = SUITE / "child.py"
#: Set-up probes per workload in an untraced set.
SETUP_PROBES = 4
#: A pass that takes longer than this is killed and fails the set.
PASS_TIMEOUT_S = 170
OPEN_LOOP_NOTE = ("latency runs from each arrival's due cycle; generator "
                  "lateness is 0 cycles by construction (arrivals are "
                  "scheduled in simulated time)")


class BenchError(Exception):
    """A benchmark process failed outright (crash, bad output)."""


def run_process(src: Path, workload: str, seed: int, kind: str) -> dict:
    """Run one ``child.py`` process of ``kind`` (``pass``, ``traced`` or
    ``setup``) and return its finished pass payload."""
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(seed), "--src", str(src)]
    if kind == "traced":
        cmd.append("--trace")
    elif kind == "setup":
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT_S)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {kind} process exited with "
                         f"{proc.returncode}")
    return M.finish_pass(json.loads(lines[-1]), kind, wall_s)


def check_src(src: Path) -> str | None:
    if not (src / "repro" / "__init__.py").is_file():
        return f"no repro package under {src}"
    return None


def run_set(workloads: list[str], args, src: Path) -> dict[str, list]:
    """All passes of one set, one process at a time, round-robin."""
    passes: dict[str, list] = {w: [] for w in workloads}
    spent = {w: 0.0 for w in workloads}
    probes = 0 if args.trace else SETUP_PROBES
    for w in [w for _ in range(probes) for w in workloads]:
        p = run_process(src, w, args.seed, "setup")
        spent[w] += p["wall_s"]
        passes[w].append(p)
    kinds = ("pass", "traced") if args.trace else ("pass",)
    active = list(workloads)
    while active:
        for w in list(active):
            full = [p for p in passes[w] if p["kind"] != "setup"]
            if args.runs is not None:
                done = len(full) >= args.runs * len(kinds)
            else:
                mean = sum(p["wall_s"] for p in full) / max(1, len(full))
                done = (len(full) >= len(kinds)
                        and spent[w] + mean > args.seconds)
            if done:
                active.remove(w)
                continue
            p = run_process(src, w, args.seed, kinds[len(full) % len(kinds)])
            spent[w] += p["wall_s"]
            passes[w].append(p)
    return passes


def workload_result(passes: list[dict], names: list[str]) -> dict:
    full = [p for p in passes if p["kind"] != "setup"]
    digests = sorted({p["sim_digest"] for p in full})
    errors = [e for p in full for e in p["errors"]]
    if len(digests) > 1:
        errors.append(f"sim_digest differs across passes: {digests}")
    summary = M.aggregate(passes, names)
    return {
        "correct": not errors,
        "attempted": sum(p["attempted"] for p in full),
        "failed": sum(p["failed"] for p in full),
        "errors": errors,
        "sim_digest": digests[0] if len(digests) == 1 else None,
        "metrics": summary,
        # Spans are kept for traced passes only, to keep records small.
        "passes": [{k: p[k] for k in ("kind", "wall_s", "metrics",
                                      "sim_digest", "errors", "spans")
                    if k != "spans" or p["kind"] == "traced"}
                   for p in passes],
    }


def _fmt(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else f"{v:.6g}"


def print_workload(name: str, why: str, res: dict, specs: dict,
                   trace: bool) -> None:
    counts = {}
    for p in res["passes"]:
        counts[p["kind"]] = counts.get(p["kind"], 0) + 1
    print(f"== {name}: {why}")
    print("   processes: " + ", ".join(f"{n} {k}" for k, n in counts.items())
          + f"; sim_digest {res['sim_digest'] or 'MISMATCH'}")
    if WORKLOADS[name].rates:
        print(f"   note: {OPEN_LOOP_NOTE}")
    print(f"   {'metric':34} {'unit':10} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'min':>11} {'max':>11} {'n':>3}")
    for metric, spec in specs.items():
        s = res["metrics"].get(metric)
        if s is None:
            why_missing = ("needs --trace" if metric.startswith("host.")
                           and not trace else "not measured")
            print(f"   {metric:34} {spec['unit']:10} {why_missing:>11}")
            continue
        print(f"   {metric:34} {spec['unit']:10} "
              + " ".join(f"{_fmt(s[k]):>11}"
                         for k in ("median", "q1", "q3", "min", "max"))
              + f" {s['n']:>3}")
    for e in res["errors"]:
        print(f"   CHECK FAILED: {e}")


def git_info() -> dict:
    if not (ROOT / ".git").exists():
        return {"rev": "unknown", "dirty": None}
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status",
                                 "--porcelain"],
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return {"rev": "unknown", "dirty": None}
    return {"rev": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}


def host_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "machine": platform.machine(), "system": platform.platform(),
            "python": platform.python_version()}


def main(argv: list[str] | None = None) -> int:
    spec = M.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measuring budget per workload (default: "
                         "%(default)s)")
    ap.add_argument("--runs", type=int,
                    help="exact passes per workload and kind (overrides "
                         "--seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="also run traced passes for per-layer metrics")
    ap.add_argument("--out", type=Path, default=SUITE / "out",
                    help="directory for the set's JSON result")
    args = ap.parse_args(argv)
    if args.runs is not None and args.runs < 1:
        ap.error("--runs must be at least 1")
    src = ROOT / "src"
    problem = check_src(src)
    if problem:
        print(f"run.py: {problem}", file=sys.stderr)
        return 2
    workloads = args.workload or names
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    specs = M.metric_specs(spec)
    contract = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]

    try:
        passes = run_set(workloads, args, src)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    results = {w: workload_result(passes[w], list(specs)) for w in workloads}
    for w in workloads:
        print_workload(w, whys[w], results[w], specs, bool(args.trace))
        print()

    record = {"schema": "lease-release-bench/1", "git": git_info(),
              "created": datetime.datetime.now(datetime.timezone.utc)
              .isoformat(timespec="seconds"),
              "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "runs": args.runs,
              "host": host_info(), "workloads": results}
    args.out.mkdir(parents=True, exist_ok=True)
    stamp = record["created"].replace(":", "").replace("+0000", "Z")
    path = args.out / (f"{stamp}_{record['git']['rev'][:10]}_seed{args.seed}"
                       f"_{'traced' if args.trace else 'untraced'}.json")
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"set written to {path}")

    correct = all(r["correct"] for r in results.values())
    single = len(workloads) == 1
    line = {"correct": correct and all(
                name in results[w]["metrics"]
                for w in workloads for name in contract),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                (name if single else f"{w}.{name}"): {
                    "value": results[w]["metrics"][name]["median"],
                    "unit": specs[name]["unit"]}
                for w in workloads for name in contract
                if name in results[w]["metrics"]}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
