"""Interleaved A/B of two source trees on the benchmark's workloads.

    python3 benchmarks/suite/ab.py --parent DIR --change DIR [--pairs 10]
                                   [--workload W ...] [--seed N]

``DIR`` is the root of a source tree (it holds ``src/repro``); both sides
run this suite's ``child.py``, so the benchmark code is identical.  Each
pair runs one untraced pass per side, alternating which side goes first,
round-robin across workloads, one process at a time.

For every workload and end-to-end metric it prints each side's median and
quartiles, the change's wins out of the pairs, and a verdict by the rule
in ``metrics.verdict`` with the bound from ``BENCHMARK.json``.  It also
says whether ``sim_digest`` matched.  Exits 1 if a pass failed a check or
a metric regressed, 2 if a source tree is missing.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import metrics as M
from run import BenchError, check_src, run_process


def main(argv: list[str] | None = None) -> int:
    spec = M.load_spec()
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]],
                    help="workload to compare (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    srcs = {"parent": (args.parent / "src").resolve(),
            "change": (args.change / "src").resolve()}
    for side, src in srcs.items():
        problem = check_src(src)
        if problem:
            print(f"ab.py: --{side}: {problem}", file=sys.stderr)
            return 2
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    runs = {w: {"parent": [], "change": []} for w in workloads}
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                              "parent")
            for w in workloads:
                for side in order:
                    runs[w][side].append(
                        run_process(srcs[side], w, args.seed, "pass"))
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"ab.py: {exc}", file=sys.stderr)
        return 1

    bad = False
    print(f"{'workload':18} {'metric':14} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>6}  verdict")
    for w in workloads:
        sides = runs[w]
        for m in spec["end_to_end"]:
            vals = {s: [p["metrics"][m["name"]] for p in sides[s]]
                    for s in sides}
            verdict, wins = M.verdict(vals["parent"], vals["change"],
                                      m["better"], m["bound"])
            bad |= verdict == "regressed"
            cols = []
            for s in ("parent", "change"):
                q1, med, q3 = M.quartiles(vals[s])
                cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{w:18} {m['name']:14} {cols[0]:>32} {cols[1]:>32} "
                  f"{wins:>3}/{args.pairs:<2}  {verdict}")
        digests = {s: {p["sim_digest"] for p in sides[s]} for s in sides}
        errors = [e for s in sides for p in sides[s] for e in p["errors"]]
        bad |= bool(errors)
        same = (len(digests["parent"]) == 1
                and digests["parent"] == digests["change"])
        print(f"{w:18} sim_digest     "
              + ("matched" if same else
                 f"DIFFERS parent={sorted(digests['parent'])} "
                 f"change={sorted(digests['change'])}"))
        for e in errors:
            print(f"{w:18} CHECK FAILED: {e}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
