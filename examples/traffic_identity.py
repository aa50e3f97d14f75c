#!/usr/bin/env python3
"""Seeded open-loop traffic identity fuzz.

Each round draws a random cell -- workload, arrival process, key
distribution, tenants, queue depth, thread count, faults -- and checks
the determinism contract of :mod:`repro.traffic` two ways:

1. **Checkpoint/restore identity**: the run is cut mid-flight with a
   ``state_dict`` -> JSON -> ``load_state`` roundtrip into a fresh
   machine; the restored run must reproduce the same latency histogram
   and the same admitted and shed counts.  (Skiplist cells run through
   the driver bench, which exposes no mid-run cut, so they only check
   that the cell completes.)
2. **Serial vs ``--jobs`` identity** (once per invocation): a two-cell
   sweep through the real harness path runs serially and on two worker
   processes; each cell's latency payload must match.

On a divergence the cell and both sides are dumped under
``--artifact-dir`` for CI to upload, and the script exits 1.

Run:  python examples/traffic_identity.py --rounds 20 --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import replace

from repro.config import MachineConfig
from repro.core.machine import Machine
from repro.structures import LockedCounter, TreiberStack
from repro.traffic import (TrafficSource, traffic_counter_worker,
                           traffic_stack_worker)
from repro.workloads.driver import bench_skiplist

FAULT_SPECS = (
    "",
    "net_jitter:p=0.05,max=60",
    "dir_nack:p=0.02;timer_skew:4",
)

ARRIVALS = (
    "poisson:rate={rate}",
    "burst:rate={rate},on=300,off=500",
    "ramp:rate={rate},period=800",
)

KEYS = ("", "zipf:s=1.2", "hotset:frac=0.9,size=4,shift=64")


def draw_cell(rng: random.Random) -> dict:
    rate = rng.choice((1.0, 2.0, 4.0, 8.0))
    spec = ARRIVALS[rng.randrange(len(ARRIVALS))].format(rate=rate)
    keys = rng.choice(KEYS)
    if keys:
        spec += "," + keys
    if rng.random() < 0.5:
        spec += f",tenants={rng.choice((2, 3))}"
    spec += f",queue={rng.choice((4, 8, 16))}"
    return {
        "workload": rng.choice(("counter", "treiber", "skiplist")),
        "traffic": spec,
        "faults": rng.choice(FAULT_SPECS),
        "leases": rng.random() < 0.5,
        "threads": rng.choice((2, 4, 8)),
        "ops": rng.randrange(6, 20),
        "machine_seed": rng.randrange(1, 10_000),
    }


def run_skiplist(cell: dict) -> None:
    cfg = MachineConfig(fault_spec=cell["faults"],
                        seed=cell["machine_seed"])
    bench_skiplist(cell["threads"], key_range=64, use_lease=cell["leases"],
                   traffic=cell["traffic"] + f",ops={cell['ops']}",
                   config=cfg)


def build_direct(cell: dict) -> tuple[Machine, TrafficSource]:
    """Checkpointable build of the counter/treiber cells (the restore leg
    needs a mid-run cut, which the driver benches don't expose)."""
    cfg = MachineConfig(num_cores=cell["threads"],
                        fault_spec=cell["faults"],
                        seed=cell["machine_seed"])
    if cell["leases"]:
        cfg = replace(cfg, lease=replace(cfg.lease, enabled=True))
    m = Machine(cfg)
    m.enable_checkpointing()
    src = TrafficSource(cell["traffic"], num_lanes=cell["threads"],
                        seed=cfg.seed, key_range=64,
                        default_ops=cell["ops"])
    if cell["workload"] == "treiber":
        s = TreiberStack(m, lease_time=600)
        s.prefill(range(16))
        for t in range(cell["threads"]):
            m.add_thread(traffic_stack_worker, s, src.lane(t))
    else:
        c = LockedCounter(m, lock="tts")
        for t in range(cell["threads"]):
            m.add_thread(traffic_counter_worker, c, src.lane(t))
    return m, src


def dump(artifact_dir: str, name: str, payload: dict) -> str:
    path = os.path.join(artifact_dir, name)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=str)
    return path


def run_round(i: int, cell: dict, artifact_dir: str) -> bool:
    if cell["workload"] == "skiplist":
        run_skiplist(cell)
        return True

    ref_m, ref_src = build_direct(cell)
    ref_m.run()
    cut_m, _ = build_direct(cell)
    cut_m.run(until=max(1, ref_m.sim.now // 2))
    blob = json.dumps(cut_m.state_dict())
    res_m, res_src = build_direct(cell)
    res_m.load_state(json.loads(blob))
    res_m.run()
    if (res_src.histogram() != ref_src.histogram()
            or res_src.admitted != ref_src.admitted
            or res_src.shed != ref_src.shed):
        path = dump(artifact_dir, f"traffic-identity-{i}-restore.json",
                    {"cell": cell,
                     "straight": ref_src.summary(),
                     "restored": res_src.summary()})
        print(f"RESTORE DIVERGENCE round {i}: {cell} (dump: {path})",
              file=sys.stderr)
        return False
    return True


def check_jobs_identity(artifact_dir: str) -> bool:
    """One fixed sweep, serial vs two worker processes: per-cell latency
    payloads (histogram included) must match."""
    from repro.harness import run_experiment

    spec = "poisson:rate=2.0,zipf:s=1.1,tenants=2,ops=10"
    kw = dict(thread_counts=(2, 4), seed=11, traffic=spec)
    serial = run_experiment("counter", jobs=1, **kw)
    fanned = run_experiment("counter", jobs=2, **kw)
    ser = {name: [r.latency for r in series]
           for name, series in serial.items()}
    fan = {name: [r.latency for r in series]
           for name, series in fanned.items()}
    if ser != fan:
        path = dump(artifact_dir, "traffic-identity-jobs.json",
                    {"spec": spec, "serial": ser, "jobs2": fan})
        print(f"JOBS DIVERGENCE: serial vs --jobs 2 (dump: {path})",
              file=sys.stderr)
        return False
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--artifact-dir", default="traffic-identity-artifacts")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    os.makedirs(args.artifact_dir, exist_ok=True)
    failures = 0
    for i in range(args.rounds):
        cell = draw_cell(rng)
        if not run_round(i, cell, args.artifact_dir):
            failures += 1
    if not check_jobs_identity(args.artifact_dir):
        failures += 1
    print(f"{args.rounds - failures}/{args.rounds} cells identical "
          "(+ serial-vs-jobs sweep check)" if not failures else
          f"{failures} divergence(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
