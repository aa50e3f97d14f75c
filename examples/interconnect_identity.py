#!/usr/bin/env python3
"""Seeded contended-interconnect identity fuzz.

Two properties, each over random cells of the feature grid (workload,
protocol, leases, faults, core count, op count, network spec):

1. **Infinite-spec identity** -- a machine configured with
   ``network.spec="infinite"`` must be bit-identical (field-for-field
   ``RunResult``, same ``events_processed``, same final cycle) to the
   spec-less build: the default path must not grow queues.
2. **Checkpoint roundtrip through saturated links** -- snapshot mid-run
   (with messages parked in link/port queues), restore into a fresh
   machine, run both plus an uninterrupted control to completion:
   all three RunResults must match field for field.

On a divergence the mismatching sides (plus the cell needed to reproduce
them) are dumped under ``--artifact-dir`` for CI to upload, and the
script exits 1.

Run:  python examples/interconnect_identity.py --rounds 20 --ckpt-rounds 8
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
from dataclasses import replace

from repro.config import MachineConfig
from repro.core.machine import Machine
from repro.structures import LockedCounter, TreiberStack

FAULT_SPECS = (
    "",
    "net_jitter:p=0.1,max=40",
    "dir_nack:p=0.05;timer_skew:4",
    "link_degrade:p=0.3,factor=4",
    "net_jitter:p=0.02,max=120;link_degrade:p=0.2,factor=2,queue=2",
)


def draw_net_spec(rng: random.Random) -> str:
    clauses = [f"link:bw={rng.choice((1, 2, 3))}"]
    if rng.random() < 0.6:
        clauses[0] += f",queue={rng.choice((2, 4, 8))}"
    if rng.random() < 0.5:
        clauses[0] += f",flits={rng.choice((2, 4, 8))}"
    arb = rng.choice(("fifo", "wrr", "priority"))
    if arb == "wrr":
        clauses.append(f"arb:wrr,weights={rng.choice((1, 2, 3))}"
                       f":{rng.choice((1, 2))}")
    else:
        clauses.append(f"arb:{arb}")
    if rng.random() < 0.7:
        clauses.append(f"port:dir={rng.choice((1, 2))}"
                       f",mem={rng.choice((2, 4))}"
                       f",queue={rng.choice((2, 4))}")
    return ";".join(clauses)


def draw_cell(rng: random.Random) -> dict:
    return {
        "workload": rng.choice(("treiber", "counter")),
        "protocol": rng.choice(("msi", "mesi")),
        "leases": rng.random() < 0.5,
        "faults": rng.choice(FAULT_SPECS),
        "threads": rng.choice((2, 4, 8)),
        "ops": rng.randrange(6, 20),
        "machine_seed": rng.randrange(1, 10_000),
        "net": draw_net_spec(rng),
        "cut": rng.randrange(150, 900),
    }


def build_machine(cell: dict, spec: str) -> Machine:
    cfg = MachineConfig(num_cores=cell["threads"],
                        protocol=cell["protocol"],
                        fault_spec=cell["faults"],
                        seed=cell["machine_seed"])
    cfg = cfg.with_leases(cell["leases"])
    cfg = replace(cfg, network=replace(cfg.network, spec=spec))
    m = Machine(cfg)
    if cell["workload"] == "treiber":
        s = TreiberStack(m)
        s.prefill(range(16))
        for _ in range(cell["threads"]):
            m.add_thread(s.update_worker, cell["ops"])
    else:
        c = LockedCounter(m, lock="tts")
        for _ in range(cell["threads"]):
            m.add_thread(c.update_worker, cell["ops"])
    return m


def _run(m: Machine) -> dict:
    m.run()
    return {"result": dataclasses.asdict(m.result("identity")),
            "events": m.sim.events_processed, "now": m.sim.now}


def _dump(artifact_dir: str, name: str, payload: dict) -> str:
    path = os.path.join(artifact_dir, name)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=str)
    return path


def run_identity_round(i: int, cell: dict, artifact_dir: str) -> bool:
    # infinite spec == no spec (link_degrade only bites on a contended
    # build, so keep the fault spec out of this leg).
    plain_cell = dict(cell, faults="")
    plain = _run(build_machine(plain_cell, ""))
    inf = _run(build_machine(plain_cell, "infinite"))
    if plain == inf:
        return True
    path = _dump(artifact_dir, f"infinite-identity-{i}.json",
                 {"cell": plain_cell, "plain": plain, "infinite": inf})
    print(f"INFINITE-SPEC DIVERGENCE round {i}: {cell} (dump: {path})",
          file=sys.stderr)
    return False


def run_ckpt_round(i: int, cell: dict, artifact_dir: str) -> bool:
    m1 = build_machine(cell, cell["net"])
    m1.enable_checkpointing()
    m1.run(until=cell["cut"])
    state = json.loads(json.dumps(m1.state_dict()))

    m2 = build_machine(cell, cell["net"])
    m2.load_state(state)
    m1.run()
    m2.run()
    m3 = build_machine(cell, cell["net"])
    m3.run()

    r1 = dataclasses.asdict(m1.result("identity"))
    r2 = dataclasses.asdict(m2.result("identity"))
    r3 = dataclasses.asdict(m3.result("identity"))
    if r1 == r2 == r3:
        return True
    path = _dump(artifact_dir, f"ckpt-roundtrip-{i}.json",
                 {"cell": cell, "checkpointed": r1, "restored": r2,
                  "uninterrupted": r3})
    print(f"ROUNDTRIP DIVERGENCE round {i}: {cell} (dump: {path})",
          file=sys.stderr)
    return False


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--ckpt-rounds", type=int, default=8)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--artifact-dir",
                    default="interconnect-identity-artifacts")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    os.makedirs(args.artifact_dir, exist_ok=True)
    failures = 0
    for i in range(args.rounds):
        if not run_identity_round(i, draw_cell(rng), args.artifact_dir):
            failures += 1
    for i in range(args.ckpt_rounds):
        if not run_ckpt_round(i, draw_cell(rng), args.artifact_dir):
            failures += 1
    total = args.rounds + args.ckpt_rounds
    print(f"{total - failures}/{total} cells identical "
          f"({args.rounds} identity + {args.ckpt_rounds} roundtrip)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
