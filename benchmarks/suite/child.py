"""One benchmark process: a full pass over one workload, or a set-up probe.

    python benchmarks/suite/child.py --workload W --seed N --src DIR
                                     [--trace] [--setup-only]

``run.py`` and ``ab.py`` start this script once per pass, one at a time,
so every pass pays interpreter start-up and ``import repro`` as a user's
run does.  The last line of standard output is one JSON object: the
pass's metrics, checks, ``sim_digest`` and spans (and, with ``--trace``,
stack-sample counts per layer).

The pass drives only the public API: the ``EXPERIMENTS`` registry,
``harness.runner.sweep`` over one cell at a time, ``MachineConfig(seed=)``,
and ``Machine.run``/``check_coherence_invariants``, reached through the
drivers' run-hook seam (``repro.state.hooks.run_hook``).  That seam also
gives the span boundaries: *build* is sweep entry to the hook, *run* is
``Machine.run``, *result* is everything after it (invariant check, the
driver's ``Machine.result`` and lost-update assertion, this script's
checks).  A set-up probe leaves the hook by raising, so it builds every
cell and runs none.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from dataclasses import dataclass, field

from sampler import StackSampler

#: Per-stream rate (ops/kcycle) at which the open-loop latency is read.
LATENCY_RATE = 0.10
#: p99 limit (cycles) of the open-loop SLO; the SLO also demands no shed.
SLO_P99_CYCLES = 5_000


@dataclass(frozen=True)
class Workload:
    """A registered experiment's sweep restricted to ``threads`` (and, for
    an open loop, repeated over a Poisson rate ladder).  ``lease_arm`` and
    ``base_arm`` name the variants the end-to-end metrics compare at the
    top of the load axis: the highest thread count, or the highest rate."""

    experiment: str
    threads: tuple[int, ...]
    lease_arm: str
    base_arm: str
    #: Extra driver kwargs; closed loops must state ``ops_per_thread``,
    #: which the ops check relies on.
    kwargs: dict = field(default_factory=dict)
    #: Per-stream Poisson rates in ops/kcycle; empty for a closed loop.
    rates: tuple[float, ...] = ()
    tenants: int = 2
    arrivals: int = 150
    queue: int = 16

    def traffic(self, rate: float) -> str:
        return (f"poisson:rate={rate};tenants={self.tenants};"
                f"queue={self.queue};ops={self.arrivals};"
                f"slo:p99={SLO_P99_CYCLES},shed=0")

    def offered(self, threads: int) -> int:
        """Operations one cell attempts."""
        if self.rates:
            return threads * self.tenants * self.arrivals
        return threads * self.kwargs["ops_per_thread"]


#: The four workloads.  Why each exists: see README.md.
WORKLOADS = {
    "fig2_stack": Workload(
        "fig2_stack", (2, 4, 8, 16, 32, 64), "lease", "base",
        {"ops_per_thread": 60}),
    "spin_locks": Workload(
        "fig3_counter", (8, 32), "tts+lease", "tts", {"ops_per_thread": 60}),
    "read_mostly": Workload(
        "e2_low_contention_skiplist", (8, 32), "lease", "base",
        {"ops_per_thread": 80, "key_range": 8192}),
    "open_loop_counter": Workload(
        "counter", (16,), "tts+lease", "tts",
        rates=(0.05, 0.075, 0.10, 0.125, 0.15, 0.175, 0.20)),
}


@dataclass(frozen=True)
class Cell:
    arm: str
    threads: int
    rate: float | None = None

    @property
    def label(self) -> str:
        rate = "" if self.rate is None else f" rate={self.rate}"
        return f"{self.arm} t={self.threads}{rate}"


class Spans:
    """In-memory span log.  Times are seconds since ``origin``; a span's
    ``parent`` is the id of the span that caused it."""

    def __init__(self, origin: float) -> None:
        self.origin = origin
        self.items: list[dict] = []

    def open(self, name: str, parent: int | None = None,
             label: str = "") -> int:
        self.items.append({"id": len(self.items), "parent": parent,
                           "name": name, "label": label,
                           "start": time.perf_counter() - self.origin,
                           "end": None})
        return len(self.items) - 1

    def close(self, sid: int) -> None:
        self.items[sid]["end"] = time.perf_counter() - self.origin

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.items
                   if s["name"] == name and s["end"] is not None)


class _SetupOnly(Exception):
    """Raised by the run hook of a set-up probe in place of the run."""


def _check(w: Workload, cell: Cell, res) -> str | None:
    """Why ``res`` is wrong for ``cell``, or None."""
    if cell.rate is None:
        expected = w.offered(cell.threads)
        if res.ops != expected:
            return f"{res.ops} ops completed, expected {expected}"
        return None
    lat = res.latency
    if lat is None:
        return "open-loop cell returned no latency payload"
    if lat["admitted"] + lat["shed"] != w.offered(cell.threads):
        return (f"{lat['admitted']} admitted + {lat['shed']} shed != "
                f"{w.offered(cell.threads)} arrivals")
    if res.ops != lat["admitted"]:
        return f"{res.ops} ops completed, {lat['admitted']} admitted"
    return None


def _run_cell(w: Workload, exp, cell: Cell, config, spans: Spans,
              parent: int, setup_only: bool) -> tuple:
    """Run one cell through ``sweep`` with the span hook installed.
    Returns ``(result, error, events)``; ``result`` is None when the cell
    failed or is only being built."""
    from repro.errors import ReproError
    from repro.harness.runner import sweep
    from repro.state import hooks

    cid = spans.open("cell", parent, cell.label)
    open_ids = [spans.open("build", cid)]
    events: list[int] = []

    def hook(m):
        spans.close(open_ids.pop())
        if setup_only:
            raise _SetupOnly
        open_ids.append(spans.open("run", cid))
        m.run()
        spans.close(open_ids.pop())
        open_ids.append(spans.open("result", cid))
        m.check_coherence_invariants()
        events.append(m.sim.events_processed)

    kwargs = {**exp.common, **w.kwargs}
    if cell.rate is not None:
        kwargs["traffic"] = w.traffic(cell.rate)
    prev_hook, hooks.run_hook = hooks.run_hook, hook
    res = error = None
    try:
        res = sweep(exp.bench, {cell.arm: exp.variants[cell.arm]},
                    (cell.threads,), config=config, **kwargs)[cell.arm][0]
        error = _check(w, cell, res)
    except _SetupOnly:
        pass
    except (AssertionError, ReproError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    finally:
        hooks.run_hook = prev_hook
        for sid in open_ids:
            spans.close(sid)
        spans.close(cid)
    return (None if error else res), error, sum(events)


def run_pass(w: Workload, seed: int, *, setup_only: bool = False,
             sampler: StackSampler | None = None,
             origin: float | None = None) -> dict:
    """Run (or, with ``setup_only``, just build) every cell of ``w`` in
    this process and return the pass payload.  A cell whose driver
    assertion or check fails is recorded and counted, not raised."""
    spans = Spans(time.perf_counter() if origin is None else origin)
    digest = hashlib.sha256()
    cells: list[dict] = []
    errors: list[str] = []
    attempted = failed = 0
    if sampler is not None:
        sampler.start()
    try:
        root = spans.open("workload", label=w.experiment)
        sid = spans.open("import", root)
        # Every repro module _run_cell needs, so the import span holds them.
        import repro.state.hooks  # noqa: F401
        from repro.config import MachineConfig
        from repro.harness.experiments import EXPERIMENTS
        spans.close(sid)

        exp = EXPERIMENTS[w.experiment]
        config = MachineConfig(seed=seed)
        for cell in (Cell(arm, n, rate) for arm in exp.variants
                     for n in w.threads for rate in w.rates or (None,)):
            res, error, events = _run_cell(w, exp, cell, config, spans, root,
                                           setup_only)
            if setup_only:
                continue
            attempted += w.offered(cell.threads)
            if error is not None:
                failed += w.offered(cell.threads)
                errors.append(f"{cell.label}: {error}")
                record = [cell.label, "failed", error]
            else:
                lat = res.latency
                record = [cell.label, res.row(), res.counters,
                          lat["hist"] if lat else None]
                cells.append(_cell_record(cell, res, events))
            digest.update(json.dumps(record, sort_keys=True).encode())
        spans.close(root)
    finally:
        if sampler is not None:
            sampler.stop()

    metrics = {"span.import_s": spans.total("import"),
               "span.build_s": spans.total("build")}
    metrics["setup_s"] = metrics["span.import_s"] + metrics["span.build_s"]
    if not setup_only:
        metrics.update(_pass_metrics(w, cells, spans))
    payload = {"attempted": attempted, "failed": failed, "errors": errors,
               "sim_digest": None if setup_only else digest.hexdigest(),
               "metrics": metrics, "spans": spans.items}
    if sampler is not None:
        payload["layers"] = dict(sampler.counts)
    return payload


def _cell_record(cell: Cell, res, events: int) -> dict:
    lat = res.latency
    return {"arm": cell.arm, "threads": cell.threads, "rate": cell.rate,
            "ops": res.ops, "mops": res.mops_per_sec,
            "nj_per_op": res.energy_nj_per_op, "events": events,
            "counters": res.counters,
            "latency": None if lat is None else {
                k: lat.get(k) for k in ("p50", "p99", "slo")}}


def _slo_rate(w: Workload, by: dict, arm: str) -> float:
    """Highest ladder rate up to which every rate meets the SLO."""
    best = 0.0
    for rate in sorted(w.rates):
        c = by.get((arm, max(w.threads), rate))
        if c is None or c["latency"]["slo"] != "pass":
            break
        best = rate
    return best


def _pass_metrics(w: Workload, cells: list[dict], spans: Spans) -> dict:
    """Every metric one full pass measures, except those the parent adds
    from its own timing (``wall_s``, ``host.*``)."""
    by = {(c["arm"], c["threads"], c["rate"]): c for c in cells}
    top = (max(w.threads), max(w.rates) if w.rates else None)
    lease, base = by.get((w.lease_arm, *top)), by.get((w.base_arm, *top))

    def total(counter: str) -> int:
        return sum(c["counters"][counter] for c in cells)

    ops = max(1, sum(c["ops"] for c in cells))
    run_s = spans.total("run")
    events = sum(c["events"] for c in cells)
    releases = (total("releases_voluntary") + total("releases_involuntary")
                + total("releases_broken_by_priority")
                + total("releases_fifo_eviction"))
    m = {
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "span.run_s": run_s,
        "span.result_s": spans.total("result"),
        "engine.events": events,
        "engine.events_per_s": events / run_s if run_s else 0.0,
        "coherence.msgs_per_op": total("messages") / ops,
        "coherence.l1_misses_per_op": total("l1_misses") / ops,
        "coherence.l1_evictions": total("l1_evictions"),
        "coherence.l2_accesses": total("l2_accesses"),
        "coherence.dram_accesses": total("dram_accesses"),
        "coherence.invalidations": total("invalidations_sent"),
        "coherence.dir_queued": total("dir_queued_requests"),
        "coherence.dir_max_queue_depth":
            max((c["counters"]["dir_max_queue_depth"] for c in cells),
                default=0),
        "lease.granted": total("leases_granted"),
        "lease.voluntary_frac":
            total("releases_voluntary") / releases if releases else 0.0,
        "lease.expired": total("releases_involuntary"),
        "lease.broken": total("releases_broken_by_priority"),
        "lease.probes_deferred": total("probes_queued_at_core"),
        "sync.cas_failure_rate":
            total("cas_failures") / max(1, total("cas_attempts")),
        "sync.lock_failure_rate":
            total("lock_acquire_failures")
            / max(1, total("lock_acquire_attempts")),
        "traffic.admitted": total("traffic_admitted"),
        "traffic.shed": total("traffic_shed"),
    }
    if lease is not None and base is not None:
        m["lease_mops"] = lease["mops"]
        m["lease_speedup"] = lease["mops"] / base["mops"]
        m["nj_per_op"] = lease["nj_per_op"]
    if w.rates:
        at = (max(w.threads), LATENCY_RATE)
        lease_lat = by.get((w.lease_arm, *at))
        base_lat = by.get((w.base_arm, *at))
        if lease_lat is not None:
            m["traffic.lease_p50_cycles"] = lease_lat["latency"]["p50"]
            m["traffic.lease_p99_cycles"] = lease_lat["latency"]["p99"]
        if base_lat is not None:
            m["traffic.base_p99_cycles"] = base_lat["latency"]["p99"]
        m["traffic.lease_slo_rate"] = _slo_rate(w, by, w.lease_arm)
        m["traffic.base_slo_rate"] = _slo_rate(w, by, w.base_arm)
    else:
        for name in ("lease_p50_cycles", "lease_p99_cycles",
                     "base_p99_cycles", "lease_slo_rate", "base_slo_rate"):
            m[f"traffic.{name}"] = 0
    return m


def main(argv: list[str] | None = None) -> int:
    origin = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True,
                    help="source directory holding the repro package")
    ap.add_argument("--trace", action="store_true",
                    help="charge stack samples to layers")
    ap.add_argument("--setup-only", action="store_true",
                    help="build every cell, run none")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    payload = run_pass(WORKLOADS[args.workload], args.seed,
                       setup_only=args.setup_only,
                       sampler=StackSampler() if args.trace else None,
                       origin=origin)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
