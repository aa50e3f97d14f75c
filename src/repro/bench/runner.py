"""Timing, recording, and baseline-diffing for the bench targets.

Protocol per target:

1. **Timing pass** -- call the target ``repeats`` times under
   :func:`time.perf_counter` and keep the *best* wall time (the standard
   microbenchmark discipline: minimum over repeats rejects scheduler noise
   one-sidedly).  Self-timed targets (those returning ``wall_seconds``)
   are still repeated and the best of their self-reported times kept.
2. **Heap pass** -- one extra run under :mod:`tracemalloc` for
   ``peak_heap_bytes``.  Separate pass because tracemalloc's bookkeeping
   slows the timed loop by an order of magnitude.
3. **Calibration** -- a fixed arithmetic loop timed once per process
   gives ``calibration_ops_per_sec``; ``score = ops_per_sec /
   calibration_ops_per_sec`` is a machine-normalized throughput, which is
   what the baseline gate compares.  Raw ops/sec moves with the host CPU;
   the ratio mostly cancels that out, so one committed baseline remains
   meaningful across developer laptops and CI runners.

Records are written one file per target (``BENCH_<name>.json``,
``bench_format`` 1); a baseline bundles the same records under a
``targets`` map.  :func:`diff_results` flags any target whose score fell
more than ``tolerance`` below the baseline.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
import tracemalloc
from typing import Any, Iterable, Sequence

from .targets import TARGETS

#: Schema version stamped into every record and baseline.
BENCH_FORMAT = 1

#: Default regression gate: fail when score drops >30% below baseline.
DEFAULT_TOLERANCE = 0.30

#: Iterations of the calibration loop (fixed forever: changing it changes
#: every score and invalidates committed baselines).
_CALIBRATION_ITERS = 2_000_000

_calibration_cache: float | None = None


def _calibration_loop(iters: int) -> int:
    """Fixed integer-arithmetic loop: same work on every machine."""
    acc = 0
    for i in range(iters):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    return acc


def calibration_ops_per_sec() -> float:
    """Ops/sec of the fixed arithmetic loop on this machine (cached --
    one measurement per process keeps scores self-consistent)."""
    global _calibration_cache
    if _calibration_cache is None:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _calibration_loop(_CALIBRATION_ITERS)
            best = min(best, time.perf_counter() - t0)
        _calibration_cache = _CALIBRATION_ITERS / best
    return _calibration_cache


def machine_fingerprint() -> dict:
    """Where a record was measured (stored, never compared exactly)."""
    info = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }
    digest = hashlib.sha256(
        json.dumps(info, sort_keys=True).encode()).hexdigest()[:12]
    return {**info, "id": digest}


def run_target(name: str, *, quick: bool = False, repeats: int = 3,
               fault_spec: str = "", seed: int | None = None,
               traffic: str = "") -> dict:
    """Run one bench target through the full protocol; returns its record.

    ``fault_spec`` threads a fault-injection spec into the machine-building
    targets (pure-scheduler targets ignore it); faulty records carry the
    spec so they are never mistaken for clean baselines.  ``seed`` reseeds
    the simulated machines the same way and is recorded alongside.
    ``traffic`` overrides the arrival spec of open-loop targets (only
    ``tail_latency`` takes one; naming it elsewhere is a ConfigError)."""
    import inspect

    from ..errors import ConfigError

    target = TARGETS[name]
    extra_kw: dict = {}
    if traffic:
        if "traffic" not in inspect.signature(target.fn).parameters:
            raise ConfigError(
                f"bench target {name!r} does not take --traffic "
                "(open-loop arrivals apply to: tail_latency)")
        extra_kw["traffic"] = traffic
    best_wall = float("inf")
    report: dict = {}
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        report = target.fn(quick, fault_spec, seed, **extra_kw)
        wall = report.get("wall_seconds", time.perf_counter() - t0)
        best_wall = min(best_wall, wall)

    tracemalloc.start()
    try:
        target.fn(quick, fault_spec, seed, **extra_kw)
        _, peak_heap = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    ops = report["ops"]
    events = report.get("events")
    calib = calibration_ops_per_sec()
    ops_per_sec = ops / best_wall if best_wall > 0 else 0.0
    return {
        "bench_format": BENCH_FORMAT,
        "name": name,
        "title": target.title,
        "quick": quick,
        "repeats": max(1, repeats),
        "wall_seconds": round(best_wall, 6),
        "ops": ops,
        "ops_per_sec": round(ops_per_sec, 1),
        "events": events,
        "events_per_sec": (round(events / best_wall, 1)
                           if events and best_wall > 0 else None),
        "peak_heap_bytes": peak_heap,
        "calibration_ops_per_sec": round(calib, 1),
        "score": round(ops_per_sec / calib, 6) if calib else 0.0,
        "fault_spec": fault_spec,
        "seed": seed,
        "extra": report.get("extra", {}),
        "machine": machine_fingerprint(),
    }


def _run_target_worker(name: str, quick: bool, repeats: int,
                       fault_spec: str, seed: int | None,
                       traffic: str) -> dict:
    """Module-level wrapper so parallel runs pickle cleanly."""
    return run_target(name, quick=quick, repeats=repeats,
                      fault_spec=fault_spec, seed=seed, traffic=traffic)


def run_many(names: Sequence[str], *, quick: bool = False, jobs: int = 1,
             repeats: int = 3, fault_spec: str = "",
             seed: int | None = None,
             traffic: str = "") -> dict[str, dict]:
    """Run several targets, optionally on worker processes.

    Note ``jobs > 1`` trades timing fidelity for wall-clock: concurrent
    workers contend for cores, so absolute numbers dip.  Scores are
    normalized per-process (calibration runs on each worker), which
    absorbs most of it; still, baselines should be recorded with
    ``jobs=1``.
    """
    names = list(names)
    if jobs > 1 and len(names) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as ex:
            futs = [ex.submit(_run_target_worker, n, quick, repeats,
                              fault_spec, seed, traffic)
                    for n in names]
            records = [f.result() for f in futs]
    else:
        records = [run_target(n, quick=quick, repeats=repeats,
                              fault_spec=fault_spec, seed=seed,
                              traffic=traffic)
                   for n in names]
    return {name: rec for name, rec in zip(names, records)}


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def write_results(results: dict[str, dict], out_dir: str = ".") -> list[str]:
    """Write one ``BENCH_<name>.json`` per record; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, rec in results.items():
        path = os.path.join(out_dir, f"BENCH_{name}.json")
        with open(path, "w") as f:
            json.dump(rec, f, indent=2, sort_keys=True)
            f.write("\n")
        paths.append(path)
    return paths


def write_baseline(results: dict[str, dict], path: str) -> None:
    """Bundle the records into a committed baseline file."""
    doc = {
        "bench_format": BENCH_FORMAT,
        "machine": machine_fingerprint(),
        "targets": results,
    }
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def load_baseline(path: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("bench_format") != BENCH_FORMAT:
        raise ValueError(
            f"{path}: unsupported bench_format "
            f"{doc.get('bench_format')!r} (expected {BENCH_FORMAT})")
    return doc


# ---------------------------------------------------------------------------
# Baseline diff
# ---------------------------------------------------------------------------

def diff_results(results: dict[str, dict], baseline: dict,
                 tolerance: float = DEFAULT_TOLERANCE) -> list[dict]:
    """Compare normalized scores against a baseline.

    Returns one row per target present in both sides with keys ``name``,
    ``old_score``, ``new_score``, ``delta_pct`` (positive = faster) and
    ``regressed`` (True when the new score fell more than ``tolerance``
    below the old).  Targets on only one side are skipped: a fresh target
    has nothing to regress against, and a retired one nothing to check.
    """
    rows = []
    base_targets = baseline.get("targets", {})
    for name, rec in results.items():
        old = base_targets.get(name)
        if old is None:
            continue
        old_score, new_score = old["score"], rec["score"]
        delta = ((new_score - old_score) / old_score * 100.0
                 if old_score else 0.0)
        rows.append({
            "name": name,
            "old_score": old_score,
            "new_score": new_score,
            "delta_pct": round(delta, 1),
            "regressed": bool(old_score)
            and new_score < old_score * (1.0 - tolerance),
        })
    return rows


def format_diff(rows: Iterable[dict]) -> str:
    """Render diff rows for terminal output."""
    from ..stats.report import format_table

    display = [{
        "target": r["name"],
        "baseline": round(r["old_score"], 4),
        "current": round(r["new_score"], 4),
        "delta%": r["delta_pct"],
        "status": "REGRESSED" if r["regressed"] else "ok",
    } for r in rows]
    return format_table(display) if display else "(no common targets)"


def profile_target(name: str, *, quick: bool = True,
                   top: int = 15, out=sys.stdout) -> None:
    """One cProfile pass over a target, printing the ``top`` entries by
    cumulative time (the ``--profile`` flag's backend)."""
    import cProfile
    import pstats

    target = TARGETS[name]
    prof = cProfile.Profile()
    prof.enable()
    target.fn(quick)
    prof.disable()
    stats = pstats.Stats(prof, stream=out)
    stats.sort_stats("cumulative")
    print(f"-- profile: {name} --", file=out)
    stats.print_stats(top)


def default_target_names() -> list[str]:
    return list(TARGETS)


def record_summary_line(rec: dict[str, Any]) -> str:
    """One human line per target for CLI output."""
    parts = [f"{rec['name']:<16} {rec['wall_seconds']*1000:9.1f} ms",
             f"{rec['ops_per_sec']:>12,.0f} ops/s",
             f"score {rec['score']:.4f}"]
    if rec.get("events_per_sec"):
        parts.insert(2, f"{rec['events_per_sec']:>12,.0f} ev/s")
    extra = rec.get("extra") or {}
    if "improvement_pct" in extra:
        parts.append(f"fast-path {extra['improvement_pct']:+}%")
    return "  ".join(parts)
