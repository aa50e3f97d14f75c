"""Metric bookkeeping shared by ``run.py``, ``ab.py`` and the tests.

Pure Python, no simulator import: the metric contract in the root
``BENCHMARK.json``, the host metrics the parent process adds to a pass,
per-metric summaries, and the A/B verdict rule.

A pass is one benchmark process (see ``child.py``) of one of three kinds:

* ``pass``   -- untraced full pass; feeds every metric except ``host.*``;
* ``traced`` -- full pass under the stack sampler; feeds ``host.*``;
* ``setup``  -- set-up probe (import + build every cell, run none); feeds
  ``setup_s`` only.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from sampler import shares

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_spec(path: Path = SPEC_PATH) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def metric_specs(spec: dict) -> dict[str, dict]:
    """Every end-to-end and per-layer metric by name."""
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------------
# Per-pass host metrics (known only to the parent, which timed the process)
# ---------------------------------------------------------------------------

def finish_pass(payload: dict, kind: str, wall_s: float) -> dict:
    """Stamp a child's pass payload with its kind and wall time, and turn
    its sample counts into ``host.*`` metrics: a layer's self time is its
    share of the samples times the traced process's wall time."""
    payload["kind"] = kind
    payload["wall_s"] = wall_s
    m = payload["metrics"]
    if kind != "setup":
        m["wall_s"] = wall_s
    layers = payload.get("layers")
    if layers is not None:
        m["host.samples"] = sum(layers.values())
        for layer, share in shares(layers).items():
            m[f"host.{layer}.self_s"] = share * wall_s
    return payload


def _values(name: str, passes: list[dict]) -> list[float]:
    if name == "host.trace_overhead":
        # Passes alternate untraced/traced, so pair them in order.
        plain = [p["wall_s"] for p in passes if p["kind"] == "pass"]
        traced = [p["wall_s"] for p in passes if p["kind"] == "traced"]
        return [t / u for u, t in zip(plain, traced)]
    if name.startswith("host."):
        kinds: tuple[str, ...] = ("traced",)
    elif name == "setup_s":
        kinds = ("pass", "setup")
    else:
        kinds = ("pass",)
    return [p["metrics"][name] for p in passes
            if p["kind"] in kinds and name in p["metrics"]]


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for a 0
    median: every metric this applies to is then exact)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def summarize(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values)}


def aggregate(passes: list[dict], names: list[str]) -> dict[str, dict]:
    """Summary of each named metric over the passes that measure it;
    metrics no pass measured are left out."""
    out = {}
    for name in names:
        values = _values(name, passes)
        if values:
            out[name] = summarize(values)
    return out


# ---------------------------------------------------------------------------
# A/B verdict
# ---------------------------------------------------------------------------

def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, int]:
    """Judge one metric of an interleaved A/B; ``parent[i]`` and
    ``change[i]`` are pair ``i``.  Returns ``(verdict, change wins)``.

    * ``improved``   -- the change wins at least 9/10 of the pairs (ties
      count for neither side) and its median beats the parent's by more
      than the parent's own interquartile distance;
    * ``unresolved`` -- either side's spread (IQR / median) is wider than
      ``bound``, unless every change run beats every parent run;
    * ``regressed``  -- the change's median is worse than the parent's by
      more than ``bound`` (a share of the parent's median);
    * ``no change``  -- otherwise.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("verdict needs the same non-zero number of runs "
                         "on both sides")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = sign * (cmed - pmed)
    if 10 * wins >= 9 * len(parent) and gain > p3 - p1:
        return "improved", wins
    if max(spread(parent), spread(change)) > bound:
        worst_change = min(sign * c for c in change)
        best_parent = max(sign * p for p in parent)
        return ("no change" if worst_change > best_parent
                else "unresolved"), wins
    if -gain > bound * abs(pmed):
        return "regressed", wins
    return "no change", wins
