"""Tests of the benchmark suite's own machinery.

    PYTHONPATH=src pytest benchmarks/suite

Every pass here runs in-process on a tiny workload, so the file takes a
few seconds.
"""

from __future__ import annotations

import time

import pytest

import child
import metrics
from sampler import LAYERS, StackSampler, layer_of_module, shares

TINY_CLOSED = child.Workload("fig2_stack", (2, 4), "lease", "base",
                             {"ops_per_thread": 4})
TINY_OPEN = child.Workload("counter", (2,), "tts+lease", "tts",
                           rates=(0.05, 0.10), arrivals=4)


def _busy(module: str, cpu_seconds: float) -> None:
    """Spin for ``cpu_seconds`` of CPU time in a function whose frames
    claim to belong to ``module``."""
    ns = {"__name__": module}
    exec("def spin(t):\n"
         "    import time\n"
         "    end = time.process_time() + t\n"
         "    while time.process_time() < end:\n"
         "        pass\n", ns)
    ns["spin"](cpu_seconds)


@pytest.mark.parametrize("module, layer", [
    ("repro.engine.simulator", "engine"),
    ("repro.coherence.directory", "coherence.directory"),
    ("repro.coherence.messages", "other"),
    ("repro.faults.plan", "other"),
    ("repro", "other"),
    ("json.decoder", None),
])
def test_layer_of_module(module, layer):
    assert layer_of_module(module) == layer


def test_sampler_charges_busy_loop_to_its_layer():
    sampler = StackSampler(interval=0.002)
    sampler.start()
    try:
        _busy("repro.coherence.directory", 0.4)
        _busy("repro.core.core", 0.2)
    finally:
        sampler.stop()
    share = shares(sampler.counts)
    assert set(share) == set(LAYERS)
    assert sum(share.values()) == pytest.approx(1.0)
    assert sum(sampler.counts.values()) >= 100
    assert 0.55 < share["coherence.directory"] < 0.8
    assert 0.2 < share["core"] < 0.45


def _finished(workload, kind, seed=1):
    start = time.perf_counter()
    payload = child.run_pass(
        workload, seed,
        setup_only=kind == "setup",
        sampler=StackSampler() if kind == "traced" else None)
    return metrics.finish_pass(payload, kind, time.perf_counter() - start)


@pytest.mark.parametrize("workload", [TINY_CLOSED, TINY_OPEN],
                         ids=["closed", "open"])
def test_result_metric_names_match_benchmark_json(workload):
    spec = metrics.load_spec()
    assert {w["name"] for w in spec["workloads"]} == set(child.WORKLOADS)
    names = list(metrics.metric_specs(spec))
    passes = [_finished(workload, kind)
              for kind in ("setup", "pass", "traced")]
    summary = metrics.aggregate(passes, names)
    assert set(summary) == set(names)
    assert all(p["failed"] == 0 and not p["errors"] for p in passes)
    for m in spec["end_to_end"]:
        assert summary[m["name"]]["median"] > 0, m["name"]


def test_sim_digest_is_stable_and_seed_sensitive():
    first = child.run_pass(TINY_OPEN, 1)
    again = child.run_pass(TINY_OPEN, 1)
    other = child.run_pass(TINY_OPEN, 2)
    assert first["sim_digest"] == again["sim_digest"]
    assert first["sim_digest"] != other["sim_digest"]


def test_failing_cell_is_counted_not_raised(monkeypatch):
    from repro import workloads as w
    from repro.harness.experiments import EXPERIMENTS

    def lossy(num_threads, *, variant="base", **kw):
        res = w.bench_stack(num_threads, variant=variant, **kw)
        if variant == "lease":
            raise AssertionError("lost updates")
        return res

    exp = EXPERIMENTS["fig2_stack"]
    monkeypatch.setitem(EXPERIMENTS, "fig2_stack",
                        type(exp)(exp.id, exp.title, lossy, exp.variants))
    payload = child.run_pass(TINY_CLOSED, 1)
    assert payload["attempted"] == 2 * 4 * (2 + 4)
    assert payload["failed"] == 4 * (2 + 4)
    assert len(payload["errors"]) == 2
    assert "lease_speedup" not in payload["metrics"]


def _pairs(parent_med, change_meds, jitter=0.002):
    parent = [parent_med * (1 + jitter * (i % 3 - 1)) for i in range(10)]
    return parent, list(change_meds)


def test_verdict_needs_nine_of_ten_wins():
    parent, change = _pairs(100.0, [95.0] * 9 + [101.0])
    assert metrics.verdict(parent, change, "lower", 0.1) == ("improved", 9)
    parent, change = _pairs(100.0, [95.0] * 8 + [101.0] * 2)
    assert metrics.verdict(parent, change, "lower", 0.1) == ("no change", 8)


def test_verdict_regressed_beyond_bound():
    parent, change = _pairs(100.0, [115.0] * 10)
    assert metrics.verdict(parent, change, "lower", 0.1)[0] == "regressed"
    assert metrics.verdict(parent, change, "higher", 0.1)[0] == "improved"
    parent, change = _pairs(100.0, [105.0] * 10)
    assert metrics.verdict(parent, change, "lower", 0.1)[0] == "no change"


def test_verdict_unresolved_when_spread_exceeds_bound():
    parent = [70.0, 130.0] * 5
    change = [75.0, 135.0] * 5
    assert metrics.verdict(parent, change, "lower", 0.1)[0] == "unresolved"
    # ... unless every change run beats every parent run.
    change = [60.0, 65.0] * 5
    assert metrics.verdict(parent, change, "lower", 0.1)[0] != "unresolved"


def test_verdict_exact_metrics():
    same = [5.0] * 10
    assert metrics.verdict(same, same, "higher", 0.2) == ("no change", 0)
    assert metrics.verdict(same, [5.01] * 10, "higher", 0.2)[0] == "improved"
