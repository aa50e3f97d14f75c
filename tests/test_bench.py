"""The repro.bench subsystem: records, baselines, the regression gate,
and the ``python -m repro bench`` command."""

import json

import pytest

from repro import bench
from repro.__main__ import main

#: Cheapest real target; every end-to-end test uses it to stay fast.
FAST = "event_queue"

RECORD_KEYS = {
    "bench_format", "name", "title", "quick", "repeats", "wall_seconds",
    "ops", "ops_per_sec", "events", "events_per_sec", "peak_heap_bytes",
    "calibration_ops_per_sec", "score", "fault_spec", "seed", "extra",
    "machine",
}


@pytest.fixture(scope="module")
def record():
    return bench.run_target(FAST, quick=True, repeats=1)


def test_record_schema(record):
    assert set(record) == RECORD_KEYS
    assert record["bench_format"] == bench.BENCH_FORMAT
    assert record["name"] == FAST and record["quick"] is True
    assert record["wall_seconds"] > 0
    assert record["ops"] > 0 and record["ops_per_sec"] > 0
    assert record["events"] > 0 and record["events_per_sec"] > 0
    assert record["peak_heap_bytes"] > 0
    assert record["score"] > 0
    assert record["machine"]["id"]
    json.dumps(record)               # must be JSON-serializable as-is


def test_all_targets_registered():
    assert set(bench.TARGETS) == {
        "event_queue", "coherence_storm", "treiber", "counter",
        "sweep_cell", "sync_ablation", "trace_fastpath",
        "fault_degradation", "snapshot_roundtrip", "cluster_scale",
        "tail_latency", "link_saturation"}
    assert bench.default_target_names() == list(bench.TARGETS)


def test_unknown_target_raises():
    with pytest.raises(KeyError):
        bench.run_target("nope", quick=True)


def test_write_results_one_file_per_target(record, tmp_path):
    paths = bench.write_results({FAST: record}, str(tmp_path))
    assert paths == [str(tmp_path / f"BENCH_{FAST}.json")]
    with open(paths[0]) as f:
        assert json.load(f) == record


def test_baseline_roundtrip(record, tmp_path):
    path = tmp_path / "base.json"
    bench.write_baseline({FAST: record}, str(path))
    doc = bench.load_baseline(str(path))
    assert doc["bench_format"] == bench.BENCH_FORMAT
    assert doc["targets"][FAST] == record
    assert doc["machine"]["id"]


def test_load_baseline_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"bench_format": 999, "targets": {}}\n')
    with pytest.raises(ValueError, match="bench_format"):
        bench.load_baseline(str(path))


def _fake(name, score):
    return {"name": name, "score": score}


def test_diff_flags_only_drops_beyond_tolerance():
    baseline = {"targets": {"a": _fake("a", 1.0), "b": _fake("b", 1.0),
                            "c": _fake("c", 1.0)}}
    results = {"a": _fake("a", 0.9),       # -10%: fine
               "b": _fake("b", 0.65),      # -35%: regressed at 30%
               "c": _fake("c", 1.4),       # faster: fine
               "new": _fake("new", 0.1)}   # not in baseline: skipped
    rows = bench.diff_results(results, baseline, tolerance=0.30)
    assert {r["name"] for r in rows} == {"a", "b", "c"}
    by_name = {r["name"]: r for r in rows}
    assert not by_name["a"]["regressed"]
    assert by_name["b"]["regressed"]
    assert not by_name["c"]["regressed"]
    assert by_name["c"]["delta_pct"] == 40.0


def test_diff_exact_tolerance_boundary_passes():
    baseline = {"targets": {"a": _fake("a", 1.0)}}
    rows = bench.diff_results({"a": _fake("a", 0.7)}, baseline,
                              tolerance=0.30)
    assert not rows[0]["regressed"]   # exactly -30% is still allowed


def test_calibration_is_cached_and_positive():
    assert bench.calibration_ops_per_sec() > 0
    assert (bench.calibration_ops_per_sec()
            == bench.calibration_ops_per_sec())


def test_machine_fingerprint_is_stable():
    a, b = bench.machine_fingerprint(), bench.machine_fingerprint()
    assert a == b and len(a["id"]) == 12


# -- the CLI -----------------------------------------------------------------

def test_cli_bench_writes_records_and_gates(tmp_path, capsys):
    base = tmp_path / "baseline.json"
    rc = main(["bench", FAST, "--quick", "--repeats", "3",
               "--out-dir", str(tmp_path / "out"),
               "--write-baseline", str(base)])
    assert rc == 0
    assert (tmp_path / "out" / f"BENCH_{FAST}.json").exists()
    assert base.exists()
    capsys.readouterr()
    # Same machine, immediately after: must pass the gate.  Best-of-3
    # timing plus a wide tolerance keeps this robust to suite-load noise;
    # the tight-gate path is covered by test_cli_bench_fails_on_regression.
    rc = main(["bench", FAST, "--quick", "--repeats", "3",
               "--out-dir", str(tmp_path / "out2"),
               "--baseline", str(base), "--tolerance", "0.6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "vs baseline" in out and "REGRESSED" not in out


def test_cli_bench_fails_on_regression(tmp_path, capsys):
    record = bench.run_target(FAST, quick=True, repeats=1)
    inflated = {**record, "score": record["score"] * 100}
    base = tmp_path / "baseline.json"
    bench.write_baseline({FAST: inflated}, str(base))
    rc = main(["bench", FAST, "--quick", "--repeats", "1",
               "--out-dir", str(tmp_path), "--baseline", str(base)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "REGRESSED" in captured.out
    assert "perf regression" in captured.err


def test_cli_bench_unknown_target(capsys):
    assert main(["bench", "warp_drive"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bench: unknown target")
    assert err.count("\n") == 1


def test_cli_bench_missing_baseline(tmp_path, capsys):
    assert main(["bench", FAST, "--baseline",
                 str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("--baseline:")


@pytest.mark.parametrize("args", [["--jobs", "0"], ["--jobs", "x"],
                                  ["--repeats", "0"],
                                  ["--tolerance", "0"],
                                  ["--tolerance", "1.5"]])
def test_cli_bench_rejects_bad_numbers(args, capsys):
    assert main(["bench", FAST, "--quick"] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("--")
    assert err.count("\n") == 1


def test_committed_baseline_is_loadable():
    # The baseline the CI gate diffs against must always parse and cover
    # every registered target.
    import pathlib
    path = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" \
        / "baseline.json"
    doc = bench.load_baseline(str(path))
    assert set(doc["targets"]) == set(bench.TARGETS)


# -- fault injection in bench -------------------------------------------------

def test_fault_degradation_target_reports_relative_curve():
    rec = bench.run_target("fault_degradation", quick=True, repeats=1)
    extra = rec["extra"]
    assert extra["none_relative"] == 1.0
    assert extra["none_faults"] == 0
    # Harsher rungs inject real faults and lose real throughput.
    assert extra["hostile_faults"] > extra["mild_faults"]
    assert extra["hostile_relative"] < 1.0


def test_fault_spec_threads_into_machine_targets():
    clean = bench.run_target("treiber", quick=True, repeats=1)
    faulty = bench.run_target("treiber", quick=True, repeats=1,
                              fault_spec="dir_nack:p=0.1")
    assert clean["fault_spec"] == ""
    assert faulty["fault_spec"] == "dir_nack:p=0.1"
    # Simulated cycle counts differ once NACKs delay directory requests.
    assert faulty["extra"]["cycles"] != clean["extra"]["cycles"]


def test_cli_bench_accepts_faults(tmp_path, capsys):
    rc = main(["bench", FAST, "--quick", "--repeats", "1",
               "--faults", "timer_skew:4",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "faults='timer_skew:4'" in out
    rec = json.loads((tmp_path / f"BENCH_{FAST}.json").read_text())
    assert rec["fault_spec"] == "timer_skew:4"
