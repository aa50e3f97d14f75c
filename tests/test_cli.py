"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig2_stack" in out
    assert "fig5_pagerank" in out
    assert "paper:" in out


def test_config_command(capsys):
    assert main(["config"]) == 0
    out = capsys.readouterr().out
    assert "32 KB" in out
    assert "MSI" in out
    assert "20000 cycles" in out


def test_run_command_small(capsys):
    rc = main(["run", "fig2_stack", "--threads", "2",
               "--metric", "mops_per_sec"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "base" in out and "lease" in out
    assert "t=2" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "not_an_experiment"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_energy_metric_only(capsys):
    rc = main(["run", "fig2_stack", "--threads", "2",
               "--metric", "nj_per_op"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "energy" in out
    assert "Mops/s" not in out      # throughput table suppressed


# -- --threads validation ----------------------------------------------------

@pytest.mark.parametrize("bad", ["", "x", "2,x", "0", "-4", "2,,4", "2.5"])
def test_run_rejects_bad_threads(bad, capsys):
    assert main(["run", "fig2_stack", "--threads", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("--threads:")
    assert err.count("\n") == 1      # exactly one line


def test_run_accepts_padded_threads(capsys):
    assert main(["run", "fig2_stack", "--threads", " 2 , 2 ",
                 "--metric", "mops_per_sec"]) == 0


# -- --jobs validation -------------------------------------------------------

@pytest.mark.parametrize("bad", ["0", "-2", "x", "1.5", ""])
def test_run_rejects_bad_jobs(bad, capsys):
    assert main(["run", "fig2_stack", "--threads", "2", "--jobs", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("--jobs:")
    assert err.count("\n") == 1      # exactly one line


def test_bad_jobs_rejected_before_any_work(capsys):
    # Validation fires before the sweep starts: even with the full
    # default thread axis the command exits immediately.
    assert main(["run", "fig2_stack", "--jobs", "-1"]) == 2
    out, err = capsys.readouterr()
    assert err == "--jobs: -1 is not a positive job count\n"
    assert "fig2_stack:" not in out   # header never printed


# -- parallel + save ----------------------------------------------------------

def test_run_jobs_output_identical_to_serial(capsys):
    assert main(["run", "fig2_stack", "--threads", "2,4"]) == 0
    serial = capsys.readouterr().out
    assert main(["run", "fig2_stack", "--threads", "2,4",
                 "--jobs", "4"]) == 0
    assert capsys.readouterr().out == serial


def test_run_save_writes_json(tmp_path, capsys):
    import json
    out = tmp_path / "res.json"
    assert main(["run", "fig2_stack", "--threads", "2",
                 "--save", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["experiment"] == "fig2_stack"
    assert set(data["results"]) == {"base", "lease"}
    run = data["results"]["lease"][0]
    assert run["num_threads"] == 2
    assert run["counters"]["leases_requested"] > 0


def test_run_with_invariants(capsys):
    assert main(["run", "fig2_stack", "--threads", "2"] +
                ["--invariants"]) == 0
    assert "invariants: OK" in capsys.readouterr().out


def test_run_invariants_conflicts_with_jobs(capsys):
    assert main(["run", "fig2_stack", "--threads", "2", "--jobs", "2",
                 "--invariants"]) == 2


# -- trace command ------------------------------------------------------------

def test_trace_and_run_fold_the_same_overrides(tmp_path, capsys):
    """--seed, --faults and --network reach ``trace`` the same way they
    reach ``run``: every cell reports the same cycles and ops."""
    import json
    flags = ["--threads", "2,4", "--seed", "5",
             "--faults", "net_jitter:p=0.05,max=40;dir_nack:p=0.02",
             "--network", "link:bw=2,queue=8,flits=4;port:dir=2,mem=4"]
    saved, traced = tmp_path / "run.json", tmp_path / "t.jsonl"
    assert main(["run", "e1_backoff", *flags, "--save", str(saved)]) == 0
    assert main(["trace", "e1_backoff", *flags, "--out", str(traced)]) == 0
    ran = {(variant, r["num_threads"]): (r["cycles"], r["ops"])
           for variant, series in json.loads(saved.read_text())[
               "results"].items() for r in series}
    lines = [json.loads(line) for line in traced.read_text().splitlines()]
    summaries = {(s["variant"], s["threads"]): (s["cycles"], s["ops"])
                 for s in lines if s.get("kind") == "run_summary"}
    assert len(summaries) == 6
    assert summaries == ran


def test_trace_command_writes_reconciling_jsonl(tmp_path, capsys):
    import json
    out = tmp_path / "t.jsonl"
    rc = main(["trace", "fig2_stack", "--threads", "2",
               "--out", str(out), "--heatmap"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "reconcile=ok" in stdout
    assert "stack.head" in stdout            # heatmap labels the hot line
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    summaries = [d for d in lines if d["kind"] == "run_summary"]
    assert len(summaries) == 2               # base + lease at t=2
    assert all(s["reconciled"] for s in summaries)
    events = [d for d in lines if d["kind"] != "run_summary"]
    assert all("variant" in d and "threads" in d for d in events)
    base_events = sum(d["variant"] == "base" for d in events)
    assert base_events == next(s["events"] for s in summaries
                               if s["variant"] == "base")


def test_trace_limit_truncates_file(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    rc = main(["trace", "fig2_stack", "--threads", "2",
               "--out", str(out), "--limit", "50"])
    assert rc == 0
    # 50 event lines + one run_summary line per run.
    assert len(out.read_text().splitlines()) == 50 + 2


def test_trace_default_output_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["trace", "fig2_stack", "--threads", "2"]) == 0
    assert (tmp_path / "fig2_stack.trace.jsonl").exists()


def test_trace_unknown_experiment(capsys):
    assert main(["trace", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_trace_rejects_bad_threads(capsys):
    assert main(["trace", "fig2_stack", "--threads", "nope"]) == 2


def test_trace_rejects_negative_limit(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    assert main(["trace", "fig2_stack", "--threads", "2",
                 "--out", str(out), "--limit", "-5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("--limit:") and err.count("\n") == 1
    assert not out.exists()


def test_trace_cluster_experiment_reconciles(tmp_path, capsys):
    """The sinks see every node's events as well as the cluster bus's, so
    the event counts match the merged counters."""
    rc = main(["trace", "cluster_shards", "--threads", "2",
               "--out", str(tmp_path / "t.jsonl")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("reconcile=ok") == 2        # counter + treiber
    assert "MISMATCH" not in out


def test_trace_cluster_lines_name_their_node(tmp_path, capsys):
    """Nodes number their cores, lines and threads from 0 alike, so every
    line from a node's bus carries the node; inter-node messages name
    theirs as src and dst."""
    import json
    path = tmp_path / "t.jsonl"
    assert main(["trace", "cluster_shards", "--threads", "2",
                 "--out", str(path)]) == 0
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    per_node = [d for d in lines if d["kind"] != "run_summary"
                and not d["kind"].startswith(("node_msg", "paxos_",
                                              "cluster_"))]
    assert {d["kind"] for d in per_node} >= {"l1_miss", "lease_started",
                                             "op_completed"}
    assert all("node" in d for d in per_node)
    assert {d["node"] for d in per_node} == {0, 1}


@pytest.mark.parametrize("flag", ["--heatmap", "--invariants"])
def test_trace_refuses_machine_sinks_on_cluster(flag, tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    assert main(["trace", "cluster_shards", "--threads", "2",
                 "--out", str(out), flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{flag}:") and err.count("\n") == 1
    assert not out.exists()


# -- --seed validation and effect ---------------------------------------------

@pytest.mark.parametrize("bad", ["x", "-1", "2.5", ""])
def test_run_rejects_bad_seed(bad, capsys):
    assert main(["run", "fig2_stack", "--threads", "2", "--seed", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("--seed:")
    assert err.count("\n") == 1


def test_trace_rejects_bad_seed(tmp_path, capsys):
    assert main(["trace", "fig2_stack", "--threads", "2",
                 "--out", str(tmp_path / "t.jsonl"), "--seed", "zz"]) == 2
    assert "--seed:" in capsys.readouterr().err


def test_run_seed_changes_rng_driven_results(capsys):
    """fig3_pq picks keys from the per-thread RNG, so the seed must alter
    its numbers -- and the same seed must reproduce them exactly."""
    def run(seed):
        assert main(["run", "fig3_pq", "--threads", "2", "--seed", seed,
                     "--metric", "mops_per_sec"]) == 0
        return capsys.readouterr().out

    a, b, a2 = run("5"), run("6"), run("5")
    assert a == a2
    assert a != b


def test_trace_accepts_seed(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    assert main(["trace", "fig2_stack", "--threads", "2",
                 "--out", str(out), "--seed", "9"]) == 0
    assert "reconcile=ok" in capsys.readouterr().out


# -- check command ------------------------------------------------------------

def test_check_smoke(capsys):
    assert main(["check", "treiber", "--budget", "4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "explored 4 schedule(s)" in out
    assert "no failures found" in out


def test_check_accepts_experiment_alias(capsys):
    assert main(["check", "fig2_stack", "--budget", "2"]) == 0
    assert "check treiber" in capsys.readouterr().out


def test_check_unknown_target(capsys):
    assert main(["check", "bogus"]) == 2
    assert "unknown check target" in capsys.readouterr().err


def test_check_rejects_bad_budget(capsys):
    assert main(["check", "treiber", "--budget", "0"]) == 2
    assert "--budget" in capsys.readouterr().err


def test_check_rejects_bad_seed(capsys):
    assert main(["check", "treiber", "--seed", "nan"]) == 2
    assert "--seed:" in capsys.readouterr().err


def test_check_replay_requires_path(capsys):
    assert main(["check", "replay"]) == 2
    assert "missing repro file" in capsys.readouterr().err


def test_check_replay_missing_file(tmp_path, capsys):
    assert main(["check", "replay", str(tmp_path / "nope.json")]) == 2
    assert "check replay:" in capsys.readouterr().err


_CHECK_REPRO = {"format": "repro-check/1", "target": "treiber",
                "variant": "base", "machine_seed": 1}
_CLUSTER_REPRO = {"format": "repro-cluster/1", "nodes": 3, "machine_seed": 1}


@pytest.mark.parametrize("doc", [
    [],                                     # not a JSON object
    {"format": "repro-check/1"},            # no target
    {"format": "repro-cluster/1"},          # no nodes
    {**_CHECK_REPRO, "decisions": 5},
    {**_CLUSTER_REPRO, "decisions": 5},
    {**_CHECK_REPRO, "traffic": 5},
    {**_CHECK_REPRO, "fault_spec": 5},
    {**_CLUSTER_REPRO, "cluster_spec": 5},
], ids=["array", "check-no-target", "cluster-no-nodes",
        "check-int-decisions", "cluster-int-decisions", "check-int-traffic",
        "check-int-fault-spec", "cluster-int-cluster-spec"])
def test_check_replay_malformed_file(doc, tmp_path, capsys):
    import json
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("check replay:") and err.count("\n") == 1


def test_check_injected_bug_exit_code_and_replay(tmp_path, monkeypatch,
                                                 capsys):
    """End to end: a seeded campaign finds the injected linearizability
    bug, exits nonzero, writes a repro file, and `check replay` on that
    file reproduces the failure deterministically."""
    import repro.workloads.table as table
    from test_check_campaign import _BrokenTreiberStack

    monkeypatch.setattr(table, "TreiberStack", _BrokenTreiberStack)
    repro_path = tmp_path / "r.json"
    rc = main(["check", "treiber", "--budget", "200", "--seed", "7",
               "--save", str(repro_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAILURE [linearizability]" in out
    assert repro_path.exists()

    assert main(["check", "replay", str(repro_path)]) == 0
    assert "reproduced the failure" in capsys.readouterr().out


# -- --metric validation ------------------------------------------------------

def test_run_accepts_any_runresult_metric(capsys):
    rc = main(["run", "fig2_stack", "--threads", "2",
               "--metric", "messages_per_op"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "messages_per_op" in out
    assert "t=2" in out


def test_run_rejects_unknown_metric(capsys):
    assert main(["run", "fig2_stack", "--threads", "2",
                 "--metric", "bogus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("--metric:")
    assert "messages_per_op" in err      # the full list is offered


def test_series_table_rejects_unknown_metric():
    import pytest as _pytest

    from repro.harness.runner import series_table

    with _pytest.raises(ValueError, match="unknown metric 'bogus'"):
        series_table({}, metric="bogus")


# -- --faults -----------------------------------------------------------------

@pytest.mark.parametrize("cmd", [
    ["run", "fig2_stack", "--threads", "2"],
    ["trace", "fig2_stack", "--threads", "2"],
    ["check", "treiber", "--budget", "1"],
    ["bench", "event_queue", "--quick", "--repeats", "1"],
])
def test_all_commands_reject_bad_fault_spec(cmd, capsys):
    assert main(cmd + ["--faults", "nope:p=1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("--faults:")
    assert "unknown clause" in err


def test_run_with_faults_changes_results(capsys):
    argv = ["run", "fig2_stack", "--threads", "4",
            "--metric", "cycles", "--seed", "7"]
    assert main(argv) == 0
    clean = capsys.readouterr().out
    assert main(argv + ["--faults",
                        "net_jitter:p=0.2,max=400;dir_nack:p=0.1"]) == 0
    faulty = capsys.readouterr().out
    assert clean != faulty


def test_trace_with_faults_emits_fault_events(tmp_path, capsys):
    out_path = tmp_path / "t.jsonl"
    rc = main(["trace", "fig2_stack", "--threads", "2",
               "--faults", "dir_nack:p=0.05", "--out", str(out_path)])
    assert rc == 0
    assert "reconcile=ok" in capsys.readouterr().out
    assert '"kind":"dir_nack"' in out_path.read_text()


def test_check_with_faults_passes_and_announces(capsys):
    rc = main(["check", "counter", "--budget", "3", "--seed", "5",
               "--faults", "timer_skew:4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fault campaign: timer_skew:4" in out
    assert "no failures found" in out


def test_check_replay_rejects_faults_flag(tmp_path, capsys):
    assert main(["check", "replay", str(tmp_path / "r.json"),
                 "--faults", "timer_skew:4"]) == 2
    assert "recorded in the repro file" in capsys.readouterr().err


# -- checkpointing flags (repro.state) ---------------------------------------

def test_run_checkpoint_every_saves_and_warm_start_restores(tmp_path,
                                                            capsys):
    ckpt_dir = str(tmp_path / "ckpts")
    argv = ["run", "fig2_stack", "--threads", "2", "--seed", "7",
            "--metric", "mops_per_sec"]
    assert main(argv + ["--checkpoint-every", "2000",
                        "--checkpoint-dir", ckpt_dir]) == 0
    out = capsys.readouterr().out
    assert "saved" in out and "checkpoint(s)" in out
    files = list((tmp_path / "ckpts").glob("ckpt_*_c*.json"))
    assert files, "no checkpoint files were written"

    # Cold run for the reference numbers.
    assert main(argv) == 0
    cold = capsys.readouterr().out

    # Warm start resumes from the saved prefixes and matches exactly.
    assert main(argv + ["--warm-start", "--checkpoint-dir", ckpt_dir]) == 0
    warm = capsys.readouterr().out
    assert "restored" in warm
    assert warm.splitlines()[-4:] == cold.splitlines()[-4:]


def test_run_resume_restores_matching_cell(tmp_path, capsys):
    ckpt_dir = tmp_path / "ckpts"
    argv = ["run", "fig2_stack", "--threads", "2", "--seed", "7",
            "--metric", "mops_per_sec"]
    assert main(argv + ["--checkpoint-every", "2000",
                        "--checkpoint-dir", str(ckpt_dir)]) == 0
    capsys.readouterr()
    ckpt = sorted(ckpt_dir.glob("ckpt_*_c*.json"))[0]
    assert main(argv + ["--resume", str(ckpt)]) == 0
    assert "restored" in capsys.readouterr().out


def test_cluster_run_checkpoints_resumes_and_warm_starts(tmp_path, capsys):
    """A cluster experiment takes the checkpoint flags as a machine one
    does: sliced, warm-started and resumed, it prints the plain run's
    tables."""
    ckpt_dir = tmp_path / "ckpts"
    argv = ["run", "cluster_shards", "--threads", "2,4"]

    def run(*extra: str, note: str | None = None) -> list[str]:
        """The run's output lines, less the ``note`` lines it must print."""
        assert main(argv + list(extra)) == 0
        lines = capsys.readouterr().out.splitlines()
        if note is None:
            return lines
        assert any(line.startswith(note) for line in lines)
        return [line for line in lines if not line.startswith(note)]

    plain = run()
    assert run("--checkpoint-every", "1500", "--checkpoint-dir",
               str(ckpt_dir), note="saved ") == plain
    files = sorted(ckpt_dir.glob("ckpt_*_c*.json"))
    assert files, "no checkpoint files were written"
    assert run("--warm-start", "--checkpoint-dir", str(ckpt_dir),
               note="restored ") == plain
    assert run("--resume", str(files[0]), note="restored ") == plain


def test_run_resume_refuses_mismatched_config(tmp_path, capsys):
    ckpt_dir = tmp_path / "ckpts"
    argv = ["run", "fig2_stack", "--threads", "2", "--seed", "7"]
    assert main(argv + ["--checkpoint-every", "2000",
                        "--checkpoint-dir", str(ckpt_dir)]) == 0
    capsys.readouterr()
    ckpt = sorted(ckpt_dir.glob("ckpt_*_c*.json"))[0]
    # Different seed: the checkpoint matches no cell -> hard refusal.
    rc = main(["run", "fig2_stack", "--threads", "2", "--seed", "8",
               "--resume", str(ckpt)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "matched no sweep cell" in err and "seed" in err


def test_run_checkpoint_flags_require_serial(capsys):
    assert main(["run", "fig2_stack", "--threads", "2", "--jobs", "2",
                 "--checkpoint-every", "1000"]) == 2
    assert "--jobs 1" in capsys.readouterr().err


def test_run_rejects_bad_checkpoint_interval(capsys):
    assert main(["run", "fig2_stack", "--threads", "2",
                 "--checkpoint-every", "0"]) == 2
    assert "--checkpoint-every" in capsys.readouterr().err


def test_run_resume_missing_file(tmp_path, capsys):
    assert main(["run", "fig2_stack", "--threads", "2",
                 "--resume", str(tmp_path / "nope.json")]) == 2
    assert "--resume:" in capsys.readouterr().err


#: Each ``check`` mode's command line and the flags it accepts.
_CHECK_MODES = {
    "target": (["check", "treiber"],
               {"--budget", "--seed", "--no-shrink", "--save", "--faults",
                "--traffic"}),
    "cluster_lease": (["check", "cluster_lease"],
                      {"--budget", "--seed", "--no-shrink", "--save",
                       "--nodes", "--cluster", "--quorum", "--structure"}),
    "replay": (["check", "replay", "r.json"], set()),
    "identity": (["check", "identity"], {"--budget", "--seed", "--save"}),
}
_CHECK_FLAG_ARGS = {
    "--budget": ["2"], "--seed": ["1"], "--no-shrink": [],
    "--save": ["x.json"], "--faults": ["timer_skew:4"],
    "--traffic": ["poisson:rate=1"], "--nodes": ["3"],
    "--cluster": ["bogus:zz"], "--quorum": ["1"], "--structure": ["nope"],
}


@pytest.mark.parametrize("mode,flag", [
    (mode, flag) for mode, (_argv, accepted) in _CHECK_MODES.items()
    for flag in _CHECK_FLAG_ARGS if flag not in accepted])
def test_check_rejects_flags_outside_their_mode(mode, flag, tmp_path,
                                                monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv, _accepted = _CHECK_MODES[mode]
    assert main(argv + [flag] + _CHECK_FLAG_ARGS[flag]) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_check_list_targets(capsys):
    assert main(["check", "--list-targets"]) == 0
    out = capsys.readouterr().out
    assert "treiber" in out and "multilease" in out
    assert "fig2_stack->treiber" in out


def test_check_traffic_on_closed_loop_target_exits_two(capsys):
    from repro.check.campaign import OPEN_LOOP_TARGETS

    assert main(["check", "msqueue", "--budget", "1",
                 "--traffic", "poisson:rate=2.0"]) == 2
    err = capsys.readouterr().err
    assert "'msqueue' has no open-loop variant" in err
    assert f"--traffic works with: {', '.join(OPEN_LOOP_TARGETS)}" in err


def test_check_requires_target_or_list(capsys):
    assert main(["check"]) == 2
    assert "--list-targets" in capsys.readouterr().err


def test_bench_list(capsys):
    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    assert "snapshot_roundtrip" in out and "event_queue" in out


def test_bench_seed_recorded(tmp_path, capsys):
    import json as _json

    rc = main(["bench", "event_queue", "--quick", "--repeats", "1",
               "--seed", "11", "--out-dir", str(tmp_path)])
    assert rc == 0
    rec = _json.loads((tmp_path / "BENCH_event_queue.json").read_text())
    assert rec["seed"] == 11


def test_bench_rejects_bad_seed(capsys):
    assert main(["bench", "event_queue", "--seed", "-3"]) == 2
    assert "--seed:" in capsys.readouterr().err
