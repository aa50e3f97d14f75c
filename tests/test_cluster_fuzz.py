"""The cluster lease-safety fuzz campaign (``repro.check.cluster``'s
target, run by the shared campaign code): the seeded {loss x partition x
skew x 2-5 nodes} grid holds the at-most-one-holder property, a
deliberately broken quorum is caught, and failures produce replayable
``repro-cluster/1`` files."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.check import (CLUSTER_REPRO_FORMAT, CLUSTER_SPEC_GRID, NODE_GRID,
                         ClusterTarget, ReplayStrategy, replay_repro,
                         run_campaign, run_once, shrink_failure)
from repro.errors import ReproError

# -- positive grid: safety holds under every kind of weather ------------------

# One cell per {fault family x cluster size} pairing; together with the
# campaign tests below this exceeds the 50-schedule acceptance bar.
GRID = [
    (n, spec)
    for spec in ("",                                    # reliable
                 "loss:p=0.15",                         # message loss
                 "partition:p=0.08,len=1500,check=300",  # partitions
                 "skew:100",                            # timer skew
                 CLUSTER_SPEC_GRID[-1])                 # everything at once
    for n in NODE_GRID
]


@pytest.mark.parametrize("nodes,spec", GRID,
                         ids=[f"n{n}-{s.split(':')[0] or 'reliable'}"
                              for n, s in GRID])
def test_lease_safety_holds(nodes, spec):
    target = ClusterTarget(nodes=nodes, cluster_spec=spec)
    variant, ccfg = target.schedule(0, 7, "")
    out = run_once(target, variant, ccfg, ReplayStrategy({}))
    assert out.ok, f"{out.kind}: {out.detail}"
    assert out.properties["acquires_checked"] > 0
    assert out.properties["max_live_holders"] == 1


def test_campaign_sweeps_clean(tmp_path):
    report = run_campaign(ClusterTarget(), budget=32, seed=3)
    assert report.failure is None
    assert report.schedules_run == 32
    # The sweep actually cycled both grids.
    variants = set(report.per_variant)
    assert {v.split("/")[0] for v in variants} == {"n2", "n3", "n4", "n5"}
    assert any("/" not in v for v in variants)      # reliable cells
    assert any("loss" in v for v in variants)       # lossy cells


def test_campaign_treiber_structure():
    report = run_campaign(ClusterTarget(structure="treiber", nodes=3),
                          budget=8, seed=5)
    assert report.failure is None
    assert report.ops_checked > 0


# -- negative: broken quorum must be caught -----------------------------------

def test_broken_quorum_caught():
    report = run_campaign(ClusterTarget(nodes=3, quorum=1), budget=8,
                          seed=1)
    assert report.failure is not None
    assert report.failure.kind == "property"
    assert "cluster lease safety violated" in report.failure.detail
    assert report.repro["format"] == CLUSTER_REPRO_FORMAT
    assert report.repro["quorum"] == 1


def test_broken_quorum_repro_replays(tmp_path):
    report = run_campaign(ClusterTarget(nodes=2, quorum=1), budget=4,
                          seed=1)
    assert report.repro is not None
    out = replay_repro(report.repro)
    assert not out.ok
    assert out.kind == "property"


# -- shrinking ----------------------------------------------------------------

def test_shrink_returns_empty_map_when_schedule_irrelevant():
    # quorum=1 fails even unperturbed, so the minimal repro is the empty
    # decision map and ddmin never engages.
    target = ClusterTarget(nodes=2, cluster_spec="", quorum=1)
    variant, ccfg = target.schedule(0, 1, "")
    shrunk, runs = shrink_failure(target, variant, ccfg,
                                  {3: 1, 7: 0, 11: 1})
    assert shrunk == {}
    assert runs == 1


def test_shrink_empty_decisions_is_noop():
    target = ClusterTarget(nodes=2, cluster_spec="", quorum=1)
    variant, ccfg = target.schedule(0, 1, "")
    assert shrink_failure(target, variant, ccfg, {}) == ({}, 0)


# -- repro files + CLI --------------------------------------------------------

def test_replay_rejects_wrong_format():
    # One replay reads every format, so an unknown one is refused with
    # the formats it knows.
    with pytest.raises(ReproError,
                       match="not a repro-check/1, repro-cluster/1 or "
                             "repro-identity/1 repro"):
        replay_repro({"format": "repro-cluster/0"})


def test_cli_campaign_pass(capsys):
    rc = main(["check", "cluster_lease", "--budget", "6", "--nodes", "2",
               "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "no failures" in out


def test_cli_campaign_negative_saves_replayable_repro(tmp_path, capsys):
    save = tmp_path / "repro.cluster.json"
    rc = main(["check", "cluster_lease", "--budget", "4", "--nodes", "3",
               "--quorum", "1", "--save", str(save)])
    assert rc == 1
    capsys.readouterr()
    data = json.loads(save.read_text())
    assert data["format"] == CLUSTER_REPRO_FORMAT
    assert data["failure"]["kind"] == "property"

    # And the CLI replay path routes on the format marker; exit 0 means
    # the recorded failure reproduced.
    rc = main(["check", "replay", str(save)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "replay reproduced the failure: [property]" in out


def test_cli_replay_that_does_not_reproduce(tmp_path, capsys):
    # A hand-built repro of a passing cell replays cleanly, which for a
    # replay is the *failure* outcome (exit 1).
    repro = {
        "format": CLUSTER_REPRO_FORMAT,
        "structure": "counter",
        "nodes": 2,
        "quorum": None,
        "cluster_spec": "loss:p=0.1",
        "machine_seed": 42,
        "decisions": {},
    }
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(repro))
    assert main(["check", "replay", str(path)]) == 1
    assert "did not reproduce" in capsys.readouterr().out
