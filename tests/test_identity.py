"""The identity harness (``repro check identity``): a clean smoke over
every axis, the must-fail negative, and replay of its repro files."""

import json
import random

import pytest

from repro.__main__ import main
from repro.check.identity import IDENTITY_FORMAT, draw_cell
from repro.cluster.paxoslease import PaxosAgent
from repro.faults.plan import FaultPlan


def test_identity_smoke_covers_every_axis(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # Round 4 is the cluster round, restored like every other round; the
    # jobs sweep runs once at the end.
    assert main(["check", "identity", "--budget", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "check identity: 5 round(s)" in out
    assert "restore 5 (" in out and "cluster 1)" in out and "jobs 1" in out
    assert "no divergence found" in out
    assert list(tmp_path.iterdir()) == []


def test_identity_catches_unrestored_fault_plan(tmp_path, monkeypatch,
                                                capsys):
    """Must-fail: a fault plan whose progress is not restored makes a
    resumed faulty run diverge; the repro replays under the same bug and
    passes without it."""
    monkeypatch.chdir(tmp_path)
    with monkeypatch.context() as bug:
        bug.setattr(FaultPlan, "load_state", lambda self, state: None)
        assert main(["check", "identity", "--budget", "20",
                     "--seed", "2"]) == 1
        assert "DIVERGENCE [restore]" in capsys.readouterr().out
        doc = json.loads((tmp_path / "repro.identity.json").read_text())
        assert doc["format"] == IDENTITY_FORMAT
        assert doc["axis"] == "restore"
        assert doc["cell"]["faults"]
        assert main(["check", "replay", "repro.identity.json"]) == 0
        assert "reproduced the failure: [restore]" in capsys.readouterr().out
    assert main(["check", "replay", "repro.identity.json"]) == 1
    assert "replay PASSED" in capsys.readouterr().out


def test_identity_catches_unrestored_cluster_agents(tmp_path, monkeypatch,
                                                    capsys):
    """Must-fail for cluster rounds: Paxos agents whose state is not
    restored make round 4, the first cluster round, diverge on the
    restore axis."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(PaxosAgent, "load_state", lambda self, state: None)
    assert main(["check", "identity", "--budget", "5", "--seed", "1"]) == 1
    assert "DIVERGENCE [restore] cluster_shards/" in capsys.readouterr().out
    doc = json.loads((tmp_path / "repro.identity.json").read_text())
    assert doc["round"] == 4 and "nodes" in doc["cell"]


def _identity_doc() -> dict:
    return {"format": IDENTITY_FORMAT, "axis": "infinite",
            "cell": draw_cell(random.Random(1)), "params": {}}


@pytest.mark.parametrize("truncate", [
    lambda doc: json.dumps(doc)[:len(json.dumps(doc)) // 2],
    lambda doc: json.dumps({k: v for k, v in doc.items() if k != "params"}),
    lambda doc: json.dumps({**doc, "cell": {
        k: v for k, v in doc["cell"].items() if k != "threads"}}),
], ids=["bytes", "params", "cell-key"])
def test_truncated_identity_file_exits_two(tmp_path, capsys, truncate):
    path = tmp_path / "repro.identity.json"
    path.write_text(truncate(_identity_doc()))
    assert main(["check", "replay", str(path)]) == 2
    assert capsys.readouterr().err.startswith("check replay:")


def test_cluster_axis_file_is_malformed(tmp_path, capsys):
    """Cluster rounds take the restore axis; a file naming the retired
    ``cluster`` axis is refused in one line."""
    doc = {"format": IDENTITY_FORMAT, "axis": "cluster",
           "cell": draw_cell(random.Random(1), cluster=True),
           "params": {"cut": 100}}
    path = tmp_path / "repro.identity.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("check replay: malformed") and err.count("\n") == 1


def test_intact_identity_file_replays_as_passing(tmp_path, capsys):
    path = tmp_path / "repro.identity.json"
    path.write_text(json.dumps(_identity_doc()))
    assert main(["check", "replay", str(path)]) == 1
    assert "replay PASSED" in capsys.readouterr().out
