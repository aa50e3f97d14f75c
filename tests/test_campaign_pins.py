"""Campaign pin: what seven fixed ``repro check`` campaigns report.

One sha256 per campaign over the sorted JSON of the report's counts
(schedules, histories, operations, inconclusive checks, shrink runs and
the per-variant tally), the failure's kind and detail, and the repro
document.  A schedule visited in another order, an operation counted
differently, a failure found elsewhere or a repro field written
differently moves a digest.  The campaigns are three on the cluster
target (the grid sweep, the Treiber structure and the broken-quorum
negative) and four on the table targets (a plain sweep, a fault-fuzz
and an open-loop campaign, and the broken-lock negative), so both the
passing path and the failing path, repro file included, are pinned.

A refactor of the campaign code that is meant to leave every report
alone must keep this file passing unchanged.  To re-pin after an
*intended* change, run::

    PYTHONPATH=src python tests/test_campaign_pins.py

and paste the printed table over ``PINS``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.check import ClusterTarget, run_campaign

#: CI's fault-fuzz spec (the ``fault-fuzz`` job's ``FUZZ_SPEC``).
FUZZ_SPEC = "net_jitter:p=0.02,max=120;dir_nack:p=0.01;timer_skew:±8"

CAMPAIGNS = {
    "cluster-grid": lambda: run_campaign(ClusterTarget(), budget=32, seed=3),
    "cluster-treiber": lambda: run_campaign(
        ClusterTarget(structure="treiber", nodes=3), budget=8, seed=5),
    "cluster-quorum1": lambda: run_campaign(
        ClusterTarget(nodes=3, quorum=1), budget=8, seed=1),
    "treiber": lambda: run_campaign("treiber", budget=25, seed=1),
    "multilease-faults": lambda: run_campaign(
        "multilease", budget=10, seed=7, fault_spec=FUZZ_SPEC),
    "skiplist-traffic": lambda: run_campaign(
        "skiplist", budget=10, seed=1,
        traffic="poisson:rate=2.0,zipf:s=1.1,tenants=2"),
    "sync_zoo_broken": lambda: run_campaign(
        "sync_zoo_broken", budget=12, seed=3),
}


def report_digest(report) -> str:
    fail = report.failure
    doc = {
        "target": report.target,
        "schedules_run": report.schedules_run,
        "histories_checked": report.histories_checked,
        "ops_checked": report.ops_checked,
        "inconclusive": report.inconclusive,
        "shrink_runs": report.shrink_runs,
        "per_variant": report.per_variant,
        "failure": None if fail is None else [fail.kind, fail.detail],
        "repro": report.repro,
    }
    blob = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


PINS = {
    "cluster-grid": "7162673ba623a03b6a33f436",
    "cluster-quorum1": "8af03fc2c827586500a6b3ca",
    "cluster-treiber": "e93b83808e3122ade7a0a9a8",
    "multilease-faults": "9df2b26793f0aa2403f2d8b3",
    "skiplist-traffic": "5920c0f3018705a339c99809",
    "sync_zoo_broken": "1c2d80e7c9cdedc13ee7ac8b",
    "treiber": "51785a17038a1df4d0d9b7bd",
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_report_is_pinned(name):
    assert report_digest(CAMPAIGNS[name]()) == PINS[name]


def test_pins_cover_every_campaign():
    assert set(PINS) == set(CAMPAIGNS)


if __name__ == "__main__":
    print("PINS = {")
    for name in sorted(CAMPAIGNS):
        print(f'    "{name}": "{report_digest(CAMPAIGNS[name]())}",')
    print("}")
