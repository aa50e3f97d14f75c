"""Format pin: the JSONL bytes every trace event kind serializes to.

Two digests, both sha256 over the exact lines ``JsonlTracer`` writes:

* one per event kind: the type is built positionally from a fixed payload
  (one value per slot, cycling through the JSON types a field holds),
  stamped with a cycle, and dumped through ``to_dict()``.  This pins each
  kind's string, its field names and their order, and the stamped ``t``;
* one traced run under CI's ``--faults`` and ``--network`` specs, which
  pins what a real run writes, summary lines included.

A refactor of the event classes, the bus or the sinks that is meant to
leave the trace format alone must keep this file passing unchanged.  To
re-pin after an *intended* format change, run::

    PYTHONPATH=src python tests/test_event_format.py

and paste the printed tables over ``KINDS`` and ``RUN``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from repro.__main__ import main
from repro.trace.bus import EVENT_TYPES

#: CI's fault and interconnect specs (the "Trace reconciliation" step).
FAULTS = "net_jitter:p=0.05,max=40;dir_nack:p=0.02"
NETWORK = "link:bw=2,queue=8,flits=4;arb:wrr,weights=2:1;port:dir=2,mem=4"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def _line(cls: type, j: int) -> str:
    """The JSONL line of the ``j``-th event type, built positionally."""
    cycle = (j * 100, f"{cls.kind}.{j}", True, None, (j, -j), False)
    payload = [cycle[(i + j) % len(cycle)] for i in range(len(cls.__slots__))]
    e = cls(*payload)
    e.t = 1000 + j
    return json.dumps(e.to_dict(), separators=(",", ":"))


def kind_digests() -> dict[str, str]:
    return {cls.kind: _digest(_line(cls, j))
            for j, cls in enumerate(EVENT_TYPES)}


def run_digest() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.jsonl")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["trace", "fig2_stack", "--threads", "2", "--faults",
                       FAULTS, "--network", NETWORK, "--out", path])
        assert rc == 0
        with open(path, encoding="utf-8") as fh:
            return _digest(fh.read())


KINDS = {
    "req_issued": "6125c6d9394e52c1ffce9d03",
    "req_queued": "cf25fd0a5d33fe6e60dfc5a6",
    "req_granted": "7ff2c741877a4dd613b7e59c",
    "probe_sent": "d1e059ce0402f28101eb3abf",
    "probe_deferred": "80753b8fc765a5f19362c083",
    "probe_serviced": "ba2f68e08d6d35b05cfb0c26",
    "lease_probe_queued": "6c2ff9736546c08212ba9092",
    "lease_requested": "1477db1cff3cb8836d57539b",
    "lease_noop": "55feeae2affa04517a00f191",
    "lease_ignored": "47ad68810c6ec184597e179d",
    "lease_started": "32c18c161ae1351849e30d80",
    "lease_released": "b93a828ee0e659f1c2c0952b",
    "multilease": "235e1c3410797452ecc98417",
    "eviction_issued": "58c88b52238a779a79753139",
    "eviction_applied": "d2531c1f0176ec70aeabebf7",
    "l1_hit": "af24d7e516f30b4e518966ac",
    "l1_miss": "dbd683a696d55f4db475d95a",
    "l1_evicted": "879ddfcd1257073549415221",
    "mesi_upgrade": "4a903ed82a26c645d3cb1102",
    "l2_access": "ff4d93a4820f1e3a7922653b",
    "writeback": "21dff025c9c6c29eb8817946",
    "message": "e0f29a0b45c561e29d123db8",
    "link_queued": "97634c9956255ad05b656c9a",
    "link_granted": "d0fd1633c8344f289c0f9054",
    "port_busy": "f3dce8098836c6bcd0daeb03",
    "cas": "5b65dc6b567ae63f47b09b00",
    "lock_attempt": "91f48a5009dd126833f3d9ec",
    "lock_failed": "ef00f8ad814a0a802fb5a98e",
    "stm": "ac1814c31ce336ea9324d23a",
    "fault_injected": "5ba70c76d47daeba24215faa",
    "dir_nack": "4093c67e3a27f0faaede5cdd",
    "retry_scheduled": "d87b7fafd2af700fdc992147",
    "checkpoint_saved": "8eb29b42e4f0ffd184bb0c9e",
    "checkpoint_restored": "b6375ce76b9dc01fcb0294c8",
    "op_completed": "b738d8a1b5ec315338f98625",
    "node_msg": "c40becf5bfce96c65db14d97",
    "node_msg_dropped": "5b866effd47fc6a13a75c647",
    "node_msg_dup": "e05d0217ca23cf3b5d16947a",
    "paxos_round": "5c2c2b9408843577ae0ae96f",
    "cluster_lease_acquired": "0a17bea7a83d4c8c6b2b0de4",
    "cluster_lease_expired": "7107d4b0881b2fa6b0bd8dc2",
    "cluster_lease_released": "0ffd59946c68c34ea7800368",
    "cluster_guard_denied": "428cc65235f1ccfb4a21ed74",
    "op_admitted": "eaa25ab800f59a25a9356552",
    "op_shed": "b0e330eeb9739ac9240a8d61",
}

RUN = "5f5c826f3fc9c344ade28f8b"


def test_every_kind_is_pinned():
    assert len(EVENT_TYPES) == 45
    assert set(KINDS) == {cls.kind for cls in EVENT_TYPES}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_kind_serializes_as_pinned(kind):
    assert kind_digests()[kind] == KINDS[kind]


def test_traced_run_serializes_as_pinned():
    assert run_digest() == RUN


def test_bare_op_completed_keeps_its_defaults():
    from repro.trace.events import OpCompleted
    e = OpCompleted(3)
    assert e.to_dict() == {"kind": "op_completed", "t": 0, "core": 3,
                           "tid": None, "op": None, "args": (),
                           "result": None, "start": None}


if __name__ == "__main__":
    print("KINDS = {")
    for kind, digest in kind_digests().items():
        print(f'    "{kind}": "{digest}",')
    print("}")
    print(f'RUN = "{run_digest()}"')
