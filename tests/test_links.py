"""Contended interconnect (``repro.coherence.links``): spec grammar,
arbiter properties, counter conservation, default-spec bit-identity, and
checkpoint roundtrips through saturated link state.

The headline contracts under test:

* an empty/``infinite`` spec builds the plain contention-free
  :class:`MeshNetwork` -- no queues exist and behaviour is bit-identical
  to the pre-links model;
* a finite spec conserves messages (every send is granted exactly once,
  per-flow FIFO order holds on every link) and stays bit-identical
  across a mid-run checkpoint/restore cut.
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConfigError, Machine, MachineConfig
from repro.coherence.links import (FifoArbiter, LinkedNetwork,
                                   PriorityArbiter, WrrArbiter,
                                   build_network, parse_network_spec)
from repro.coherence.network import MeshNetwork
from repro.structures import LockedCounter, TreiberStack

#: A spec that saturates under the contended workloads below.
SAT_SPEC = "link:bw=2,queue=8,flits=4;arb:wrr,weights=2:1;port:dir=2,mem=4"


# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------

def test_parse_full_spec():
    s = parse_network_spec(SAT_SPEC)
    assert s.link_bw == 2
    assert s.link_queue == 8
    assert s.data_flits == 4
    assert s.arbiter == "wrr"
    assert s.wrr_weights == (2, 1)
    assert s.dir_port == 2
    assert s.mem_port == 4
    assert not s.empty


def test_parse_empty_and_infinite_are_empty():
    assert parse_network_spec("").empty
    assert parse_network_spec("  ").empty
    assert parse_network_spec(None).empty
    assert parse_network_spec("infinite").empty
    assert parse_network_spec("INFINITE").empty


def test_partial_specs():
    assert parse_network_spec("link:bw=1").link_queue == 0  # unbounded
    s = parse_network_spec("port:dir=3")
    assert s.dir_port == 3 and s.mem_port == 0 and s.link_bw == 0
    assert not s.empty
    assert parse_network_spec("arb:priority;link:bw=2").arbiter == "priority"


@pytest.mark.parametrize("bad,msg", [
    ("bogus:bw=1", "unknown clause"),
    ("link:", "needs bw="),
    ("link:bw=0", "must be >= 1"),
    ("link:bw=x", "must be an int"),
    ("link:bw=2,zap=1", "unknown parameter"),
    ("link:bw=2;link:bw=3", "duplicate clause"),
    ("arb:roulette", "unknown arbiter"),
    ("arb:fifo,weights=2:1", "only applies to arb:wrr"),
    ("arb:wrr,weights=2", "must be <control>:<data>"),
    ("arb:wrr,weights=2:0", "must be >= 1"),
    ("port:", "needs dir=<cycles> and/or"),
    ("port:queue=0", "must be >= 1"),
])
def test_parse_rejects_malformed_specs(bad, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_network_spec(bad)


def test_network_config_validates_spec():
    with pytest.raises(ConfigError, match="unknown clause"):
        MachineConfig(network=replace(MachineConfig().network,
                                      spec="nope:1"))


# ---------------------------------------------------------------------------
# Arbiter properties (hypothesis)
# ---------------------------------------------------------------------------

def _fill(flows: list[int]):
    """Per-flow deques of ``(seq, flow)`` items from a flow sequence."""
    queues = (deque(), deque())
    for seq, flow in enumerate(flows):
        queues[flow].append((seq, flow))
    return queues


def _drain(arb, queues):
    grants = []
    while True:
        flow = arb.pick(queues)
        if flow < 0:
            return grants
        grants.append(queues[flow].popleft())


ARBS = [FifoArbiter, PriorityArbiter, lambda: WrrArbiter((2, 1))]


@settings(max_examples=60, deadline=None)
@given(flows=st.lists(st.integers(0, 1), max_size=120),
       arb_idx=st.integers(0, len(ARBS) - 1))
def test_arbiters_conserve_and_keep_flow_order(flows, arb_idx):
    """Every enqueued item is granted exactly once, and grants within a
    flow stay in arrival order, for every arbiter."""
    queues = _fill(flows)
    grants = _drain(ARBS[arb_idx](), queues)
    assert sorted(g[0] for g in grants) == list(range(len(flows)))
    for flow in (0, 1):
        seqs = [g[0] for g in grants if g[1] == flow]
        assert seqs == sorted(seqs)


@settings(max_examples=60, deadline=None)
@given(flows=st.lists(st.integers(0, 1), max_size=120))
def test_fifo_arbiter_is_global_arrival_order(flows):
    grants = _drain(FifoArbiter(), _fill(flows))
    assert [g[0] for g in grants] == list(range(len(flows)))


@settings(max_examples=40, deadline=None)
@given(flows=st.lists(st.integers(0, 1), min_size=2, max_size=120))
def test_priority_arbiter_serves_control_first(flows):
    grants = _drain(PriorityArbiter(), _fill(flows))
    n_ctl = flows.count(0)
    assert all(g[1] == 0 for g in grants[:n_ctl])
    assert all(g[1] == 1 for g in grants[n_ctl:])


@settings(max_examples=30, deadline=None)
@given(w0=st.integers(1, 5), w1=st.integers(1, 5),
       rounds=st.integers(10, 60))
def test_wrr_grant_ratio_tracks_weights(w0, w1, rounds):
    """Against a permanent backlog on both flows, grant counts over whole
    WRR rounds hit the weight ratio exactly."""
    arb = WrrArbiter((w0, w1))
    queues = (deque((i, 0) for i in range(10_000)),
              deque((i, 1) for i in range(10_000)))
    counts = [0, 0]
    for _ in range(rounds * (w0 + w1)):
        flow = arb.pick(queues)
        queues[flow].popleft()
        counts[flow] += 1
    assert counts[0] * w1 == counts[1] * w0


def test_wrr_state_roundtrip():
    arb = WrrArbiter((3, 2))
    queues = (deque([(0, 0), (1, 0)]), deque([(2, 1)]))
    arb.pick(queues)
    clone = WrrArbiter((3, 2))
    clone.load_state(json.loads(json.dumps(arb.state_dict())))
    assert clone.state_dict() == arb.state_dict()


# ---------------------------------------------------------------------------
# Default spec: no queues, bit-identical behaviour
# ---------------------------------------------------------------------------

def _counter_machine(cfg: MachineConfig) -> Machine:
    m = Machine(cfg)
    c = LockedCounter(m, lock="tts")
    for _ in range(cfg.num_cores):
        m.add_thread(c.update_worker, 6)
    return m


def _result_of(cfg: MachineConfig):
    m = _counter_machine(cfg)
    m.run()
    return dataclasses.asdict(m.result()), m.sim.events_processed, m.sim.now


def test_empty_spec_builds_plain_mesh():
    m = Machine(MachineConfig(num_cores=2))
    assert type(m.network) is MeshNetwork
    assert not m.network.contended
    cfg = MachineConfig(num_cores=2)
    m2 = Machine(replace(cfg, network=replace(cfg.network,
                                              spec="infinite")))
    assert type(m2.network) is MeshNetwork


IDENTITY_GRID = [
    # (protocol, leases, faults)
    ("msi", True, ""),
    ("msi", False, ""),
    ("mesi", True, ""),
    ("mesi", False, "net_jitter:p=0.2,max=6"),
    ("msi", True, "dir_nack:p=0.1;timer_skew:4"),
    ("mesi", True, "net_jitter:p=0.1,max=9;dir_nack:p=0.05"),
]


@pytest.mark.parametrize("protocol,leases,faults", IDENTITY_GRID,
                         ids=lambda v: str(v))
def test_infinite_spec_is_bit_identical(protocol, leases, faults):
    """``spec="infinite"`` must match the spec-less build field-for-field
    (RunResult, event count, final cycle) across the protocol x leases x
    faults grid -- the default path builds the identical plain
    MeshNetwork, so nothing may diverge."""
    cfg = MachineConfig(num_cores=4, protocol=protocol, fault_spec=faults)
    cfg = cfg.with_leases(leases)
    plain = _result_of(cfg)
    inf = _result_of(replace(cfg, network=replace(cfg.network,
                                                  spec="infinite")))
    assert plain == inf
    # Link counters exist but stay zero on the contention-free model.
    counters = plain[0]["counters"]
    assert counters["link_flits"] == 0
    assert counters["link_stall_cycles"] == 0
    assert counters["port_stalls"] == 0


# ---------------------------------------------------------------------------
# Contended runs: conservation, result extras, degrade determinism
# ---------------------------------------------------------------------------

def _contended_cfg(spec: str = SAT_SPEC, *, leases: bool = False,
                   faults: str = "", cores: int = 4) -> MachineConfig:
    cfg = MachineConfig(num_cores=cores, fault_spec=faults)
    cfg = cfg.with_leases(leases)
    return replace(cfg, network=replace(cfg.network, spec=spec))


def test_contended_run_conserves_messages():
    """With an egress link on every tile, each traced message is granted
    a link exactly once: ``link_msgs == messages`` at quiescence, and the
    queues drain completely."""
    m = _counter_machine(_contended_cfg())
    m.run()
    k = m.counters
    assert isinstance(m.network, LinkedNetwork)
    assert k.link_msgs == k.messages > 0
    assert k.link_flits > k.link_msgs          # data messages cost 4 flits
    assert k.link_queued > 0                   # the hot cell saturated
    for link in m.network._resources:
        assert link.serving is None and link.depth == 0


def test_contended_result_extras():
    m = _counter_machine(_contended_cfg())
    m.run()
    res = m.result()
    assert res.extra["link_flits"] == m.counters.link_flits
    assert res.extra["link_stall_cycles"] == m.counters.link_stall_cycles
    assert res.extra["port_stalls"] == m.counters.port_stalls
    assert res.extra["link_util_pct"] > 0


def test_link_degrade_is_deterministic_and_biting():
    faults = "link_degrade:p=0.5,factor=8,queue=2"
    a = _result_of(_contended_cfg(faults=faults))
    b = _result_of(_contended_cfg(faults=faults))
    assert a == b, "same seed+spec must degrade the same links"
    healthy = _result_of(_contended_cfg(faults=""))
    assert a[0]["counters"]["faults_injected"] > 0
    assert a[0]["cycles"] > healthy[0]["cycles"], \
        "8x-degraded links should slow the contended run"


def test_link_degrade_without_contended_network_is_noop():
    cfg = MachineConfig(num_cores=4,
                        fault_spec="link_degrade:p=1.0,factor=4")
    with_hook = _result_of(cfg)
    # The hook only fires at LinkedNetwork build time; on the plain mesh
    # there is nothing to degrade and no RNG draw perturbs other streams.
    assert with_hook[0]["counters"]["faults_injected"] == 0


# ---------------------------------------------------------------------------
# Checkpoint roundtrip through saturated link state
# ---------------------------------------------------------------------------

def _occupancy(m: Machine) -> list:
    """Which link/port resources are serving, and how deep each queue is."""
    return [(link.serving is not None, link.depth)
            for link in m.network._resources]


def _build_contended_treiber(cfg: MachineConfig) -> Machine:
    m = Machine(cfg)
    s = TreiberStack(m)
    s.prefill(range(16))
    for _ in range(4):
        m.add_thread(s.update_worker, 10)
    return m


@pytest.mark.parametrize("spec,faults,cut", [
    (SAT_SPEC, "", 400),
    (SAT_SPEC, "link_degrade:p=0.5,factor=4", 300),
    ("link:bw=1,queue=2;arb:priority;port:dir=1,mem=2", "", 250),
])
def test_contended_roundtrip_is_bit_identical(spec, faults, cut):
    """Snapshot mid-run -- with messages parked inside link/port queues --
    restore into a fresh machine, and run all three (checkpointed,
    restored, uninterrupted) to completion: field-for-field identical."""
    cfg = _contended_cfg(spec, leases=True, faults=faults)

    m1 = _build_contended_treiber(cfg)
    m1.enable_checkpointing()
    m1.run(until=cut)
    parked = _occupancy(m1)
    state = json.loads(json.dumps(m1.state_dict()))
    assert "network" in state

    m2 = _build_contended_treiber(cfg)
    m2.load_state(state)
    assert _occupancy(m2) == parked
    m1.run()
    m2.run()

    m3 = _build_contended_treiber(cfg)
    m3.run()

    r1, r2, r3 = m1.result(), m2.result(), m3.result()
    assert dataclasses.asdict(r2) == dataclasses.asdict(r3)
    assert dataclasses.asdict(r1) == dataclasses.asdict(r3)


def test_default_checkpoint_has_no_network_key():
    cfg = MachineConfig(num_cores=2)
    m = Machine(cfg)
    c = LockedCounter(m, lock="tts")
    for _ in range(2):
        m.add_thread(c.update_worker, 4)
    m.enable_checkpointing()
    m.run(until=200)
    assert "network" not in m.state_dict()


def test_restore_refuses_network_mismatch():
    cfg = _contended_cfg(leases=True)
    m1 = _build_contended_treiber(cfg)
    m1.enable_checkpointing()
    m1.run(until=300)
    state = json.loads(json.dumps(m1.state_dict()))

    from repro.errors import CheckpointMismatch
    plain = replace(cfg, network=replace(cfg.network, spec=""))
    m2 = _build_contended_treiber(plain)
    with pytest.raises(CheckpointMismatch, match="interconnect"):
        m2.load_state(state)


# ---------------------------------------------------------------------------
# build_network factory
# ---------------------------------------------------------------------------

def test_build_network_factory_dispatch():
    from repro.engine import Simulator
    from repro.trace import CountersTracer, TraceBus

    sim = Simulator()
    bus = TraceBus(clock=lambda: sim.now, sinks=(CountersTracer(),))
    cfg = MachineConfig().network
    assert type(build_network(cfg, 4, sim, bus)) is MeshNetwork
    contended = build_network(replace(cfg, spec="link:bw=2"), 4, sim, bus)
    assert isinstance(contended, LinkedNetwork)
    assert contended.contended
