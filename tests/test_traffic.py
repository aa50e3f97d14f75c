"""Open-loop traffic: spec grammar, lanes, shed accounting, SLO gate.

Ends with the identity checks the tentpole promises: the latency
histogram of an open-loop run is bit-identical across a mid-run
checkpoint/restore cut, and the CLI turns
an SLO miss into exit code 1 (a bad spec into exit code 2).
"""

import json

import pytest

from repro.__main__ import main
from repro.config import MachineConfig
from repro.core.machine import Machine
from repro.errors import ConfigError
from repro.stats.latency import LatencyHistogram
from repro.structures import LockedCounter
from repro.traffic import (TrafficSource, evaluate_slo, op_for_key,
                           parse_traffic_spec, traffic_counter_worker)
from repro.traffic.spec import DEFAULT_HOTSET_SHIFT, DEFAULT_QUEUE_DEPTH
from repro.workloads.driver import bench_counter


# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------

class TestSpecParse:
    def test_empty_spec_is_empty(self):
        spec = parse_traffic_spec("")
        assert spec.empty and not spec.has_slo

    def test_roadmap_one_liner(self):
        spec = parse_traffic_spec("poisson:rate=2.0,zipf:s=1.2,tenants=2")
        assert spec.arrival == "poisson" and spec.rate == 2.0
        assert spec.keys == "zipf" and spec.zipf_s == 1.2
        assert spec.tenants == 2
        assert spec.queue_depth == DEFAULT_QUEUE_DEPTH

    def test_burst_with_semicolons_and_slo(self):
        spec = parse_traffic_spec(
            "burst:rate=4,on=3000,off=9000;"
            "hotset:frac=0.9,size=8,shift=64;queue=8;slo:p99=2500,shed=0.01")
        assert spec.arrival == "burst"
        assert (spec.on_cycles, spec.off_cycles) == (3000, 9000)
        assert spec.keys == "hotset"
        assert (spec.hot_frac, spec.hot_size, spec.hot_shift) == (0.9, 8, 64)
        assert spec.queue_depth == 8
        assert spec.has_slo
        assert (spec.slo_p99, spec.slo_p999, spec.slo_shed) == (2500, None,
                                                                0.01)

    def test_ramp_and_ops(self):
        spec = parse_traffic_spec("ramp:rate=1.5,period=400,ops=32")
        assert spec.arrival == "ramp" and spec.period == 400
        assert spec.ops == 32

    def test_hotset_shift_defaults(self):
        spec = parse_traffic_spec("poisson:rate=1,hotset:frac=0.5,size=4")
        assert spec.hot_shift == DEFAULT_HOTSET_SHIFT

    @pytest.mark.parametrize("bad, msg", [
        ("bogus:rate=1", "unknown clause"),
        ("poisson:rate=1,poisson:rate=2", "duplicate clause"),
        ("poisson:rate=1,burst:rate=2,on=10,off=10", "second arrival"),
        ("poisson:rate=1,zipf:s=1,uniform", "second key clause"),
        ("poisson", "needs rate"),
        ("poisson:rate=0", "must be > 0"),
        ("poisson:rate=abc", "must be a float"),
        ("burst:rate=1,on=10", "needs rate"),
        ("ramp:rate=1", "needs rate"),
        ("zipf:s=1.2", "needs an arrival clause"),
        ("poisson:rate=1,zipf", "needs s="),
        ("poisson:rate=1,zipf:s=-1", "must be >= 0"),
        ("poisson:rate=1,hotset:frac=0.5", "needs frac"),
        ("poisson:rate=1,hotset:frac=2,size=4", "frac"),
        ("poisson:rate=1,slo", "needs at least one"),
        ("poisson:rate=1,slo:p99=0", "p99"),
        ("poisson:rate=1,tenants=0", "tenants"),
        ("poisson:rate=1,queue=x", "queue"),
        ("poisson:rate=1,rate=9", "duplicate"),
        ("poisson:rate=1,frob=2", "unknown parameter"),
        ("poisson:rate=1,tenants=2,zz=3", "expected tenants=<int>"),
        ("poisson:rate=2,queue=8,p99=100", "expected queue=<int>"),
        ("poisson:rate=1,ops=5,rate=9", "expected ops=<int>"),
        ("poisson=3,rate=1", "unknown parameter 'poisson'"),
        ("poisson:rate=nan", "must be finite"),
        ("poisson:rate=inf", "must be finite"),
        ("poisson:rate=1e400", "must be finite"),
        ("poisson:rate=1,zipf:s=nan", "must be finite"),
        ("poisson:rate=1,zipf:s=inf", "must be finite"),
    ])
    def test_rejects(self, bad, msg):
        with pytest.raises(ConfigError, match="traffic spec:") as exc:
            parse_traffic_spec(bad)
        assert msg in str(exc.value)


# ---------------------------------------------------------------------------
# Lanes: determinism and shed accounting (driven with a stub machine)
# ---------------------------------------------------------------------------

class _StubTrace:
    def __init__(self):
        self.admitted = 0
        self.shed = 0

    def op_admitted(self, core_id, tenant, depth):
        self.admitted += 1

    def op_shed(self, core_id, tenant):
        self.shed += 1


class _StubCtx:
    def __init__(self, now=0):
        self.machine = type("M", (), {})()
        self.machine.now = now
        self.machine.trace = _StubTrace()
        self.core_id = 0


def _drain(lane, ctx, step=50):
    """Pull a lane dry, advancing the stub clock on wait hints."""
    items = []
    while True:
        got = lane.poll(ctx)
        if got is None:
            return items
        if isinstance(got, int):
            ctx.machine.now += got
            continue
        items.append(got)
        lane.complete(got[0], ctx.machine.now)


class TestLanes:
    SPEC = "poisson:rate=2.0,zipf:s=1.1,tenants=2,ops=12"

    def _source(self, seed=3, spec=None):
        return TrafficSource(spec or self.SPEC, num_lanes=2, seed=seed,
                             key_range=16, default_ops=8)

    def test_fixed_seed_is_deterministic(self):
        a = [_drain(self._source().lane(i), _StubCtx()) for i in (0, 1)]
        b = [_drain(self._source().lane(i), _StubCtx()) for i in (0, 1)]
        assert a == b
        # ...and the merged histograms match bucket-for-bucket.
        sa, sb = self._source(), self._source()
        for i in (0, 1):
            _drain(sa.lane(i), _StubCtx())
            _drain(sb.lane(i), _StubCtx())
        assert sa.histogram() == sb.histogram()

    def test_lanes_and_seeds_draw_distinct_streams(self):
        src = self._source()
        assert (_drain(src.lane(0), _StubCtx())
                != _drain(src.lane(1), _StubCtx()))
        assert (_drain(self._source(seed=3).lane(0), _StubCtx())
                != _drain(self._source(seed=4).lane(0), _StubCtx()))

    def test_arrivals_ordered_and_tagged(self):
        src = self._source()
        items = _drain(src.lane(0), _StubCtx())
        cycles = [t for t, _tenant, _key in items]
        assert cycles == sorted(cycles)
        assert {tenant for _t, tenant, _key in items} <= {0, 1}
        assert all(0 <= key < 16 for _t, _tenant, key in items)

    def test_offered_equals_admitted_plus_shed(self):
        src = TrafficSource("poisson:rate=4.0,queue=2,ops=10",
                            num_lanes=1, seed=5, key_range=8)
        ctx = _StubCtx(now=10 ** 9)      # everything due at once
        items = _drain(src.lane(0), ctx)
        assert src.admitted + src.shed == 10
        assert src.shed > 0
        assert len(items) == src.admitted == src.histogram().total
        # the trace saw exactly the same split
        assert ctx.machine.trace.admitted == src.admitted
        assert ctx.machine.trace.shed == src.shed

    def test_queue_never_exceeds_depth(self):
        src = TrafficSource("poisson:rate=4.0,queue=2,ops=10",
                            num_lanes=1, seed=5, key_range=8)
        lane = src.lane(0)
        lane.poll(_StubCtx(now=10 ** 9))
        assert len(lane.queue) <= 2

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            TrafficSource("", num_lanes=1, seed=1)

    def test_op_for_key_is_pure(self):
        assert op_for_key(3, 1, 50) == op_for_key(3, 1, 50)
        assert op_for_key(3, 1, 0) == "contains"
        assert op_for_key(3, 1, 100) in ("insert", "delete")


# ---------------------------------------------------------------------------
# SLO verdicts
# ---------------------------------------------------------------------------

class TestSlo:
    def _hist(self, *values):
        h = LatencyHistogram()
        for v in values:
            h.record(v)
        return h

    def test_no_slo_clause_is_na(self):
        spec = parse_traffic_spec("poisson:rate=1")
        assert evaluate_slo(spec, self._hist(10), 0.0) == "n/a"

    def test_pass_and_fail_on_p99(self):
        spec = parse_traffic_spec("poisson:rate=1,slo:p99=100")
        assert evaluate_slo(spec, self._hist(10, 20), 0.0) == "pass"
        assert evaluate_slo(spec, self._hist(10, 500), 0.0) == "fail"

    def test_shed_bound(self):
        spec = parse_traffic_spec("poisson:rate=1,slo:shed=0.1")
        assert evaluate_slo(spec, self._hist(10), 0.05) == "pass"
        assert evaluate_slo(spec, self._hist(10), 0.5) == "fail"

    def test_empty_histogram_fails_latency_bound(self):
        spec = parse_traffic_spec("poisson:rate=1,slo:p999=100")
        assert evaluate_slo(spec, LatencyHistogram(), 0.0) == "fail"


# ---------------------------------------------------------------------------
# End-to-end identity: checkpoint/restore, CLI gate
# ---------------------------------------------------------------------------

SPEC = "poisson:rate=2.0,zipf:s=1.1,tenants=2,ops=8"


class TestEndToEnd:
    def _run(self, use_lease=False):
        return bench_counter(2, use_lease=use_lease, traffic=SPEC,
                             config=MachineConfig(seed=7))

    def test_latency_payload_attached(self):
        r = self._run()
        assert r.latency is not None
        assert r.ops == r.latency["admitted"] == r.latency["hist"]["total"]
        assert {"p50", "p99", "p999", "shed", "slo"} <= r.latency.keys()
        assert r.counters["traffic_admitted"] == r.latency["admitted"]
        assert r.counters["traffic_shed"] == r.latency["shed"]

    def test_checkpoint_restore_histogram_identical(self):
        def build():
            m = Machine(MachineConfig(num_cores=2, seed=7))
            m.enable_checkpointing()
            counter = LockedCounter(m, lock="tts")
            src = TrafficSource(SPEC, num_lanes=2, seed=7, key_range=16)
            for t in range(2):
                m.add_thread(traffic_counter_worker, counter, src.lane(t))
            return m, src

        ref_m, ref_src = build()
        ref_m.run()
        cut_m, _ = build()
        cut_m.run(until=max(1, ref_m.sim.now // 2))
        blob = json.dumps(cut_m.state_dict())      # must be JSON-safe
        res_m, res_src = build()
        res_m.load_state(json.loads(blob))
        res_m.run()
        assert res_src.histogram() == ref_src.histogram()
        assert (res_src.admitted, res_src.shed) == (ref_src.admitted,
                                                    ref_src.shed)


class TestCliGate:
    def test_slo_pass_exits_zero(self, capsys):
        rc = main(["run", "counter", "--threads", "2", "--seed", "3",
                   "--traffic", "poisson:rate=2.0,slo:p99=1000000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tail latency" in out and "p999" in out

    def test_slo_miss_exits_one(self, capsys):
        rc = main(["run", "counter", "--threads", "2", "--seed", "3",
                   "--traffic", "poisson:rate=2.0,slo:p99=1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "SLO: FAIL" in err

    def test_bad_spec_exits_two(self, capsys):
        rc = main(["run", "counter", "--threads", "2",
                   "--traffic", "bogus:rate=2"])
        assert rc == 2
        assert "--traffic:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        "poisson:rate=2,queue=8,p99=100,ops=5",   # missing slo:
        "poisson:rate=nan",
    ])
    def test_strict_grammar_exits_two(self, spec, capsys):
        rc = main(["run", "counter", "--threads", "2", "--traffic", spec])
        assert rc == 2
        assert capsys.readouterr().err.startswith("--traffic: traffic spec:")

    def test_closed_loop_experiment_rejects_traffic(self, capsys):
        rc = main(["run", "fig5_pagerank", "--threads", "2",
                   "--traffic", "poisson:rate=2.0"])
        assert rc == 2
        assert "no open-loop variant" in capsys.readouterr().err
