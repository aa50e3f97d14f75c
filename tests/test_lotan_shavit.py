"""The literal Lotan-Shavit priority queue: logical deletion (lock-free
TAS on the deleted flag) + Pugh-style physical removal."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_machine

from repro.config import MachineConfig
from repro.structures import LotanShavitPQ
from repro.structures.priorityqueue import L_DEL_OFF, P_DEAD_OFF
from repro.workloads import bench_pq


class TestSequential:
    def test_delete_min_order(self, machine1):
        pq = LotanShavitPQ(machine1)
        out = []

        def body(ctx):
            for k in (5, 1, 9, 3):
                yield from pq.insert(ctx, k)
            for _ in range(5):
                out.append((yield from pq.delete_min(ctx)))

        machine1.add_thread(body)
        machine1.run()
        assert out == [1, 3, 5, 9, None]

    def test_prefill(self, machine1):
        pq = LotanShavitPQ(machine1)
        pq.prefill([7, 2, 9])
        assert pq.keys_direct() == [2, 7, 9]

    @given(st.lists(st.integers(0, 50), max_size=20))
    @settings(max_examples=15, deadline=None)
    def test_property_heapsort(self, keys):
        m = make_machine(1)
        pq = LotanShavitPQ(m)
        out = []

        def body(ctx):
            for k in keys:
                yield from pq.insert(ctx, k)
            for _ in range(len(keys)):
                out.append((yield from pq.delete_min(ctx)))

        m.add_thread(body)
        m.run()
        assert out == sorted(keys)

    def test_duplicate_keys(self, machine1):
        pq = LotanShavitPQ(machine1)
        out = []

        def body(ctx):
            for k in (3, 3, 3, 1):
                yield from pq.insert(ctx, k)
            for _ in range(4):
                out.append((yield from pq.delete_min(ctx)))

        machine1.add_thread(body)
        machine1.run()
        assert out == [1, 3, 3, 3]


class TestConcurrent:
    @pytest.mark.parametrize("leases", [False, True])
    def test_conservation(self, leases):
        m = make_machine(4, leases=leases)
        pq = LotanShavitPQ(m)
        pq.prefill(range(0, 60, 2))
        popped = []

        def worker(ctx, tid):
            for i in range(6):
                yield from pq.insert(ctx, 100 + tid * 10 + i)
            for _ in range(6):
                v = yield from pq.delete_min(ctx)
                if v is not None:
                    popped.append(v)

        for tid in range(4):
            m.add_thread(worker, tid)
        m.run()
        m.check_coherence_invariants()
        remaining = pq.keys_direct()
        assert sorted(popped + remaining) == sorted(
            list(range(0, 60, 2)) +
            [100 + t * 10 + i for t in range(4) for i in range(6)])
        # No key delivered twice (the TAS mark is the linearization).
        assert len(popped) == len(set(zip(popped, range(len(popped))))) \
            and len(popped + remaining) == 54

    def test_small_keys_leave_first(self):
        m = make_machine(4, leases=False)
        pq = LotanShavitPQ(m)
        pq.prefill(range(100))
        popped = []

        def worker(ctx):
            for _ in range(5):
                popped.append((yield from pq.delete_min(ctx)))

        for _ in range(4):
            m.add_thread(worker)
        m.run()
        assert sorted(popped) == list(range(20))

    def test_logical_deletion_hides_key_immediately(self, machine1):
        """A marked node is invisible to keys_direct even before its
        physical removal completes."""
        pq = LotanShavitPQ(machine1)
        pq.prefill([4])
        node = machine1.peek(pq._next(pq.head, 0))
        machine1.write_init(node + L_DEL_OFF, 1)   # simulate marked
        assert pq.keys_direct() == []


def test_bench_pq_lotan_variant():
    r = bench_pq(2, variant="lotan", ops_per_thread=8, prefill=64)
    assert r.ops == 16
    assert r.throughput_ops_per_sec > 0


@pytest.mark.parametrize("threads", [4, 8])
def test_bench_pq_lotan_completes_at_seed_3(threads):
    """Removal must validate its locked predecessors, lock them before the
    victim in insert's key order, and start the lower levels before any
    equal keys; without all three, this run hangs and hits the cycle
    budget."""
    r = bench_pq(threads, variant="lotan",
                 config=MachineConfig(seed=3, max_cycles=200_000))
    assert r.ops == threads * 40


def test_removal_leaves_no_dead_node_linked():
    """Every node a removal marks dead is unlinked from level 0."""
    m = make_machine(4, leases=False, seed=3)
    pq = LotanShavitPQ(m)
    pq.prefill(range(0, 64, 2))
    for _ in range(4):
        m.add_thread(pq.update_worker, 12, key_range=16, local_work=4)
    m.run()
    node = m.peek(pq._next(pq.head, 0))
    while node != 0:
        assert m.peek(node + P_DEAD_OFF) == 0
        node = m.peek(pq._next(node, 0))
