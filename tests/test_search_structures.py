"""Harris list, lock-free skiplist, hash table, BST: set semantics,
sorted-order invariants, concurrent linearizability smoke tests."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_machine

from repro.structures import (HarrisList, LockFreeSkipList, LockedExternalBST,
                              LockedHashTable)
from repro.structures.skiplist import MAX_HEIGHT

ALL = [HarrisList, LockFreeSkipList, LockedHashTable, LockedExternalBST]
SORTED = [HarrisList, LockFreeSkipList]   # keys_direct returns sorted keys


def build(cls, m):
    return cls(m)


@pytest.mark.parametrize("cls", ALL)
class TestSequentialSetSemantics:
    def test_insert_contains_delete(self, cls):
        m = make_machine(1)
        s = build(cls, m)
        out = []

        def body(ctx):
            out.append((yield from s.insert(ctx, 5)))      # True
            out.append((yield from s.insert(ctx, 5)))      # False (dup)
            out.append((yield from s.contains(ctx, 5)))    # True
            out.append((yield from s.contains(ctx, 6)))    # False
            out.append((yield from s.delete(ctx, 5)))      # True
            out.append((yield from s.delete(ctx, 5)))      # False
            out.append((yield from s.contains(ctx, 5)))    # False

        m.add_thread(body)
        m.run()
        assert out == [True, False, True, False, True, False, False]

    def test_many_keys(self, cls):
        m = make_machine(1)
        s = build(cls, m)
        keys = [3, 1, 4, 15, 9, 2, 6, 53, 58, 97, 93, 23]

        def body(ctx):
            for k in keys:
                yield from s.insert(ctx, k)
            for k in keys:
                ok = yield from s.contains(ctx, k)
                assert ok, k

        m.add_thread(body)
        m.run()
        assert sorted(s.keys_direct()) == sorted(keys)

    def test_prefill_then_ops(self, cls):
        m = make_machine(1)
        s = build(cls, m)
        s.prefill(range(0, 20, 2))
        out = []

        def body(ctx):
            out.append((yield from s.contains(ctx, 4)))
            out.append((yield from s.contains(ctx, 5)))
            out.append((yield from s.delete(ctx, 4)))
            out.append((yield from s.insert(ctx, 5)))

        m.add_thread(body)
        m.run()
        assert out == [True, False, True, True]
        assert sorted(s.keys_direct()) == sorted(
            set(range(0, 20, 2)) - {4} | {5})

    @given(st.lists(st.tuples(st.sampled_from(["ins", "del", "has"]),
                              st.integers(0, 15)), max_size=25))
    @settings(max_examples=15, deadline=None)
    def test_property_matches_set_model(self, cls, ops):
        m = make_machine(1)
        s = build(cls, m)
        model: set = set()
        expect, got = [], []
        for op, k in ops:
            if op == "ins":
                expect.append(k not in model)
                model.add(k)
            elif op == "del":
                expect.append(k in model)
                model.discard(k)
            else:
                expect.append(k in model)

        def body(ctx):
            for op, k in ops:
                if op == "ins":
                    got.append((yield from s.insert(ctx, k)))
                elif op == "del":
                    got.append((yield from s.delete(ctx, k)))
                else:
                    got.append((yield from s.contains(ctx, k)))

        m.add_thread(body)
        m.run()
        assert got == expect
        assert sorted(s.keys_direct()) == sorted(model)


@pytest.mark.parametrize("cls", ALL)
@pytest.mark.parametrize("leases", [False, True])
class TestConcurrent:
    def test_disjoint_inserts_all_present(self, cls, leases):
        m = make_machine(4, leases=leases)
        s = build(cls, m)

        def worker(ctx, tid):
            for i in range(8):
                ok = yield from s.insert(ctx, tid * 100 + i)
                assert ok

        for tid in range(4):
            m.add_thread(worker, tid)
        m.run()
        m.check_coherence_invariants()
        expected = sorted(t * 100 + i for t in range(4) for i in range(8))
        assert sorted(s.keys_direct()) == expected

    def test_racing_inserts_same_keys_exactly_once(self, cls, leases):
        """All threads insert the same keys; each key ends up present
        exactly once, and exactly one thread won each insert."""
        m = make_machine(4, leases=leases)
        s = build(cls, m)
        wins = []

        def worker(ctx):
            w = 0
            for k in range(10):
                ok = yield from s.insert(ctx, k)
                if ok:
                    w += 1
            wins.append(w)

        for _ in range(4):
            m.add_thread(worker)
        m.run()
        m.check_coherence_invariants()
        assert sorted(s.keys_direct()) == list(range(10))
        assert sum(wins) == 10

    def test_mixed_workload_preserves_invariants(self, cls, leases):
        m = make_machine(8, leases=leases)
        s = build(cls, m)
        s.prefill(range(0, 64, 2))
        for _ in range(8):
            m.add_thread(s.mixed_worker, 30, 64)
        m.run()
        m.check_coherence_invariants()
        keys = s.keys_direct()
        assert len(keys) == len(set(keys))         # no duplicates
        assert all(0 <= k < 64 for k in keys)
        if cls in SORTED:
            assert keys == sorted(keys)            # list order intact


class TestHarrisSpecifics:
    def test_marked_nodes_not_visible(self):
        """contains() must not report a logically deleted node."""
        m = make_machine(2, leases=False)
        s = HarrisList(m)
        s.prefill([1, 2, 3])
        out = []

        def deleter(ctx):
            yield from s.delete(ctx, 2)

        def checker(ctx):
            from repro.core.isa import Work
            yield Work(2000)
            out.append((yield from s.contains(ctx, 2)))

        m.add_thread(deleter)
        m.add_thread(checker)
        m.run()
        assert out == [False]


class TestSkipListSpecifics:
    def test_heights_are_bounded(self):
        m = make_machine(1)
        s = LockFreeSkipList(m, max_height=4)

        def body(ctx):
            for k in range(40):
                yield from s.insert(ctx, k)

        m.add_thread(body)
        m.run()
        assert sorted(s.keys_direct()) == list(range(40))

    def test_prefill_layout_is_pinned(self):
        """The backing store after a 4,096-key prefill, in write order: the
        seeded heights, the allocation order and every link."""
        m = make_machine(1)
        LockFreeSkipList(m).prefill(range(0, 8192, 2))
        words = repr([(a, m.peek(a)) for a in m.memory.touched()])
        assert (hashlib.sha256(words.encode()).hexdigest()[:24]
                == "379146cee792dc25572e8775")

    def test_prefill_is_linear(self):
        """Sorted keys only ever append, so no walk restarts at the head."""
        m = make_machine(1)
        peeks = 0
        peek = m.peek

        def counting_peek(addr):
            nonlocal peeks
            peeks += 1
            return peek(addr)

        m.peek = counting_peek
        LockFreeSkipList(m).prefill(range(4096))
        assert peeks <= 4 * MAX_HEIGHT * 4096


class TestBSTSpecifics:
    def test_delete_leaf_under_root(self):
        m = make_machine(1)
        s = LockedExternalBST(m)
        out = []

        def body(ctx):
            yield from s.insert(ctx, 10)
            out.append((yield from s.delete(ctx, 10)))
            out.append((yield from s.contains(ctx, 10)))
            yield from s.insert(ctx, 20)

        m.add_thread(body)
        m.run()
        assert out == [True, False]
        assert s.keys_direct() == [20]

    def test_inorder_is_sorted(self):
        m = make_machine(1)
        s = LockedExternalBST(m)
        keys = [8, 3, 10, 1, 6, 14, 4, 7, 13]

        def body(ctx):
            for k in keys:
                yield from s.insert(ctx, k)

        m.add_thread(body)
        m.run()
        assert s.keys_direct() == sorted(keys)


class TestHashTableSpecifics:
    def test_colliding_keys_in_one_bucket(self):
        m = make_machine(1)
        s = LockedHashTable(m, num_buckets=2)

        def body(ctx):
            for k in range(10):
                yield from s.insert(ctx, k)
            ok = yield from s.delete(ctx, 4)
            assert ok

        m.add_thread(body)
        m.run()
        assert sorted(s.keys_direct()) == [k for k in range(10) if k != 4]
