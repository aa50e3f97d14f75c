"""External binary search tree with fine-grained (per-node) locking.

The paper's low-contention tree workload cites the lock-free BST of
Natarajan-Mittal [31]; we substitute a fine-grained locked *external* BST
(leaves hold the keys, internal nodes route) with optimistic traversal and
validate-after-lock, which has the same coherence profile under the 20%-
update/uniform-key workload: traffic is spread over the whole tree and
leases change throughput by at most a few percent.  The substitution is
recorded in DESIGN.md.

Node layout: ``[key, left, right, lock, dead]``; leaves have
``left == right == NIL``.  Updates take per-node try-locks in
ancestor-then-descendant order and retry on validation failure, so no
deadlock is possible; the locks are leased over the critical section
exactly like the Section 6 lock pattern.
"""

from __future__ import annotations

from typing import Any, Generator

from ..config import WORD_SIZE
from ..core.isa import Lease, Load, Release, Store, TestAndSet, Work
from ..core.machine import Machine
from ..core.thread import Ctx
from ..sync.locks import SPIN_PAUSE
from .workers import set_worker

KEY_OFF = 0
LEFT_OFF = WORD_SIZE
RIGHT_OFF = 2 * WORD_SIZE
LOCK_OFF = 3 * WORD_SIZE
DEAD_OFF = 4 * WORD_SIZE
NIL = 0

#: Sentinel keys: all real keys compare below INF1 < INF2.
INF1 = float("inf")
INF2 = float("inf")


class LockedExternalBST:
    """Concurrent external BST (set semantics over integer keys)."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        # Ellen-style sentinels: root = internal(INF2) with two sentinel
        # leaves; every real key is routed into root.left's subtree.
        leaf1 = self._raw_node(machine, INF1)
        leaf2 = self._raw_node(machine, INF2)
        self.root = self._raw_node(machine, INF2, left=leaf1, right=leaf2)

    @staticmethod
    def _raw_node(machine: Machine, key, left: int = NIL,
                  right: int = NIL) -> int:
        node = machine.alloc.alloc_words(5)
        machine.write_init(node + KEY_OFF, key)
        machine.write_init(node + LEFT_OFF, left)
        machine.write_init(node + RIGHT_OFF, right)
        return node

    # -- setup ------------------------------------------------------------

    def prefill(self, keys) -> None:
        m = self.machine
        for key in set(keys):
            # Direct (non-simulated) insert.
            parent, side = self.root, LEFT_OFF
            node = m.peek(parent + side)
            while m.peek(node + LEFT_OFF) != NIL:
                parent = node
                side = (LEFT_OFF if key < m.peek(node + KEY_OFF)
                        else RIGHT_OFF)
                node = m.peek(parent + side)
            lkey = m.peek(node + KEY_OFF)
            if lkey == key:
                continue
            new_leaf = self._raw_node(m, key)
            inner_key = max(key, lkey) if lkey != INF1 else INF1
            if key < lkey:
                inner = self._raw_node(m, inner_key, new_leaf, node)
            else:
                inner = self._raw_node(m, inner_key, node, new_leaf)
            m.write_init(parent + side, inner)

    # -- locking helpers (leased try-locks on the node's line) ---------------

    def _try_lock(self, ctx: Ctx, node: int) -> Generator[Any, Any, bool]:
        yield Lease(node + LOCK_OFF)
        old = yield TestAndSet(node + LOCK_OFF)
        if old == 0:
            return True
        yield Release(node + LOCK_OFF)
        return False

    def _unlock(self, ctx: Ctx, node: int) -> Generator:
        yield Store(node + LOCK_OFF, 0)
        yield Release(node + LOCK_OFF)

    # -- traversal ------------------------------------------------------------

    def _search(self, ctx: Ctx, key) -> Generator[
            Any, Any, tuple[int, int, int, int, int]]:
        """Returns ``(gparent, gside, parent, pside, leaf)``."""
        gparent, gside = NIL, LEFT_OFF
        parent, pside = self.root, LEFT_OFF
        leaf = yield Load(parent + pside)
        while True:
            left = yield Load(leaf + LEFT_OFF)
            if left == NIL:
                return gparent, gside, parent, pside, leaf
            k = yield Load(leaf + KEY_OFF)
            gparent, gside = parent, pside
            parent = leaf
            pside = LEFT_OFF if key < k else RIGHT_OFF
            leaf = yield Load(parent + pside)

    # -- operations ----------------------------------------------------------

    def insert(self, ctx: Ctx, key) -> Generator[Any, Any, bool]:
        while True:
            _, _, parent, pside, leaf = yield from self._search(ctx, key)
            lkey = yield Load(leaf + KEY_OFF)
            if lkey == key:
                return False
            ok = yield from self._try_lock(ctx, parent)
            if not ok:
                yield Work(SPIN_PAUSE)
                continue
            dead = yield Load(parent + DEAD_OFF)
            cur = yield Load(parent + pside)
            if dead or cur != leaf:
                yield from self._unlock(ctx, parent)
                continue
            new_leaf = ctx.alloc_cached(5, [key, NIL, NIL, 0, 0])
            if key < lkey:
                inner = ctx.alloc_cached(
                    5, [lkey, new_leaf, leaf, 0, 0])
            else:
                inner = ctx.alloc_cached(
                    5, [key, leaf, new_leaf, 0, 0])
            yield Store(parent + pside, inner)
            yield from self._unlock(ctx, parent)
            return True

    def delete(self, ctx: Ctx, key) -> Generator[Any, Any, bool]:
        while True:
            gparent, gside, parent, pside, leaf = \
                yield from self._search(ctx, key)
            lkey = yield Load(leaf + KEY_OFF)
            if lkey != key:
                return False
            # Lock ancestor before descendant; try-locks keep this
            # deadlock-free even when the shape changed underneath us.
            ok = yield from self._try_lock(ctx, gparent)
            if not ok:
                yield Work(SPIN_PAUSE)
                continue
            ok = yield from self._try_lock(ctx, parent)
            if not ok:
                yield from self._unlock(ctx, gparent)
                yield Work(SPIN_PAUSE)
                continue
            gdead = yield Load(gparent + DEAD_OFF)
            pdead = yield Load(parent + DEAD_OFF)
            gchild = yield Load(gparent + gside)
            pchild = yield Load(parent + pside)
            if gdead or pdead or gchild != parent or pchild != leaf:
                yield from self._unlock(ctx, parent)
                yield from self._unlock(ctx, gparent)
                continue
            sibling_off = RIGHT_OFF if pside == LEFT_OFF else LEFT_OFF
            sibling = yield Load(parent + sibling_off)
            yield Store(gparent + gside, sibling)    # splice parent out
            yield Store(parent + DEAD_OFF, 1)
            yield from self._unlock(ctx, parent)
            yield from self._unlock(ctx, gparent)
            return True

    def contains(self, ctx: Ctx, key) -> Generator[Any, Any, bool]:
        _, _, _, _, leaf = yield from self._search(ctx, key)
        k = yield Load(leaf + KEY_OFF)
        return k == key

    # -- inspection -----------------------------------------------------------

    def keys_direct(self) -> list:
        """In-order leaf keys (excluding sentinels), via the backing store."""
        m = self.machine
        out = []

        def walk(node: int) -> None:
            if node == NIL:
                return
            left = m.peek(node + LEFT_OFF)
            if left == NIL:
                k = m.peek(node + KEY_OFF)
                if k != INF1:
                    out.append(k)
                return
            walk(left)
            walk(m.peek(node + RIGHT_OFF))

        walk(m.peek(self.root + LEFT_OFF))
        return out

    # -- benchmark worker -------------------------------------------------

    mixed_worker = set_worker
