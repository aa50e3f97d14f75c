"""Set-associative private L1 cache model (tags + state only).

Data values live in the global backing store (see :mod:`repro.mem.memory`);
the cache tracks presence and MSI state for timing and statistics.  Leased
lines (and lines holding a queued probe) are *pinned*: the hardware proposal
keeps them in the load buffer, so they are never silently evicted.  If every
way of a set is pinned the set temporarily over-fills (counted), mirroring
the separate load-buffer capacity.

Storage layout: line states live in one flat array indexed by line id
(``_st``, ints; 0 = invalid/not-resident), so the hottest query --
``state_of`` on every access and probe -- is a bare list index.  The
per-set OrderedDicts keep only LRU order and residency (``line -> None``);
victim selection and checkpoint round-trips read states back through the
flat array.  ``state_of`` returns the raw int, which compares equal to the
:class:`LineState` IntEnum members.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import ProtocolError
from ..trace import TraceBus
from .states import LineState

_LI = int(LineState.I)


class L1Cache:
    """LRU, set-associative tag store for one core."""

    __slots__ = ("num_sets", "assoc", "_sets", "_st", "_pinned", "trace",
                 "core_id")

    def __init__(self, num_sets: int, assoc: int, trace: TraceBus,
                 core_id: int = 0) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        # One OrderedDict per set: line -> None, LRU order (front=old).
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(num_sets)
        ]
        # Flat per-line state column; grown on demand (see module docstring).
        self._st: list[int] = []
        # line -> pin refcount.  A line may be pinned more than once (a
        # granted lease AND a queued probe each hold a reference); the
        # refcount catches unbalanced unpins that a plain set would
        # silently absorb.
        self._pinned: dict[int, int] = {}
        self.trace = trace
        self.core_id = core_id

    def _ensure(self, line: int) -> None:
        st = self._st
        if line >= len(st):
            st.extend([_LI] * (line + 1 - len(st)))

    # -- queries ------------------------------------------------------------

    def state_of(self, line: int) -> int:
        """Current state of ``line`` as an int comparing equal to
        :class:`LineState` members (``LineState.I`` when not resident)."""
        st = self._st
        return st[line] if line < len(st) else _LI

    def touch(self, line: int) -> None:
        """Mark ``line`` most-recently-used."""
        s = self._sets[line % self.num_sets]
        if line in s:
            s.move_to_end(line)

    def resident_lines(self) -> list[int]:
        return [line for s in self._sets for line in s]

    # -- pinning (leases) -----------------------------------------------------

    def pin(self, line: int) -> None:
        """Take one pin reference on ``line`` (lease grant, queued probe)."""
        self._pinned[line] = self._pinned.get(line, 0) + 1

    def unpin(self, line: int) -> None:
        """Drop one pin reference; underflow is a protocol bug, not a
        no-op (it would mean some release path double-counted)."""
        n = self._pinned.get(line, 0)
        if n <= 0:
            raise ProtocolError(
                f"core {self.core_id}: unpin underflow on line {line}")
        if n == 1:
            del self._pinned[line]
        else:
            self._pinned[line] = n - 1

    def is_pinned(self, line: int) -> bool:
        return line in self._pinned

    def pin_count(self, line: int) -> int:
        return self._pinned.get(line, 0)

    def pinned_lines(self) -> dict[int, int]:
        """Copy of the line -> refcount map (invariant checker)."""
        return dict(self._pinned)

    # -- mutation -------------------------------------------------------------

    def set_state(self, line: int, state: LineState) -> None:
        """Change the state of a *resident* line (downgrade/upgrade)."""
        if line not in self._sets[line % self.num_sets]:
            raise ProtocolError(f"set_state on non-resident line {line}")
        if state == LineState.I:
            raise ProtocolError("use invalidate() to drop a line")
        self._st[line] = int(state)

    def invalidate(self, line: int) -> None:
        """Drop a line (probe-induced; not an eviction).  Clears every
        pin reference: invalidation only reaches a pinned line once the
        lease machinery has let the probe through."""
        s = self._sets[line % self.num_sets]
        if s.pop(line, 0) is None:     # was resident (stored value is None)
            self._st[line] = _LI
        self._pinned.pop(line, None)

    # -- checkpointing (repro.state) ----------------------------------------

    def state_dict(self) -> dict:
        """Per-set (line, state) pairs in LRU order plus pin refcounts.
        LRU order is behavioral state: victim choice depends on it."""
        st = self._st
        return {
            "sets": [[[line, LineState(st[line]).name] for line in s]
                     for s in self._sets],
            "pinned": [[line, n] for line, n in self._pinned.items()],
        }

    def load_state(self, state: dict) -> None:
        self._sets = [OrderedDict() for _ in state["sets"]]
        self._st = []
        for s, pairs in zip(self._sets, state["sets"]):
            for line, name in pairs:
                s[line] = None
                self._ensure(line)
                self._st[line] = int(LineState[name])
        self._pinned = {line: n for line, n in state["pinned"]}

    def fill(self, line: int, state: LineState
             ) -> tuple[int, LineState] | None:
        """Insert ``line`` in ``state``; returns the evicted victim
        ``(line, state)`` if one had to be displaced, else None.

        If the line is already resident this is an upgrade in place (no
        eviction).  The victim is the least-recently-used unpinned way.
        """
        s = self._sets[line % self.num_sets]
        self._ensure(line)
        if line in s:
            self._st[line] = int(state)
            s.move_to_end(line)
            return None
        victim = None
        if len(s) >= self.assoc:
            pinned = self._pinned
            for cand in s:  # LRU order: oldest first
                if cand not in pinned:
                    victim = (cand, LineState(self._st[cand]))
                    break
            if victim is not None:
                del s[victim[0]]
                self._st[victim[0]] = _LI
                self.trace.l1_evicted(self.core_id, victim[0],
                                      overflow=False)
            else:
                # Every way pinned by leases/queued probes: over-fill.
                self.trace.l1_evicted(self.core_id, line, overflow=True)
        s[line] = None
        self._st[line] = int(state)
        return victim
