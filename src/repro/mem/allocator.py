"""Cache-line-aware bump allocator for simulated memory.

The paper (Section 7, "Observations and Limitations") notes that false
sharing between leased variables can degrade performance badly and should be
prevented by cache-aligned allocation; the allocator therefore defaults to
line-aligned allocations, and shared hot variables are placed on private
lines by the data-structure code.

Allocations may carry a symbolic ``label`` ("stack.head", "lock.word", ...);
``label_of(line)`` resolves a cache line back to its label, which is how the
trace heatmap names contended data.
"""

from __future__ import annotations

from ..config import WORD_SIZE
from ..errors import AllocationError
from .address import AddressMap


class Allocator:
    """Monotonic (bump) allocator over the simulated address space.

    The simulation never frees memory: reproducing the paper's benchmarks
    does not require reclamation (the paper itself elides memory reclamation
    / ABA handling, citing [37]), and monotonic addresses keep the global
    MultiLease sort order stable.
    """

    __slots__ = ("amap", "_next", "limit", "_labels")

    def __init__(self, amap: AddressMap, *, base: int = 1 << 12,
                 limit: int = 1 << 48) -> None:
        self.amap = amap
        # Never hand out address 0 ("NULL" in workload code) or the first
        # page, mirroring a real process layout.
        self._next = base
        self.limit = limit
        #: line -> symbolic allocation label (trace heatmaps).
        self._labels: dict[int, str] = {}

    def alloc(self, nbytes: int, *, align: int | None = None,
              label: str | None = None) -> int:
        """Allocate ``nbytes`` and return the base byte address."""
        if nbytes <= 0:
            raise AllocationError(f"cannot allocate {nbytes} bytes")
        align = align or WORD_SIZE
        if align & (align - 1):
            raise AllocationError(f"alignment {align} not a power of two")
        base = (self._next + align - 1) & ~(align - 1)
        if base + nbytes > self.limit:
            raise AllocationError("simulated address space exhausted")
        self._next = base + nbytes
        if label is not None:
            first = self.amap.line_of(base)
            last = self.amap.line_of(base + nbytes - 1)
            for line in range(first, last + 1):
                self._labels[line] = label
        return base

    def alloc_words(self, nwords: int, *, line_aligned: bool = True,
                    label: str | None = None) -> int:
        """Allocate ``nwords`` 8-byte words (line-aligned by default)."""
        align = self.amap.line_size if line_aligned else WORD_SIZE
        return self.alloc(nwords * WORD_SIZE, align=align, label=label)

    def alloc_line(self, *, label: str | None = None) -> int:
        """Allocate one whole private cache line; returns its base address.

        Use this for hot shared variables (lock words, head/tail pointers)
        so that distinct variables never share a line (no false sharing).
        """
        return self.alloc(self.amap.line_size, align=self.amap.line_size,
                          label=label)

    def alloc_array(self, nwords: int, *, one_per_line: bool = False,
                    label: str | None = None) -> list[int]:
        """Allocate ``nwords`` word slots; with ``one_per_line`` each slot
        lives on its own cache line (padded array)."""
        if one_per_line:
            return [self.alloc_line(label=label) for _ in range(nwords)]
        base = self.alloc_words(nwords, label=label)
        return [base + i * WORD_SIZE for i in range(nwords)]

    def label_of(self, line: int) -> str | None:
        """Symbolic label of the allocation covering ``line``, if any."""
        return self._labels.get(line)

    # -- checkpointing (repro.state) ----------------------------------------

    def state_dict(self) -> dict:
        return {"next": self._next,
                "labels": [[line, lbl] for line, lbl in
                           self._labels.items()]}

    def load_state(self, state: dict) -> None:
        self._next = state["next"]
        self._labels = {line: lbl for line, lbl in state["labels"]}
