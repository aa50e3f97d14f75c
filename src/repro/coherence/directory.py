"""Directory controller with per-line FIFO request queues.

Each cache line has an independent directory entry with its own FIFO queue
of pending requests, and at most one transaction per line is in flight at a
time.  This matches Graphite ("the directory structure in Graphite
implements a separate request queue per cache line") and the paper's
Assumption 1, and yields Proposition 1: at any time at most one request per
line is queued at a core -- the one currently being serviced -- while all
others wait in the line's directory queue.

Transaction flow (MSI):

* ``GetS``  -- MODIFIED: downgrade probe to owner, writeback, grant S.
             SHARED/UNCACHED: fetch from L2 (DRAM on cold miss), grant S.
* ``GetX``  -- MODIFIED: invalidate probe to owner, grant M.
             SHARED: invalidate all other sharers, collect acks, grant M
             (no data fetch if the requester was itself a sharer: upgrade).
             UNCACHED: fetch, grant M.
* ``PutM``/``PutS`` -- eviction notices; applied only if still accurate
             (the core may have re-acquired the line since: stale notices
             are dropped harmlessly because data lives in the backing
             store, not in the caches).

The requester's L1 tags are updated synchronously at grant time (so the
directory's sharer/owner bookkeeping and the L1 states never disagree), but
the requesting *thread* resumes only when the data message arrives at its
tile.  Probes arriving in that window are deferred by the core's
:class:`~repro.coherence.memunit.MemUnit` until the pending access commits,
modeling a real core completing the waiting access before servicing probes.

Storage layout
--------------

Per-line directory state lives in flat arrays indexed by line id --
``_st`` (DirState as int), ``_owner`` (-1 = none), ``_sharers`` (bitmask of
core ids), ``_busy`` (bytearray) -- with per-line FIFO queues allocated
lazily in ``_queues`` only for lines that ever see contention.  The hot
transaction paths index the arrays directly; :class:`DirEntry` survives as
a *view* over one line's columns for introspection, invariant checking and
checkpointing.  Sharer iteration walks the bitmask in ascending bit order,
which is exactly the canonical sorted order the probe fan-out requires.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from ..engine import Simulator
from ..errors import ProtocolError
from ..mem import AddressMap
from ..trace import TraceBus
from .l2 import SharedL2
from .messages import MessageKind
from .network import MeshNetwork
from .states import DirState, LineState

if TYPE_CHECKING:  # pragma: no cover
    from .memunit import MemUnit

_DU = int(DirState.UNCACHED)
_DS = int(DirState.SHARED)
_DM = int(DirState.MODIFIED)
_LI = int(LineState.I)


class Request:
    """One coherence request from a core, queued per line at the directory."""

    __slots__ = ("kind", "line", "core_id", "is_lease", "callback",
                 "had_shared", "probe_carried_data", "attempts",
                 "probe_stage", "pending_acks")

    def __init__(self, kind: MessageKind, line: int, core_id: int,
                 is_lease: bool, callback: Callable[[], None]) -> None:
        self.kind = kind
        self.line = line
        self.core_id = core_id
        self.is_lease = is_lease
        self.callback = callback
        #: Requester held the line in S when issuing (upgrade; no data).
        self.had_shared = False
        #: The owner's probe reply carried dirty data (writeback needed).
        self.probe_carried_data = False
        #: Times this request was NACKed by fault injection (see _arrive).
        self.attempts = 0
        #: Which transaction step the outstanding probe(s) belong to
        #: ("gets_owner" | "getx_owner" | "inv_sharers"); kept as data so
        #: in-flight requests serialize without pickling continuations.
        self.probe_stage: str | None = None
        #: Remaining invalidation acks in the "inv_sharers" stage.
        self.pending_acks = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Req {self.kind.value} line={self.line} core={self.core_id}"
                f"{' lease' if self.is_lease else ''}>")


class _Eviction:
    """A PutM/PutS eviction notice travelling to the directory."""

    __slots__ = ("kind", "line", "core_id")

    def __init__(self, kind: MessageKind, line: int, core_id: int) -> None:
        self.kind = kind
        self.line = line
        self.core_id = core_id


def _mask_to_sorted(mask: int) -> list[int]:
    """Decompose a sharer bitmask into an ascending core-id list."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class DirEntry:
    """Read/write view over one line's columns in the directory arrays.

    Kept for introspection (tests, the invariant tracer, checkpointing);
    the transaction hot paths index the flat arrays directly.
    """

    __slots__ = ("_d", "line")

    def __init__(self, directory: "Directory", line: int) -> None:
        self._d = directory
        self.line = line

    @property
    def state(self) -> DirState:
        d = self._d
        return DirState(d._st[self.line]) if self.line < d._n \
            else DirState.UNCACHED

    @state.setter
    def state(self, value: DirState) -> None:
        self._d._ensure(self.line)
        self._d._st[self.line] = int(value)

    @property
    def owner(self) -> int | None:
        d = self._d
        if self.line >= d._n:
            return None
        o = d._owner[self.line]
        return None if o < 0 else o

    @owner.setter
    def owner(self, value: int | None) -> None:
        self._d._ensure(self.line)
        self._d._owner[self.line] = -1 if value is None else value

    @property
    def sharers(self) -> set[int]:
        d = self._d
        mask = d._sharers[self.line] if self.line < d._n else 0
        return set(_mask_to_sorted(mask))

    @property
    def busy(self) -> bool:
        d = self._d
        return bool(d._busy[self.line]) if self.line < d._n else False

    @property
    def queue(self) -> deque:
        q = self._d._queues.get(self.line)
        return q if q is not None else deque()


class Directory:
    """The (logically distributed) MSI directory."""

    __slots__ = ("amap", "network", "l2", "sim", "trace", "mesi", "faults",
                 "mem_units", "_ntiles", "_n", "_st", "_owner", "_sharers",
                 "_busy", "_queues", "_probe_cls")

    def __init__(self, amap: AddressMap, network: MeshNetwork,
                 l2: SharedL2, sim: Simulator, trace: TraceBus,
                 *, mesi: bool = False, faults=None) -> None:
        self.amap = amap
        self.network = network
        self.l2 = l2
        self.sim = sim
        self.trace = trace
        #: Grant exclusive-clean (E) on read misses to uncached lines.
        self.mesi = mesi
        #: Optional :class:`~repro.faults.FaultPlan`; when set, arriving
        #: requests may be NACKed and retried with exponential backoff.
        self.faults = faults
        self._ntiles = amap.num_tiles
        # Flat per-line columns (see module docstring).
        self._n = 0
        self._st: list[int] = []
        self._owner: list[int] = []
        self._sharers: list[int] = []
        self._busy = bytearray()
        self._queues: dict[int, deque] = {}
        #: Wired by the Machine after cores are built.
        self.mem_units: list["MemUnit"] = []
        # Cache the Probe class once: the import cycle with .memunit only
        # bites at module load time, and a per-probe local import shows up
        # in hot-loop profiles as import-machinery overhead.
        from .memunit import Probe
        self._probe_cls = Probe

    def _ensure(self, line: int) -> None:
        n = self._n
        if line >= n:
            grow = line + 1 - n
            self._st.extend([_DU] * grow)
            self._owner.extend([-1] * grow)
            self._sharers.extend([0] * grow)
            self._busy.extend(b"\x00" * grow)
            self._n = line + 1

    @property
    def entries(self) -> dict[int, DirEntry]:
        """Views over every line the directory has ever tracked (tests and
        the invariant tracer iterate this; built on demand)."""
        return {line: DirEntry(self, line) for line in range(self._n)}

    # -- ingress ---------------------------------------------------------

    def issue(self, req: Request) -> None:
        """Send ``req`` from its core to the line's home tile."""
        self.trace.req_issued(req.core_id, req.line, req.kind.val,
                              req.is_lease)
        self.network.send(req.core_id, req.line % self._ntiles, req.kind,
                          self._arrive, req)

    def issue_eviction(self, kind: MessageKind, line: int,
                       core_id: int) -> None:
        """Send a PutM/PutS notice from ``core_id`` to the home tile."""
        self.trace.eviction_issued(core_id, line, kind.val)
        ev = _Eviction(kind, line, core_id)
        self.network.send(core_id, line % self._ntiles, kind,
                          self._arrive, ev)

    def _arrive(self, req) -> None:
        # Fault injection: NACK the arrival before it touches the entry
        # (so no directory state needs undoing).  Evictions are never
        # NACKed -- they carry no response path to retry from.
        if self.faults is not None and type(req) is not _Eviction \
                and self.faults.should_nack(req.attempts):
            req.attempts += 1
            self.trace.dir_nack(req.core_id, req.line, req.attempts)
            delay = self.faults.retry_delay(req.attempts)
            self.trace.retry_scheduled(req.core_id, req.line,
                                       req.attempts, delay)
            self.network.send(req.line % self._ntiles, req.core_id,
                              MessageKind.NACK, self._retry_after, req, delay)
            return
        line = req.line
        if line >= self._n:
            self._ensure(line)
        if self._busy[line]:
            q = self._queues.get(line)
            if q is None:
                q = self._queues[line] = deque()
            q.append(req)
            self.trace.req_queued(req.core_id, line, len(q))
            return
        self._start(req)

    def _retry_after(self, req: Request, delay: int) -> None:
        """NACK arrived back at the requesting core: back off, re-issue.
        The *same* Request object travels again, so the MemUnit's
        outstanding-access bookkeeping still matches on completion."""
        self.sim.after(delay, self.issue, req)

    def _start(self, req) -> None:
        self._busy[req.line] = 1
        sim = self.sim
        if type(req) is _Eviction:
            # Evictions carry no response; apply after the tag lookup.
            sim.queue.schedule(sim.now + self.l2.lookup_latency(),
                               self._apply_eviction, req)
        else:
            sim.queue.schedule(sim.now + self.l2.lookup_latency(),
                               self._process, req)

    def _finish(self, line: int) -> None:
        self._busy[line] = 0
        q = self._queues.get(line)
        if q:
            self._start(q.popleft())

    # -- evictions --------------------------------------------------------

    def _apply_eviction(self, ev: _Eviction) -> None:
        line = ev.line
        core_l1 = self.mem_units[ev.core_id].l1
        # Drop stale notices: only apply if the core still does not hold the
        # line (it may have re-acquired it since evicting).
        applied = core_l1.state_of(line) == _LI
        self.trace.eviction_applied(ev.core_id, line, applied)
        if applied:
            if ev.kind is MessageKind.PUTM:
                if self._st[line] == _DM and self._owner[line] == ev.core_id:
                    self.l2.writeback(line)
                    self._st[line] = _DU
                    self._owner[line] = -1
            else:  # PUTS (clean drop: a shared copy, or an E line in MESI)
                if self._st[line] == _DM and self._owner[line] == ev.core_id:
                    self._st[line] = _DU
                    self._owner[line] = -1
                else:
                    mask = self._sharers[line] & ~(1 << ev.core_id)
                    self._sharers[line] = mask
                    if self._st[line] == _DS and not mask:
                        self._st[line] = _DU
        self._finish(line)

    # -- main transactions ---------------------------------------------------

    def _process(self, req: Request) -> None:
        if req.kind is MessageKind.GETS:
            self._process_gets(req)
        elif req.kind is MessageKind.GETX:
            self._process_getx(req)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unexpected request kind {req.kind}")

    def _process_gets(self, req: Request) -> None:
        line = req.line
        st = self._st[line]
        owner = self._owner[line]
        if st == _DM and owner != req.core_id:
            self._send_probe(owner, req, MessageKind.DOWNGRADE,
                             "gets_owner")
        elif st == _DU and self.mesi:
            # MESI: a read miss to an uncached line is granted
            # exclusive-clean, enabling later silent E->M upgrades.
            self._grant(req, LineState.E, fetch=True)
        else:
            # SHARED, or (stale) owner==requester: serve from L2.
            self._grant(req, LineState.S, fetch=True)

    def _gets_owner_replied(self, req: Request) -> None:
        """Owner acknowledged the downgrade (now holds S; data written back
        if the line was dirty)."""
        line = req.line
        owner = self._owner[line]
        if req.probe_carried_data:
            self.l2.writeback(line)
        self._st[line] = _DS
        self._owner[line] = -1
        if owner >= 0:
            self._sharers[line] |= 1 << owner
        self._grant(req, LineState.S, fetch=False)

    def _process_getx(self, req: Request) -> None:
        line = req.line
        st = self._st[line]
        owner = self._owner[line]
        if st == _DM and owner != req.core_id:
            self._send_probe(owner, req, MessageKind.INV,
                             "getx_owner")
        elif st == _DS:
            # Probe fan-out walks the sharer mask in ascending bit order:
            # the canonical (sorted) order, independent of how the mask was
            # rebuilt -- a checkpoint restore must not reorder probes.
            mask = self._sharers[line]
            bit = 1 << req.core_id
            req.had_shared = bool(mask & bit)
            others = mask & ~bit
            if others:
                self._inv_sharers(req, others)
            else:
                self._grant(req, LineState.M, fetch=not req.had_shared)
        else:
            # UNCACHED or stale owner==requester.
            self._grant(req, LineState.M, fetch=st == _DU)

    def _getx_owner_replied(self, req: Request) -> None:
        """Owner acknowledged the invalidation (dirty data came back)."""
        line = req.line
        if req.probe_carried_data:
            self.l2.writeback(line)
        self._owner[line] = -1
        self._st[line] = _DU
        self._grant(req, LineState.M, fetch=False)

    def _inv_sharers(self, req: Request, mask: int) -> None:
        req.pending_acks = mask.bit_count()
        while mask:
            low = mask & -mask
            self._send_probe(low.bit_length() - 1, req,
                             MessageKind.INV, "inv_sharers")
            mask ^= low

    # -- probes ------------------------------------------------------------

    def _send_probe(self, target_core: int, req: Request,
                    kind: MessageKind, stage: str) -> None:
        """Forward a probe to ``target_core``; when the core's reply
        arrives back at the home tile, :meth:`_probe_done` continues the
        transaction step named by ``stage``."""
        self.trace.probe_sent(target_core, req.line, kind.val)
        req.probe_stage = stage
        probe = self._probe_cls(line=req.line, kind=kind,
                                requester_is_lease=req.is_lease, req=req,
                                target_core=target_core)
        self.network.send(req.line % self._ntiles, target_core, kind,
                          self.mem_units[target_core].handle_probe, probe)

    def probe_reply(self, probe, carries_data: bool) -> None:
        """The probed core serviced ``probe``: route the DATA/ACK reply
        back to the home tile (called by the core's memory unit, exactly
        once per probe, possibly after a lease delay)."""
        req = probe.req
        req.probe_carried_data = carries_data
        kind_back = MessageKind.DATA if carries_data else MessageKind.ACK
        self.network.send(probe.target_core, req.line % self._ntiles,
                          kind_back, self._probe_done, req)

    def _probe_done(self, req: Request) -> None:
        """A probe reply arrived at the home tile: resume the transaction
        step recorded in ``req.probe_stage``."""
        stage = req.probe_stage
        if stage == "gets_owner":
            self._gets_owner_replied(req)
        elif stage == "getx_owner":
            self._getx_owner_replied(req)
        elif stage == "inv_sharers":
            req.pending_acks -= 1
            if req.pending_acks == 0:
                line = req.line
                self._sharers[line] = 0
                self._st[line] = _DU
                self._grant(req, LineState.M, fetch=not req.had_shared)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"probe reply with no stage on {req}")

    # -- grant ---------------------------------------------------------------

    def _grant(self, req: Request, state: LineState, *, fetch: bool) -> None:
        line = req.line
        if state is LineState.M or state is LineState.E:
            # E and M are merged at the directory: one exclusive owner.
            self._st[line] = _DM
            self._owner[line] = req.core_id
            self._sharers[line] = 0
        else:
            self._st[line] = _DS
            self._owner[line] = -1
            self._sharers[line] |= 1 << req.core_id
        # L1 tags update now so directory and caches never disagree...
        unit = self.mem_units[req.core_id]
        unit.fill_granted(req, state)
        self.trace.req_granted(req.core_id, line, state.name, fetch)
        # ...but the thread resumes when the data message arrives.  The
        # fetch goes through the network's grant seam: a pure delay on the
        # contention-free model (the scheduled event is exactly the send
        # this code used to schedule itself), a serialized memory-port
        # occupancy on a contended one.
        lat = self.l2.fetch_latency(line) if fetch else 0
        kind = MessageKind.ACK if req.had_shared else MessageKind.DATA
        self.network.grant_delivery(line % self._ntiles, req.core_id, kind,
                                    lat, unit.complete_request, req)
        self._finish(line)

    # -- warm allocation -------------------------------------------------------

    def preinstall_owned(self, line: int, core_id: int) -> None:
        """Install a *fresh* line directly into ``core_id``'s L1 in M state
        (no traffic).  Models a freshly allocated object that the allocating
        core's local pool already holds.  Only valid for lines that have
        never entered coherence circulation."""
        self._ensure(line)
        if self._busy[line] or self._queues.get(line) \
                or self._st[line] != _DU:
            raise ProtocolError(
                f"preinstall_owned on circulating line {line}")
        self._st[line] = _DM
        self._owner[line] = core_id
        unit = self.mem_units[core_id]
        victim = unit.l1.fill(line, LineState.M)
        if victim is not None:
            vline, vstate = victim
            kind = (MessageKind.PUTM if vstate == LineState.M
                    else MessageKind.PUTS)
            self.issue_eviction(kind, vline, core_id)
        self.l2.mark_warm(line)

    # -- checkpointing (repro.state) ----------------------------------------

    def state_dict(self, codec) -> dict:
        """Every line holding non-default state, with its per-line FIFO
        queue.  Sharer sets encode sorted (the codec's canonical set form);
        the queue's Request / _Eviction objects go through the identity
        pool so the same object referenced from the event queue stays the
        same object."""
        entries = []
        for line in range(self._n):
            st = self._st[line]
            owner = self._owner[line]
            mask = self._sharers[line]
            busy = bool(self._busy[line])
            q = self._queues.get(line)
            if not (st or mask or busy or q or owner >= 0):
                continue
            entries.append(
                [line, {"state": DirState(st).name,
                        "owner": None if owner < 0 else owner,
                        "sharers": _mask_to_sorted(mask),
                        "busy": busy,
                        "queue": [codec.encode(r) for r in (q or ())]}])
        return {"entries": entries}

    def load_state(self, state: dict, codec) -> None:
        self._n = 0
        self._st = []
        self._owner = []
        self._sharers = []
        self._busy = bytearray()
        self._queues = {}
        for line, es in state["entries"]:
            self._ensure(line)
            self._st[line] = int(DirState[es["state"]])
            owner = es["owner"]
            self._owner[line] = -1 if owner is None else owner
            mask = 0
            for c in es["sharers"]:
                mask |= 1 << c
            self._sharers[line] = mask
            self._busy[line] = 1 if es["busy"] else 0
            if es["queue"]:
                self._queues[line] = deque(
                    codec.decode(r) for r in es["queue"])

    # -- introspection (used by tests) ----------------------------------------

    def state_of(self, line: int) -> DirState:
        return DirState(self._st[line]) if line < self._n \
            else DirState.UNCACHED

    def owner_of(self, line: int) -> int | None:
        if line >= self._n:
            return None
        o = self._owner[line]
        return None if o < 0 else o

    def sharers_of(self, line: int) -> frozenset[int]:
        mask = self._sharers[line] if line < self._n else 0
        return frozenset(_mask_to_sorted(mask))

    def check_invariants(self) -> None:
        """Assert directory/L1 agreement (exact, thanks to synchronous tag
        updates).  Called by tests after quiescence."""
        for line in range(self._n):
            self.check_line(line)

    def check_line(self, line: int, e: DirEntry | None = None) -> None:
        """Assert directory/L1 agreement for one *settled* line (no busy
        transaction, no in-flight eviction notice).  The continuous
        :class:`~repro.trace.invariants.InvariantTracer` calls this per
        line so it can exclude lines with in-flight activity."""
        st_d = self._st[line] if line < self._n else _DU
        if st_d == _DM:
            owner = self._owner[line]
            if owner < 0:
                raise ProtocolError(f"line {line}: MODIFIED, no owner")
            st = self.mem_units[owner].l1.state_of(line)
            if st != LineState.M and st != LineState.E:
                raise ProtocolError(
                    f"line {line}: dir says owner {owner} but L1 is "
                    f"{LineState(st).name}")
            for u in self.mem_units:
                if u.core_id != owner and \
                        u.l1.state_of(line) != LineState.I:
                    raise ProtocolError(
                        f"line {line}: core {u.core_id} holds "
                        f"{LineState(u.l1.state_of(line)).name} "
                        "while MODIFIED")
        elif st_d == _DS:
            mask = self._sharers[line]
            for u in self.mem_units:
                st = u.l1.state_of(line)
                if st == LineState.M or st == LineState.E:
                    raise ProtocolError(
                        f"line {line}: core {u.core_id} holds "
                        f"{LineState(st).name} while dir says SHARED")
                if st == LineState.S and not (mask >> u.core_id) & 1:
                    raise ProtocolError(
                        f"line {line}: core {u.core_id} holds S but is "
                        "not a recorded sharer")
        else:
            for u in self.mem_units:
                if u.l1.state_of(line) != LineState.I:
                    raise ProtocolError(
                        f"line {line}: core {u.core_id} holds "
                        f"{LineState(u.l1.state_of(line)).name} "
                        "while UNCACHED")
