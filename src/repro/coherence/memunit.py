"""Per-core memory unit: L1 access path, probe handling, lease hooks.

This is the component the paper modifies ("we extended the L1 cache
controller logic (at the cores) to implement memory leases. As such, the
directory did not have to be modified in any way").  The baseline access
path is a plain MSI L1 controller; the lease extension intercepts incoming
probes via the attached :class:`~repro.lease.manager.LeaseManager`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..config import MachineConfig
from ..engine import Simulator
from ..errors import ProtocolError
from ..mem import AddressMap
from ..trace import TraceBus
from .cache import L1Cache
from .directory import Directory, Request
from .messages import MessageKind
from .states import LineState

if TYPE_CHECKING:  # pragma: no cover
    from ..lease.manager import LeaseManager


class Probe:
    """An invalidate/downgrade probe delivered to a core.

    A pure data descriptor: the probed core answers through
    :meth:`~repro.coherence.directory.Directory.probe_reply` (exactly once,
    when it actually services the probe, possibly after a lease delay),
    which routes the DATA/ACK back to the home tile of ``req``'s line.
    """

    __slots__ = ("line", "kind", "requester_is_lease", "req", "target_core")

    def __init__(self, line: int, kind: MessageKind,
                 requester_is_lease: bool, req: Request,
                 target_core: int) -> None:
        self.line = line
        self.kind = kind
        self.requester_is_lease = requester_is_lease
        self.req = req
        self.target_core = target_core

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Probe {self.kind.value} line={self.line}>"


class _Outstanding:
    """The core's single in-flight coherence request."""

    __slots__ = ("req", "granted", "deferred_probe", "callback")

    def __init__(self, req: Request, callback: Callable[[], None]) -> None:
        self.req = req
        self.granted = False
        self.deferred_probe: Probe | None = None
        self.callback = callback


_LI = int(LineState.I)
_LS = int(LineState.S)
_LE = int(LineState.E)
_LM = int(LineState.M)


class MemUnit:
    """L1 controller for one core."""

    __slots__ = ("core_id", "config", "amap", "directory", "sim", "trace",
                 "l1", "lease_mgr", "_outstanding", "_line_shift",
                 "_l1_latency")

    def __init__(self, core_id: int, config: MachineConfig,
                 amap: AddressMap, directory: Directory,
                 sim: Simulator, trace: TraceBus) -> None:
        self.core_id = core_id
        self.config = config
        self.amap = amap
        self.directory = directory
        self.sim = sim
        self.trace = trace
        self.l1 = L1Cache(config.l1_num_sets, config.l1_assoc, trace,
                          core_id)
        #: Attached by the Machine after construction.
        self.lease_mgr: "LeaseManager | None" = None
        self._outstanding: _Outstanding | None = None
        # Hot-path constants (the access path runs once per instruction).
        self._line_shift = config.line_size.bit_length() - 1
        self._l1_latency = config.l1_latency

    # -- the access path --------------------------------------------------

    def access(self, need_exclusive: bool, addr: int, *, is_lease: bool,
               callback: Callable[[], None]) -> None:
        """Bring the line of ``addr`` into S (read) or M (exclusive) state
        and invoke ``callback`` when the access may commit.

        The callback fires at least ``l1_latency`` cycles in the future
        (never synchronously), so callers cannot recurse unboundedly.
        """
        if self._outstanding is not None:
            raise ProtocolError(
                f"core {self.core_id}: second outstanding access (in-order "
                "cores have exactly one)")
        line = addr >> self._line_shift
        l1 = self.l1
        st = l1.state_of(line)
        if st >= _LE or (st == _LS and not need_exclusive):
            if need_exclusive and st == _LE:
                # MESI silent upgrade: first write to an exclusive-clean
                # line dirties it without any coherence traffic.
                l1.set_state(line, LineState.M)
                self.trace.mesi_upgrade(self.core_id, line)
            self.trace.l1_hit(self.core_id, line)
            l1.touch(line)
            sim = self.sim
            sim.queue.schedule(sim.now + self._l1_latency, callback)
            return
        self.trace.l1_miss(self.core_id, line)
        kind = MessageKind.GETX if need_exclusive else MessageKind.GETS
        req = Request(kind, line, self.core_id, is_lease, callback)
        self._outstanding = _Outstanding(req, callback)
        self.directory.issue(req)

    # -- grant path (called by the directory) --------------------------------

    def fill_granted(self, req: Request, state: LineState) -> None:
        """Synchronous L1 tag update at directory grant time."""
        out = self._outstanding
        if out is None or out.req is not req:
            raise ProtocolError(
                f"core {self.core_id}: grant for unknown request {req}")
        victim = self.l1.fill(req.line, state)
        if victim is not None:
            vline, vstate = victim
            kind = (MessageKind.PUTM if vstate == LineState.M
                    else MessageKind.PUTS)
            self.directory.issue_eviction(kind, vline, self.core_id)
        out.granted = True

    def complete_request(self, req: Request) -> None:
        """Data message arrived: commit the waiting access, then service any
        probe that landed between grant and completion."""
        out = self._outstanding
        if out is None or out.req is not req:
            raise ProtocolError(
                f"core {self.core_id}: completion for unknown request {req}")
        self._outstanding = None
        probe = out.deferred_probe
        out.callback()
        if probe is not None:
            self._route_probe(probe)

    # -- probe path ----------------------------------------------------------

    def handle_probe(self, probe: Probe) -> None:
        """A probe arrived from the directory."""
        out = self._outstanding
        if out is not None and out.req.line == probe.line and out.granted:
            # Ownership was granted but the waiting access has not committed
            # yet; a real core completes that access before the probe.
            if out.deferred_probe is not None:
                raise ProtocolError(
                    f"core {self.core_id}: two probes deferred on line "
                    f"{probe.line}")
            out.deferred_probe = probe
            self.trace.probe_deferred(self.core_id, probe.line)
            return
        self._route_probe(probe)

    def _route_probe(self, probe: Probe) -> None:
        """Consult the lease table, then either queue or apply the probe."""
        if self.lease_mgr is not None and self.lease_mgr.try_queue_probe(probe):
            return
        self.apply_probe(probe)

    def apply_probe(self, probe: Probe) -> None:
        """Service a probe now: downgrade/invalidate the L1 line, reply."""
        st = self.l1.state_of(probe.line)
        if st == _LI:
            self.trace.probe_serviced(self.core_id, probe.line,
                                      probe.kind.val, stale=True,
                                      data=False)
            self.directory.probe_reply(probe, False)
            return
        if probe.kind is MessageKind.INV:
            self.l1.invalidate(probe.line)
            # Only a dirty line's ack carries data back home.
            self.trace.probe_serviced(self.core_id, probe.line,
                                      probe.kind.val, stale=False,
                                      data=st == _LM)
            self.directory.probe_reply(probe, st == _LM)
        elif probe.kind is MessageKind.DOWNGRADE:
            if st >= _LE:
                self.l1.set_state(probe.line, LineState.S)
                self.trace.probe_serviced(self.core_id, probe.line,
                                          probe.kind.val, stale=False,
                                          data=st == _LM)
                self.directory.probe_reply(probe, st == _LM)
            else:
                self.trace.probe_serviced(self.core_id, probe.line,
                                          probe.kind.val, stale=True,
                                          data=False)
                self.directory.probe_reply(probe, False)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unexpected probe kind {probe.kind}")

    # -- checkpointing (repro.state) ----------------------------------------

    def state_dict(self, codec) -> dict:
        """The outstanding slot (pooled: its Request is shared with the
        directory) -- the L1 serializes separately."""
        return {"outstanding": codec.encode(self._outstanding),
                "l1": self.l1.state_dict()}

    def load_state(self, state: dict, codec) -> None:
        self._outstanding = codec.decode(state["outstanding"])
        self.l1.load_state(state["l1"])

    # -- introspection -------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._outstanding is not None

    @property
    def deferred_probe_line(self) -> int | None:
        """Line of the probe deferred behind the outstanding access, if any
        (used by the continuous invariant checker for Proposition 1)."""
        out = self._outstanding
        if out is not None and out.deferred_probe is not None:
            return out.deferred_probe.line
        return None
