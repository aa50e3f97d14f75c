"""Operation histories: the raw material of linearizability checking.

Benchmark workers report every completed operation through
``ctx.note_op(op, args, result, start)``, which emits an
:class:`~repro.trace.events.OpCompleted` event carrying the operation
name, its arguments, the observed result, and the invocation cycle; the
trace bus stamps the response cycle.  :class:`HistoryRecorder` is a plain
trace sink that collects these into :class:`OpRecord` entries -- pure
observation, so attaching it never perturbs the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..errors import SimulationError
from ..trace.bus import Tracer
from ..trace.events import OpCompleted, TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from ..core.machine import Machine

__all__ = ["OpRecord", "HistoryRecorder"]


@dataclass(frozen=True)
class OpRecord:
    """One completed operation: invocation/response interval + outcome."""

    index: int          #: arrival order in the trace stream
    tid: int            #: simulated thread id
    core: int           #: core the thread ran on
    op: str             #: operation name ("push", "delete_min", ...)
    args: tuple         #: operation arguments
    result: Any         #: value the operation returned to the worker
    invoked: int        #: cycle the operation was invoked
    responded: int      #: cycle the operation's response was observed

    def __str__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return (f"t{self.tid} {self.op}({args}) -> {self.result!r} "
                f"@[{self.invoked}, {self.responded}]")


class HistoryRecorder(Tracer):
    """Collects the per-thread operation history of one run.

    Only ``op_completed`` events that carry an operation name contribute;
    bare throughput ticks are ignored.  Records arrive in response order
    (the bus delivers events in emission order), and within one thread the
    intervals are necessarily sequential.
    """

    def __init__(self) -> None:
        self.records: list[OpRecord] = []

    def bind(self, machine: "Machine") -> None:
        self.records = []

    def interests(self):
        """Only ``op_completed`` carries history; every other event type
        stays on the bus's allocation-free fast path during campaigns."""
        return frozenset((OpCompleted,))

    def on_event(self, ev: TraceEvent) -> None:
        if type(ev) is not OpCompleted or ev.op is None:
            return
        if ev.tid is None:
            raise SimulationError(
                "history record without a thread id: emit op histories "
                "via ctx.note_op, not a raw OpCompleted")
        invoked = ev.t if ev.start is None else ev.start
        self.records.append(OpRecord(
            index=len(self.records), tid=ev.tid, core=ev.core, op=ev.op,
            args=tuple(ev.args or ()), result=ev.result,
            invoked=invoked, responded=ev.t))

    # -- checkpointing (repro.state) ----------------------------------------

    def state_dict(self, codec) -> dict:
        return {"records": [
            [r.index, r.tid, r.core, r.op, codec.encode(r.args),
             codec.encode(r.result), r.invoked, r.responded]
            for r in self.records]}

    def load_state(self, state: dict, codec) -> None:
        self.records = [
            OpRecord(index=i, tid=tid, core=core, op=op,
                     args=codec.decode(args), result=codec.decode(result),
                     invoked=inv, responded=resp)
            for i, tid, core, op, args, result, inv, resp
            in state["records"]]

    # -- views ---------------------------------------------------------------

    def per_thread(self) -> dict[int, list[OpRecord]]:
        """Records grouped by thread, in program order."""
        out: dict[int, list[OpRecord]] = {}
        for r in self.records:
            out.setdefault(r.tid, []).append(r)
        return out

    def validate(self) -> None:
        """Sanity-check well-formedness: every interval is ordered and each
        thread's operations are sequential (no overlap within a thread)."""
        last_resp: dict[int, int] = {}
        for r in self.records:
            if r.responded < r.invoked:
                raise SimulationError(f"inverted interval: {r}")
            prev = last_resp.get(r.tid)
            if prev is not None and r.invoked < prev:
                raise SimulationError(
                    f"thread {r.tid} operations overlap: {r} invoked "
                    f"before previous response at {prev}")
            last_resp[r.tid] = r.responded
