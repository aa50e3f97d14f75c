"""The instrumentation bus: one ``emit`` seam, pluggable sinks.

Every layer of the machine (engine, coherence, leases, sync, workloads)
reports what it does through the machine's :class:`TraceBus`.  What
happens to an event is entirely a property of the attached sinks:

* :class:`~repro.trace.sinks.CountersTracer` -- the default; rebuilds the
  classic :class:`~repro.stats.Counters` so reports keep working;
* :class:`~repro.trace.sinks.JsonlTracer` / ``RingBufferTracer`` -- raw
  event capture for offline analysis;
* :class:`~repro.trace.sinks.ContentionHeatmap` -- per-line queue-depth /
  deferral histograms;
* :class:`~repro.trace.invariants.InvariantTracer` -- protocol checking.

Observation must never perturb the simulation: sinks only read machine
state, never schedule events or mutate it, so a run's ``RunResult`` is
bit-identical whatever sinks are attached (the test suite asserts this).

Emit slots
----------

Constructing a :class:`~repro.trace.events.TraceEvent` object per
observable action is pure overhead when nothing attached wants the
object -- and the default configuration (a lone ``CountersTracer``) only
ever folds events into flat integer counters.  The bus therefore exposes
one *pre-bound emit slot per event type*, named after the type's ``kind``
string and taking its payload fields in slot order, as the type's
generated constructor does::

    trace.l1_hit(core, line)          # instead of emit(L1Hit(core, line))
    trace.message(src, dst, msg, hops, data)

The types are :data:`~repro.trace.events.EVENT_TYPES`, which every event
class joins, in definition order, when it is defined.

Each slot is rebuilt whenever the sink set changes, to the cheapest
implementation the attached sinks allow:

* **no consumer** for that type -> a no-op (the call site pays one
  attribute lookup and an empty call, nothing else);
* **fast handlers only** (every interested sink consumes the payload
  directly, e.g. ``CountersTracer``) -> the payload-level handler(s),
  with no event object, no clock stamp, no fan-out loop;
* **any sink that needs the object** (JSONL/ring capture, invariant
  checker, history recorder, any sink whose :meth:`Tracer.interests`
  is ``None``) -> construct the event once and :meth:`TraceBus.emit` it
  to every sink in attachment order.  A sink with a fast handler for
  that type then gets the object in ``on_event`` and must fold it the
  same way (``CountersTracer`` passes the event's slots to the very same
  handler), so results are bit-identical whichever sinks are attached.

``wants(EventType)`` tells an emitting layer whether anything would
receive the constructed object -- the guard to use before computing an
expensive payload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Collection, Iterable, Mapping

from ..errors import CheckpointMismatch
from .events import EVENT_TYPES, TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from ..core.machine import Machine


class Tracer:
    """Sink interface.  Subclass and override :meth:`on_event`.

    ``bind(machine)`` is called when the sink is attached via
    :meth:`Machine.attach_tracer`, giving sinks that need machine state
    (invariant checker, heatmap label resolution) a reference; the default
    is a no-op so simple sinks ignore it.

    ``interests()`` declares which event types the sink consumes *as
    objects*: ``None`` (the default) means every type, an explicit
    collection restricts delivery to those types and lets the bus keep
    every other type on the allocation-free fast path.  ``fast_handlers()``
    goes further: a sink may provide payload-level callables (same
    signature as the event constructor, minus ``self``) for types it can
    consume without the object at all.
    """

    def on_event(self, ev: TraceEvent) -> None:
        raise NotImplementedError

    def bind(self, machine: "Machine") -> None:
        pass

    def interests(self) -> Collection[type] | None:
        """Event types this sink consumes (None = all types)."""
        return None

    def fast_handlers(self) -> Mapping[type, Callable[..., None]]:
        """Payload-level handlers for types consumable without an event
        object.  A covered type reaches ``on_event`` only when another
        attached sink needs its objects."""
        return {}

    def tagged(self, **fields) -> "Tracer":
        """The sink to attach where every event carries ``fields`` too
        (one node's bus in a cluster: ``node=n``).  Sinks that write
        records add them; the default ignores them and returns ``self``."""
        return self


class NullTracer(Tracer):
    """A sink that drops everything (for machines that need no accounting
    at all, and as the do-nothing default for standalone components)."""

    def on_event(self, ev: TraceEvent) -> None:
        pass

    def interests(self) -> Collection[type]:
        return ()


def _noop(*_args, **_kw) -> None:
    pass


class TraceBus:
    """Fan-out point between instrumented code and the attached sinks.

    ``emit`` stamps each event with the current simulation cycle (via the
    ``clock`` callable) and forwards it to every sink in attachment order.
    The per-type slots (``trace.l1_hit(...)``, ``trace.message(...)``,
    one per ``kind`` in the taxonomy) are the hot-path seam; see the
    module docstring.
    """

    def __init__(self, clock: Callable[[], int] | None = None,
                 sinks: Iterable[Tracer] = ()) -> None:
        self.clock = clock or (lambda: 0)
        self._sinks: list[Tracer] = list(sinks)
        self._muted = False
        self._obj_types: frozenset[type] = frozenset()
        self._rebuild_slots()

    # -- sink management -----------------------------------------------------

    def attach(self, sink: Tracer) -> Tracer:
        """Add ``sink`` to the fan-out list; returns it for chaining."""
        self._sinks.append(sink)
        self._rebuild_slots()
        return sink

    def detach(self, sink: Tracer) -> None:
        """Remove ``sink``; detaching an unattached sink is a no-op."""
        if sink in self._sinks:
            self._sinks.remove(sink)
            self._rebuild_slots()

    @property
    def sinks(self) -> tuple[Tracer, ...]:
        return tuple(self._sinks)

    def wants(self, event_type: type) -> bool:
        """True when some attached sink would receive a constructed
        ``event_type`` object -- the guard for call sites whose payload is
        expensive to build."""
        return event_type in self._obj_types

    # -- muting (checkpoint restore) -----------------------------------------

    def mute(self) -> None:
        """Silence the bus entirely: every per-type slot and ``emit``
        become no-ops.  Used while a checkpoint restore replays the resume
        log -- the replayed thread bodies re-emit events the sinks already
        counted the first time around (sink state is installed from the
        snapshot afterwards)."""
        self._muted = True
        self._rebuild_slots()

    def unmute(self) -> None:
        """Restore normal delivery after :meth:`mute`."""
        self._muted = False
        self._rebuild_slots()

    @property
    def muted(self) -> bool:
        return self._muted

    # -- checkpointing (repro.state) -----------------------------------------

    def sinks_state(self, codec) -> list:
        """Each attached sink as ``[class name, state]``, in attachment
        order; a sink without ``state_dict`` saves None."""
        return [[type(s).__name__,
                 s.state_dict(codec) if hasattr(s, "state_dict") else None]
                for s in self._sinks]

    def load_sinks_state(self, saved: list, codec) -> None:
        """Install :meth:`sinks_state` into this bus's sinks, refusing
        (:class:`~repro.errors.CheckpointMismatch`) a different sink set."""
        if len(saved) != len(self._sinks):
            raise CheckpointMismatch(
                f"checkpoint has {len(saved)} trace sinks, the bus has "
                f"{len(self._sinks)}")
        for sink, (cls_name, state) in zip(self._sinks, saved):
            if type(sink).__name__ != cls_name:
                raise CheckpointMismatch(
                    f"trace sink mismatch: checkpoint saved {cls_name}, "
                    f"the bus has {type(sink).__name__}")
            if state is not None and hasattr(sink, "load_state"):
                sink.load_state(state, codec)

    # -- slot construction ---------------------------------------------------

    def _make_slow_slot(self, cls: type) -> Callable[..., None]:
        def slot(*args, **kw) -> None:
            self.emit(cls(*args, **kw))
        return slot

    @staticmethod
    def _make_fanout_slot(fns: list) -> Callable[..., None]:
        def slot(*args, **kw) -> None:
            for fn in fns:
                fn(*args, **kw)
        return slot

    def _rebuild_slots(self) -> None:
        """Re-derive one emit slot per event type from the attached sinks.
        Runs on attach/detach/mute only -- never on the hot path."""
        if self._muted:
            for cls in EVENT_TYPES:
                setattr(self, cls.kind, _noop)
            self._obj_types = frozenset()
            return
        per_sink = [(s.fast_handlers(), s.interests()) for s in self._sinks]
        obj_types = set()
        for cls in EVENT_TYPES:
            fast = []
            needs_obj = False
            for handlers, interests in per_sink:
                fn = handlers.get(cls)
                if fn is not None:
                    fast.append(fn)
                elif interests is None or cls in interests:
                    needs_obj = True
            if needs_obj:
                # At least one sink needs the object: construct it once and
                # fan out through emit() to *every* sink in attachment
                # order, exactly as before the fast path existed.
                obj_types.add(cls)
                slot = self._make_slow_slot(cls)
            elif len(fast) == 1:
                slot = fast[0]
            elif fast:
                slot = self._make_fanout_slot(fast)
            else:
                slot = _noop
            setattr(self, cls.kind, slot)
        self._obj_types = frozenset(obj_types)

    # -- the seam ------------------------------------------------------------

    def emit(self, ev: TraceEvent) -> None:
        """Stamp ``ev`` with the current cycle and deliver it to every
        attached sink."""
        sinks = self._sinks
        if not sinks or self._muted:
            return
        ev.t = self.clock()
        for sink in sinks:
            sink.on_event(ev)
