"""Snapshot codec: the machine's object graph <-> a JSON-safe tree.

Three problems make a naive ``pickle`` unusable here:

1. **Closures.**  Event-queue callbacks and stored continuations are bound
   methods of live components (``core._resume``, ``directory._probe_done``,
   ...).  The codec encodes each as a *function descriptor* -- a stable
   path like ``["lease", 3, "_on_grant"]`` -- resolved against the fresh
   machine at restore time.  Only callables registered for the machine can
   be encoded; anything else is a hard :class:`CheckpointError` rather
   than a silently wrong restore.

2. **Identity.**  In-flight protocol objects are *shared*: the same
   ``Request`` is referenced by a directory queue, the requesting core's
   outstanding slot, and possibly a probe in the event queue; the lease
   manager removes ``LeaseEntry`` objects by identity.  The codec keeps an
   id-keyed pool -- first encounter serializes the object's slots, later
   encounters emit a back-reference -- and restores in two phases (blank
   instances first, fields second) so cycles and shared references
   round-trip exactly.

3. **JSON's type poverty.**  Tuples, sets, enums, and int-keyed dicts do
   not survive ``json.dump``.  Containers are wrapped in small tagged
   lists (``["tuple", [...]]`` etc.); sets serialize *sorted* so the tree
   is canonical.  The same tree therefore works both in memory (shrinker
   prefix checkpoints, warm starts) and on disk (``repro-ckpt/1``).
"""

from __future__ import annotations

import enum
import random
from typing import TYPE_CHECKING, Any

from ..errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.machine import Machine


# ---------------------------------------------------------------------------
# RNG state helpers (used by every component owning a random.Random)
# ---------------------------------------------------------------------------

def encode_rng(rng: random.Random) -> list:
    """``random.Random`` state as a JSON-safe list."""
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def decode_rng(rng: random.Random, data: list) -> None:
    """Restore a state produced by :func:`encode_rng` into ``rng``."""
    version, internal, gauss = data
    rng.setstate((version, tuple(internal), gauss))


# ---------------------------------------------------------------------------
# The codec
# ---------------------------------------------------------------------------

def _pooled_classes() -> dict[str, type]:
    """The classes whose instances are identity-pooled.  Imported lazily:
    the codec sits below every layer it serializes."""
    from ..coherence.directory import Request, _Eviction
    from ..coherence.memunit import Probe, _Outstanding
    from ..lease.manager import _PendingAcquire
    from ..lease.table import LeaseEntry, LeaseGroup

    return {cls.__name__: cls for cls in
            (Request, _Eviction, Probe, _Outstanding, _PendingAcquire,
             LeaseEntry, LeaseGroup)}


def _enum_classes() -> dict[str, type]:
    from ..coherence.messages import MessageKind
    from ..coherence.states import DirState, LineState

    return {cls.__name__: cls for cls in (MessageKind, LineState, DirState)}


#: Core continuations only the removed fast engine's batch-stepped cores
#: ever scheduled; a checkpoint that queued one cannot be restored.
_FAST_ENGINE_FNS = frozenset(("_dispatch_batched", "_retire_batched"))


class SnapshotCodec:
    """One encode/decode session against one machine.

    Build a fresh codec per ``state_dict()`` / ``load_state()`` call: the
    pool and the event map are per-snapshot state.
    """

    def __init__(self, machine: "Machine | None" = None) -> None:
        from ..engine.event_queue import Event

        self._event_cls = Event
        self._pool_classes = _pooled_classes()
        self._enums = _enum_classes()
        # -- identity pool (encode side) --
        self._pool_index: dict[int, int] = {}
        self._pool_fields: list = []
        # -- identity pool (decode side) --
        self._pool_items: list = []
        self._pending_fields: list = []
        #: seq -> queue entry, set once the queue is rebuilt (decode side).
        self._event_map: dict[int, tuple] | None = None
        # -- function-descriptor registry --
        self._fn_by_desc: dict[tuple, Any] = {}
        self._desc_by_key: dict[Any, tuple] = {}
        if machine is not None:
            self.register_machine(machine)

    # -- callable registry ---------------------------------------------------

    @staticmethod
    def _key(fn: Any) -> Any:
        owner = getattr(fn, "__self__", None)
        if owner is not None:
            return (id(owner), fn.__name__)
        return id(fn)

    def _register(self, desc: tuple, fn: Any) -> None:
        self._fn_by_desc[desc] = fn
        self._desc_by_key[self._key(fn)] = desc

    def register_machine(self, machine: "Machine",
                         prefix: tuple = ()) -> None:
        """Register every callable of ``machine`` that can legally appear
        in the event queue or in a stored continuation slot.  ``prefix``
        namespaces the descriptors -- a multi-node cluster registers node
        ``n`` under ``("node", n)`` so descriptors stay unambiguous across
        machines sharing one event queue."""
        p = tuple(prefix)
        for i, core in enumerate(machine.cores):
            for name in ("_resume", "_lease_done"):
                self._register(p + ("core", i, name), getattr(core, name))
            self._register(p + ("core_commit", i), core._commit_cb)
            for name in ("complete_request", "handle_probe"):
                self._register(p + ("memunit", i, name),
                               getattr(core.memunit, name))
            for name in ("_on_grant", "_expire", "_sw_acquire_step"):
                self._register(p + ("lease", i, name),
                               getattr(core.lease_mgr, name))
        d = machine.directory
        for name in ("_arrive", "_process", "_apply_eviction",
                     "_retry_after", "_probe_done", "issue"):
            self._register(p + ("dir", name), getattr(d, name))
        net = machine.network
        self._register(p + ("net", "send"), net.send)
        # Contended-network continuations (repro.coherence.links): the
        # guard keeps the plain MeshNetwork's registry byte-for-byte what
        # it always was, so default-spec checkpoints are unchanged.
        for name in ("grant_delivery", "_service_done", "_retry", "_route",
                     "_enter_port", "_deliver", "_mem_done"):
            if hasattr(net, name):
                self._register(p + ("net", name), getattr(net, name))

    def encode_fn(self, fn: Any) -> list:
        desc = self._desc_by_key.get(self._key(fn))
        if desc is None:
            raise CheckpointError(
                f"cannot checkpoint unregistered callable {fn!r}; every "
                "scheduled continuation must be a registered component "
                "method (see SnapshotCodec.register_machine)")
        return list(desc)

    def decode_fn(self, desc: list) -> Any:
        fn = self._fn_by_desc.get(tuple(desc))
        if fn is None:
            if desc and desc[-1] in _FAST_ENGINE_FNS:
                raise CheckpointError(
                    f"function descriptor {desc!r} was scheduled by the "
                    "removed fast engine's batch-stepped cores; this "
                    "checkpoint cannot be restored (re-record it)")
            raise CheckpointError(f"unknown function descriptor {desc!r}")
        return fn

    # -- values --------------------------------------------------------------

    def encode(self, v: Any) -> Any:
        """Encode an arbitrary (supported) value into the JSON-safe tree."""
        if v is None or type(v) in (bool, int, float, str):
            return v
        t = type(v)
        if t is tuple:
            return ["tuple", [self.encode(x) for x in v]]
        if t is list:
            return ["list", [self.encode(x) for x in v]]
        if t is set or t is frozenset:
            return ["set", [self.encode(x) for x in sorted(v)]]
        if t is dict:
            return ["dict", [[self.encode(k), self.encode(x)]
                             for k, x in v.items()]]
        if isinstance(v, enum.Enum):
            return ["enum", t.__name__, v.name]
        if t is self._event_cls:
            return ["event", v.seq]
        if t.__name__ in self._pool_classes and \
                self._pool_classes[t.__name__] is t:
            return self._pool_ref(v)
        if callable(v):
            return ["fn", self.encode_fn(v)]
        raise CheckpointError(
            f"cannot checkpoint value of type {t.__name__}: {v!r}")

    def decode(self, v: Any) -> Any:
        if not isinstance(v, (list, tuple)):
            return v
        tag = v[0]
        if tag == "tuple":
            return tuple(self.decode(x) for x in v[1])
        if tag == "list":
            return [self.decode(x) for x in v[1]]
        if tag == "set":
            return {self.decode(x) for x in v[1]}
        if tag == "dict":
            return {self.decode(k): self.decode(x) for k, x in v[1]}
        if tag == "enum":
            return self._enums[v[1]][v[2]]
        if tag == "event":
            if self._event_map is None:
                raise CheckpointError(
                    "event reference decoded before the queue was rebuilt")
            return self._event_cls(*self._event_map[v[1]])
        if tag == "obj":
            return self._pool_items[v[1]]
        if tag == "fn":
            return self.decode_fn(v[1])
        raise CheckpointError(f"unknown codec tag {tag!r}")

    # -- the identity pool ---------------------------------------------------

    def _pool_ref(self, v: Any) -> list:
        idx = self._pool_index.get(id(v))
        if idx is None:
            idx = len(self._pool_fields)
            self._pool_index[id(v)] = idx
            # Reserve the slot before recursing: fields may reference this
            # very object (e.g. a Probe whose Request is mid-encode).
            self._pool_fields.append(None)
            cls = type(v)
            self._pool_fields[idx] = [
                cls.__name__,
                [[slot, self.encode(getattr(v, slot))]
                 for slot in cls.__slots__],
            ]
        return ["obj", idx]

    def dump_pool(self) -> list:
        """The encoded pool; store this *after* everything else has been
        encoded (encoding appends entries)."""
        return self._pool_fields

    def load_pool(self, data: list) -> None:
        """Phase 1 of restore: materialize blank instances so references
        can resolve before any field is filled."""
        self._pool_items = []
        self._pending_fields = []
        for cls_name, fields in data:
            cls = self._pool_classes.get(cls_name)
            if cls is None:
                raise CheckpointError(f"unknown pooled class {cls_name!r}")
            self._pool_items.append(object.__new__(cls))
            self._pending_fields.append(fields)

    def set_event_map(self, event_map: dict[int, tuple]) -> None:
        """Install the seq -> entry map of the rebuilt queue (enables
        ``["event", seq]`` decoding into a fresh handle, e.g. lease expiry
        timers)."""
        self._event_map = event_map

    def fill_pool(self) -> None:
        """Phase 2 of restore: decode every pooled object's fields (call
        after :meth:`set_event_map`)."""
        for obj, fields in zip(self._pool_items, self._pending_fields):
            for slot, enc in fields:
                setattr(obj, slot, self.decode(enc))
