"""The ``repro-ckpt/1`` on-disk checkpoint container.

A checkpoint file embeds everything needed to refuse a bad restore:

* ``format`` / ``schema`` -- container and state-tree versions;
* ``config`` -- the full config the owner was built with: a
  :class:`~repro.config.MachineConfig` (including the fault spec and
  seed) for a machine, a :class:`~repro.cluster.ClusterConfig` (with its
  node template) for a cluster;
* ``cell`` -- an optional builder descriptor (driver name, thread count,
  kwargs) identifying *how* the owner was populated.  Two machines with
  identical configs but different workloads (e.g. the ``base`` and
  ``backoff`` variants of a sweep) are **not** interchangeable: restoring
  replays the resume log into the fresh machine's generators, and a
  different workload would replay the wrong program.  The cell descriptor
  is what catches that.
* ``state`` -- the owner's state tree (see :meth:`Machine.state_dict`
  and :meth:`Cluster.state_dict`).

The owner is a :class:`~repro.core.machine.Machine` or a
:class:`~repro.cluster.Cluster`: both have ``config``, ``sim``,
``state_dict`` and ``load_state``.

Restores are all-or-nothing: any mismatch raises
:class:`~repro.errors.CheckpointMismatch` before a single field is
touched.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import TYPE_CHECKING, Any

from ..errors import CheckpointError, CheckpointMismatch

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import Cluster
    from ..core.machine import Machine

#: On-disk container format tag.
CKPT_FORMAT = "repro-ckpt/1"

#: State-tree schema version (bumped when component state shapes change).
CKPT_SCHEMA = 1


def config_fingerprint(config: Any) -> dict:
    """The config as a canonical JSON-safe dict (tuples normalized to
    lists so an in-memory config compares equal to a round-tripped one)."""
    return json.loads(json.dumps(dataclasses.asdict(config), sort_keys=True))


def checkpoint_cell_key(config: Any, cell: dict | None) -> str:
    """Short stable hash naming the (config, cell) a checkpoint belongs
    to -- used for checkpoint filenames and warm-start lookup."""
    blob = json.dumps({"config": config_fingerprint(config),
                       "cell": cell}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def build_document(owner: "Machine | Cluster", *,
                   cell: dict | None = None) -> dict:
    """Snapshot ``owner`` into a ``repro-ckpt/1`` document."""
    cfg = owner.config
    return {
        "format": CKPT_FORMAT,
        "schema": CKPT_SCHEMA,
        "config": config_fingerprint(cfg),
        # A cluster's nodes share the fault spec of its node template.
        "fault_spec": getattr(cfg, "machine", cfg).fault_spec,
        "seed": cfg.seed,
        "cell": cell,
        "cycle": owner.sim.now,
        "state": owner.state_dict(),
    }


def save_checkpoint(owner: "Machine | Cluster", path: str, *,
                    cell: dict | None = None) -> dict:
    """Write a checkpoint of ``owner`` to ``path``; returns the
    document (whose ``state`` can also be restored in memory)."""
    doc = build_document(owner, cell=cell)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)
    return doc


def load_checkpoint(path: str) -> dict:
    """Read and structurally validate a ``repro-ckpt/1`` file."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"{path}: not a checkpoint file ({exc})")
    if not isinstance(doc, dict) or doc.get("format") != CKPT_FORMAT:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format "
            f"{doc.get('format') if isinstance(doc, dict) else None!r} "
            f"(expected {CKPT_FORMAT})")
    for key in ("schema", "config", "cycle", "state"):
        if key not in doc:
            raise CheckpointError(f"{path}: missing checkpoint key {key!r}")
    return doc


def verify_compatible(owner: "Machine | Cluster", doc: dict, *,
                      cell: dict | None = None) -> None:
    """Refuse (raise :class:`CheckpointMismatch`) unless ``doc`` was taken
    from an owner built exactly like ``owner``."""
    if doc.get("schema") != CKPT_SCHEMA:
        raise CheckpointMismatch(
            f"checkpoint schema {doc.get('schema')!r} != {CKPT_SCHEMA} "
            "(state-tree layout changed; re-record the checkpoint)")
    have = config_fingerprint(owner.config)
    if doc["config"] != have:
        diff = sorted(k for k in set(have) | set(doc["config"])
                      if have.get(k) != doc["config"].get(k))
        raise CheckpointMismatch(
            "checkpoint config does not match this machine "
            f"(differs in: {', '.join(diff) or 'structure'}); refusing to "
            "restore")
    if cell is not None and doc.get("cell") is not None \
            and doc["cell"] != cell:
        raise CheckpointMismatch(
            f"checkpoint was taken for cell {doc['cell']!r}, not "
            f"{cell!r}; same config but a different workload cannot be "
            "restored (the resume log would replay the wrong program)")


def restore_checkpoint(owner: "Machine | Cluster", doc: dict, *,
                       cell: dict | None = None) -> int:
    """Verify compatibility, then restore ``doc`` into ``owner``.
    Returns the checkpoint's cycle."""
    verify_compatible(owner, doc, cell=cell)
    owner.load_state(doc["state"])
    return doc["cycle"]
