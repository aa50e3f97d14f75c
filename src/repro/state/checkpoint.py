"""The ``repro-ckpt/1`` on-disk checkpoint container.

A checkpoint file embeds everything needed to refuse a bad restore:

* ``format`` / ``schema`` -- container and state-tree versions;
* ``config`` -- the full :class:`~repro.config.MachineConfig` (including
  the fault spec and seed) the machine was built with;
* ``cell`` -- an optional builder descriptor (driver name, thread count,
  kwargs) identifying *how* the machine was populated.  Two machines with
  identical configs but different workloads (e.g. the ``base`` and
  ``backoff`` variants of a sweep) are **not** interchangeable: restoring
  replays the resume log into the fresh machine's generators, and a
  different workload would replay the wrong program.  The cell descriptor
  is what catches that.
* ``state`` -- the machine state tree (see :meth:`Machine.state_dict`).

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


def build_document(machine: "Machine", *, cell: dict | None = None) -> dict:
    """Snapshot ``machine`` into a ``repro-ckpt/1`` document."""
    cfg = machine.config
    return {
        "format": CKPT_FORMAT,
        "schema": CKPT_SCHEMA,
        "config": config_fingerprint(cfg),
        "fault_spec": cfg.fault_spec,
        "seed": cfg.seed,
        "cell": cell,
        "cycle": machine.sim.now,
        "state": machine.state_dict(),
    }


def save_checkpoint(machine: "Machine", path: str, *,
                    cell: dict | None = None) -> dict:
    """Write a checkpoint of ``machine`` to ``path``; returns the
    document (whose ``state`` can also be restored in memory)."""
    doc = build_document(machine, cell=cell)
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


def verify_compatible(machine: "Machine", doc: dict, *,
                      cell: dict | None = None) -> None:
    """Refuse (raise :class:`CheckpointMismatch`) unless ``doc`` was taken
    from a machine built exactly like ``machine``."""
    if doc.get("schema") != CKPT_SCHEMA:
        raise CheckpointMismatch(
            f"checkpoint schema {doc.get('schema')!r} != {CKPT_SCHEMA} "
            "(state-tree layout changed; re-record the checkpoint)")
    have = config_fingerprint(machine.config)
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


def restore_checkpoint(machine: "Machine", doc: dict, *,
                       cell: dict | None = None) -> int:
    """Verify compatibility, then restore ``doc`` into ``machine``.
    Returns the checkpoint's cycle."""
    verify_compatible(machine, doc, cell=cell)
    machine.load_state(doc["state"])
    return doc["cycle"]
