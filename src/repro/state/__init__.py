"""Versioned checkpoint/restore for the whole simulated machine.

Every stateful component exposes ``state_dict()`` / ``load_state()``;
:class:`~repro.state.codec.SnapshotCodec` turns the object graph --
in-flight requests, probes, lease entries, scheduled events, bound-method
continuations -- into a JSON-safe tree and back, preserving object
*identity* (the lease bookkeeping removes entries by identity, so a
restore that duplicated a shared ``LeaseEntry`` would corrupt it).

The on-disk container is the ``repro-ckpt/1`` format
(:mod:`repro.state.checkpoint`): the state tree plus the full machine
config, fault spec and builder descriptor, with a hard refusal to restore
into a machine built differently.  :mod:`repro.state.hooks` is the small
seam the CLI uses to thread periodic checkpointing / resume / warm-start
through the workload drivers without changing their signatures; the
same :class:`CheckpointPolicy` serves a machine and a cluster.
"""

from .codec import SnapshotCodec, encode_rng, decode_rng
from .checkpoint import (CKPT_FORMAT, CKPT_SCHEMA, save_checkpoint,
                         load_checkpoint, restore_checkpoint,
                         verify_compatible, checkpoint_cell_key)
from .periodic import CheckpointPolicy, run_sliced

__all__ = ["SnapshotCodec", "encode_rng", "decode_rng", "CKPT_FORMAT",
           "CKPT_SCHEMA", "save_checkpoint", "load_checkpoint",
           "restore_checkpoint", "verify_compatible",
           "checkpoint_cell_key", "CheckpointPolicy", "run_sliced"]
