"""Periodic checkpointing / resume / warm-start as a driver run-hook.

:class:`CheckpointPolicy` implements the CLI's ``--checkpoint-every N``,
``--resume CKPT`` and ``--warm-start`` flags.  The CLI installs one
instance as :data:`repro.state.hooks.run_hook` for the duration of a
sweep; every workload driver then routes its run through
:meth:`CheckpointPolicy.__call__` with the owner it built -- a
:class:`~repro.core.machine.Machine`, or the whole
:class:`~repro.cluster.Cluster` for a cluster experiment -- which

1. restores the owner from ``--resume``'s document when it matches the
   current cell (a hard :class:`~repro.errors.CheckpointMismatch` from a
   different *schema* still propagates; a different config/cell just means
   "not this cell" in a multi-cell sweep and is skipped -- the CLI errors
   out if no cell consumed the resume file),
2. otherwise, under ``--warm-start``, scans the checkpoint directory for
   the newest checkpoint whose filename key matches this exact
   (config, cell) pair and restores it, so re-running a sweep resumes
   every cell from its last saved prefix instead of cycle 0, and
3. runs the owner in ``--checkpoint-every``-cycle slices
   (:func:`run_sliced`), saving a ``repro-ckpt/1`` file after each slice.

Checkpoint filenames are ``ckpt_<key>_c<cycle>.json`` where ``<key>`` is
:func:`~repro.state.checkpoint.checkpoint_cell_key` -- a hash of the
owner's config plus the sweep-cell descriptor, so two cells never read
each other's files and a config change orphans (rather than corrupts)
old checkpoints.
"""

from __future__ import annotations

import os
import re
from typing import TYPE_CHECKING, Callable, Optional

from ..errors import CheckpointError, CheckpointMismatch
from .checkpoint import (CKPT_SCHEMA, checkpoint_cell_key, load_checkpoint,
                         restore_checkpoint, save_checkpoint)

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import Cluster
    from ..core.machine import Machine

__all__ = ["CheckpointPolicy", "run_sliced"]


def run_sliced(owner: "Machine | Cluster", every: Optional[int],
               save: Callable[[], None]) -> None:
    """Run ``owner`` to the end.  With ``every``, record its resume log
    and run it in ``every``-cycle slices, calling ``save()`` after each
    slice that leaves work to do: one that ends neither quiescent nor
    with nothing left queued.  The one loop that cuts runs, for the
    CLI's periodic checkpoints and the shrinker's prefix checkpoints
    alike."""
    sim = owner.sim
    if every:
        owner.enable_checkpointing()    # a no-op on a restored owner
    while every and not sim.quiescent():
        owner.run(until=sim.now + every)
        if sim.quiescent() or sim.queue.peek_time() is None:
            break
        save()
    owner.run()    # the rest: all of it without ``every``


class CheckpointPolicy:
    """Run-hook that slices an owner's run into checkpointed segments
    and restores from resume/warm-start documents.  One instance serves a
    whole sweep; it accumulates what it saved and restored for the CLI's
    summary."""

    def __init__(self, *, every: Optional[int] = None,
                 directory: str = "checkpoints",
                 resume_path: Optional[str] = None,
                 warm_start: bool = False) -> None:
        if every is not None and every <= 0:
            raise CheckpointError(
                f"checkpoint interval must be positive, got {every}")
        self.every = every
        self.directory = directory
        self.resume_path = resume_path
        self.resume_doc = (load_checkpoint(resume_path)
                          if resume_path is not None else None)
        self.warm_start = warm_start
        #: checkpoint files written, in order.
        self.saved: list[str] = []
        #: (label, cycle) for every successful restore.
        self.restored: list[tuple[str, int]] = []
        #: whether some cell consumed the --resume document.
        self.resume_consumed = False
        #: the last config/cell mismatch message, for the CLI's hard
        #: refusal when --resume matched no cell at all.
        self.last_mismatch: Optional[str] = None

    # -- the run hook --------------------------------------------------------

    def __call__(self, owner: "Machine | Cluster") -> None:
        from . import hooks

        cell = hooks.cell
        if not self._try_resume(owner, cell) and self.warm_start:
            self._try_warm_start(owner, cell)

        def save() -> None:
            key = checkpoint_cell_key(owner.config, cell)
            path = os.path.join(self.directory,
                                f"ckpt_{key}_c{owner.now}.json")
            save_checkpoint(owner, path, cell=cell)
            self.saved.append(path)

        run_sliced(owner, self.every, save)

    # -- restore sources -----------------------------------------------------

    def _try_resume(self, owner: "Machine | Cluster",
                    cell: Optional[dict]) -> bool:
        if self.resume_doc is None or self.resume_consumed:
            return False
        doc = self.resume_doc
        try:
            cycle = restore_checkpoint(owner, doc, cell=cell)
        except CheckpointMismatch as err:
            if doc.get("schema") != CKPT_SCHEMA:
                raise    # a wrong-schema file can never match a later cell
            # In a multi-cell sweep only one cell matches the resume
            # file; the others run from scratch.  The CLI raises if the
            # sweep finishes without any cell consuming the document.
            self.last_mismatch = str(err)
            return False
        self.resume_consumed = True
        self.restored.append((self.resume_path or "<resume>", cycle))
        return True

    def _try_warm_start(self, owner: "Machine | Cluster",
                        cell: Optional[dict]) -> bool:
        found = self._newest_for(owner, cell)
        if found is None:
            return False
        path, doc = found
        try:
            cycle = restore_checkpoint(owner, doc, cell=cell)
        except CheckpointMismatch as err:
            # A stale file whose name key collides but whose content
            # disagrees: warm start is opportunistic, so skip it.
            self.last_mismatch = str(err)
            return False
        self.restored.append((path, cycle))
        return True

    def _newest_for(self, owner: "Machine | Cluster", cell: Optional[dict]
                    ) -> Optional[tuple[str, dict]]:
        """The highest-cycle checkpoint file named for this exact
        (config, cell) key, or None."""
        key = checkpoint_cell_key(owner.config, cell)
        pattern = re.compile(rf"ckpt_{re.escape(key)}_c(\d+)\.json$")
        try:
            names = os.listdir(self.directory)
        except OSError:
            return None
        best: Optional[tuple[int, str]] = None
        for name in names:
            m = pattern.fullmatch(name)
            if m is not None:
                cycle = int(m.group(1))
                if best is None or cycle > best[0]:
                    best = (cycle, name)
        if best is None:
            return None
        path = os.path.join(self.directory, best[1])
        return path, load_checkpoint(path)
