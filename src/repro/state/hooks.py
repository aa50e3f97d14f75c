"""Run-hook seam between the CLI and the workload drivers.

The drivers in :mod:`repro.workloads.driver` build a machine, add threads
and call ``machine.run()``.  Checkpointing (periodic saves, resume,
warm-start) needs to wrap that run without changing thirteen driver
signatures, so the drivers consult this module: when :data:`run_hook` is
set, they call ``run_hook(machine)`` instead of ``machine.run()``.
``bench_cluster`` passes the whole ``Cluster`` the same way.  The CLI's
:class:`~repro.state.periodic.CheckpointPolicy` and the identity harness
(:mod:`repro.check.identity`) hook both kinds of owner.

:data:`cell` is set by the sweep harness just before each cell runs and
describes *which* bench/variant/thread-count is executing -- the hook uses
it to name checkpoints and to match warm-start candidates (configs alone
cannot distinguish two variants that differ only in workload kwargs).

Both globals are process-local and default to ``None``/off; parallel
sweeps (``jobs > 1``) run cells in worker processes where the hook is
never installed, so checkpointed runs must be serial (the CLI enforces
this).
"""

from __future__ import annotations

from typing import Callable, Optional

#: When set, drivers call ``run_hook(owner)`` instead of ``owner.run()``.
run_hook: Optional[Callable] = None

#: Descriptor of the sweep cell currently executing:
#: ``{"bench": name, "num_threads": n, "kwargs": {...}}`` or None.
cell: Optional[dict] = None
