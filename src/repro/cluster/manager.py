"""The distributed lease manager: cluster ownership over node-local leases.

One manager per node bridges two lease layers.  The cluster layer
(:mod:`repro.cluster.paxoslease`) decides *which node* owns an object;
the paper's intra-node Lease/Release (:mod:`repro.lease`) then
serializes *cores within that node* on the object's cache lines.  A
node only issues intra-node ``Lease`` on lines it holds the cluster
lease for -- :meth:`lease_guarded` enforces that, refusing the leased
fast path (and emitting ``cluster_guard_denied``) when the cluster lease
lapsed under the worker.

Checkpoint contract: worker generators call into this manager *between*
yields, so its reads of live agent state go through
:meth:`~repro.core.machine.Machine.recorded`, as ``Ctx``'s allocations
do.  Each poll of the cluster-lease state is a ``cpoll`` entry of the
resume log and each guard decision a ``cguard`` entry; during a restore
the recorded outcomes are replayed instead, and the ``request``/``stop``
side effects are skipped while the machine is ``replaying`` -- the
agents' real state is installed from the snapshot afterwards.
"""

from __future__ import annotations

from typing import Generator

from ..core.isa import Lease, Work
from .paxoslease import PaxosAgent

__all__ = ["DistributedLeaseManager"]

#: Cycles a worker sleeps between cluster-lease polls while blocked in
#: :meth:`DistributedLeaseManager.acquire`.
POLL_CYCLES = 120


class DistributedLeaseManager:
    """Per-node façade the workloads talk to."""

    def __init__(self, node: int, machine, agent: PaxosAgent,
                 trace) -> None:
        self.node = node
        self._machine = machine
        self._agent = agent
        self._trace = trace
        self.poll_cycles = POLL_CYCLES

    def holds(self, obj: int) -> bool:
        """True while this node's cluster lease on ``obj`` is unexpired."""
        return self._agent.holding(obj)

    def acquire(self, ctx, obj: int) -> Generator:
        """Block (spin in simulated time) until this node holds the
        cluster lease on ``obj``.  Registers one unit of interest; pair
        with :meth:`release`.  Use as ``yield from mgr.acquire(ctx, obj)``.
        """
        m = self._machine
        if not m.replaying:
            # On replay the interest is in the snapshotted agent state.
            self._agent.request(obj)
        # The cursor must be re-read on every iteration: a checkpoint can
        # cut this loop mid-poll, in which case the restore replays the
        # recorded polls and the loop then carries on live -- the replay /
        # live boundary falls between two iterations of this generator.
        # ``recorded`` reads it afresh on each call.
        while not m.recorded("cpoll", ctx.tid, self._agent.holding, obj):
            yield Work(self.poll_cycles)

    def release(self, obj: int) -> None:
        """Drop the interest taken by :meth:`acquire` (plain call, not a
        yield: releasing sends no intra-node traffic)."""
        if not self._machine.replaying:
            self._agent.stop(obj)

    def guard(self, ctx, obj: int) -> bool:
        """Check (and record) whether this node still holds the cluster
        lease on ``obj``.  Workers call this before each operation in a
        burst; a False means the lease expired under them and they must
        re-:meth:`acquire`.  Emits ``cluster_guard_denied`` on denial."""
        ok = self._machine.recorded("cguard", ctx.tid, self._agent.holding,
                                    obj)
        if not ok:
            # A replay reaches this emit too; Cluster.load_state mutes the
            # cluster bus before it replays, so the denial is not recounted.
            self._trace.cluster_guard_denied(self.node, obj)
        return ok

    def lease_guarded(self, ctx, obj: int, addr: int,
                      duration: int) -> Generator:
        """Issue an intra-node ``Lease(addr, duration)`` iff this node
        still holds the cluster lease on ``obj``.  Returns True when the
        lease was issued, False when the guard denied it (the cluster
        lease expired under the worker -- re-acquire and retry).  Use as
        ``ok = yield from mgr.lease_guarded(ctx, obj, addr, t)``."""
        if not self.guard(ctx, obj):
            return False
        yield Lease(addr, duration)
        return True
