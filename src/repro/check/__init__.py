"""repro.check: schedule exploration + linearizability checking.

The simulator is deterministic by default -- great for reproducibility,
terrible for finding ordering bugs: one run explores exactly one schedule.
This package closes that gap:

* :mod:`~repro.check.perturb` -- seeded strategies that reorder
  same-timestamp events (random jitter, PCT-style priorities, exact
  replay) through the engine's ``ScheduleStrategy`` hook;
* :mod:`~repro.check.history` -- per-thread operation histories recorded
  from the trace bus;
* :mod:`~repro.check.models` / :mod:`~repro.check.linearize` -- sequential
  models and a Wing&Gong-style linearizability checker;
* :mod:`~repro.check.properties` -- lease-specific properties (the
  Proposition 1 deferral bound, MultiLease address order);
* :mod:`~repro.check.campaign` -- the fuzzing driver behind
  ``python -m repro check``, and its table targets: explore schedules
  under a budget, shrink a failing schedule with ddmin, write a
  replayable repro file, and replay every repro format;
* :mod:`~repro.check.cluster` -- the cluster target the same campaign
  code runs for ``python -m repro check cluster_lease``: PaxosLease
  safety (at most one holder per object) fuzzed under message loss,
  duplication, partitions and timer skew;
* :mod:`~repro.check.identity` -- ``python -m repro check identity``:
  checkpoint restore, ``network=infinite``, cluster state roundtrips and
  ``--jobs`` must leave every experiment arm's results unchanged.
"""

from .campaign import (CampaignReport, CheckTarget, EXPERIMENT_ALIASES,
                       RunOutcome, TARGETS, Trial, load_repro, replay_repro,
                       resolve_target, run_campaign, run_once,
                       shrink_failure)
from .cluster import (CLUSTER_REPRO_FORMAT, CLUSTER_SPEC_GRID, NODE_GRID,
                      ClusterTarget, cluster_config_for)
from .history import HistoryRecorder, OpRecord
from .linearize import LinearizationResult, check_history
from .models import (CounterModel, ModelError, PQModel, QueueModel, SetModel,
                     StackModel)
from .perturb import (PctStrategy, RandomStrategy, ReplayStrategy,
                      ScheduleStrategy, owner_core, strategy_for_schedule)
from .properties import (ClusterLeaseSafetyTracer, LeasePropertyTracer,
                         PropertyViolation)

__all__ = [
    "CampaignReport", "CheckTarget", "EXPERIMENT_ALIASES", "RunOutcome",
    "TARGETS", "Trial", "load_repro", "replay_repro", "resolve_target",
    "run_campaign", "run_once", "shrink_failure",
    "HistoryRecorder", "OpRecord",
    "LinearizationResult", "check_history",
    "CounterModel", "ModelError", "PQModel", "QueueModel", "SetModel",
    "StackModel",
    "PctStrategy", "RandomStrategy", "ReplayStrategy", "ScheduleStrategy",
    "owner_core", "strategy_for_schedule",
    "LeasePropertyTracer", "PropertyViolation",
    "CLUSTER_REPRO_FORMAT", "CLUSTER_SPEC_GRID", "NODE_GRID",
    "ClusterLeaseSafetyTracer", "ClusterTarget", "cluster_config_for",
]
