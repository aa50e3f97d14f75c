"""Schedule-perturbation strategies.

The event queue orders events by ``(time, pri, seq)``.  A strategy assigns
the ``pri`` component at schedule time -- ``priority(seq, fn, args)`` runs
exactly once per scheduled event -- which reorders *same-timestamp* events
only: the simulation's timing model is untouched, but the
tie-breaking order among simultaneous events -- exactly the freedom a real
machine's arbiters have -- is explored.  Strategies are deterministic
functions of their seed, so any explored schedule can be re-run exactly.

Every recording strategy keeps its nonzero decisions in ``decisions``
(``event seq -> priority``).  That map *is* the schedule: feeding it to
:class:`ReplayStrategy` reproduces the run bit-for-bit, and the campaign
shrinker minimizes a failing run by searching for the smallest decision
subset that still fails (see :mod:`repro.check.campaign`).

Strategies:

* :class:`RandomStrategy` -- seeded random delay: each event is, with some
  probability, pushed behind its same-cycle peers.
* :class:`PctStrategy` -- PCT-style [Burckhardt et al.]: each core gets a
  random scheduling priority, lowered at a few random change points; the
  events a core schedules inherit its priority.
* :class:`ReplayStrategy` -- replays a recorded decision map exactly.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Mapping

from ..engine.event_queue import ScheduleStrategy

__all__ = ["ScheduleStrategy", "RandomStrategy", "PctStrategy",
           "ReplayStrategy", "owner_core", "strategy_for_schedule"]


def owner_core(fn: Callable[..., Any]) -> int | None:
    """Core id that scheduled an event with callback ``fn``, when
    recoverable.

    Most events are continuations bound to a :class:`~repro.core.core.Core`,
    memory unit or lease manager, all of which carry a ``core_id``; events
    owned by shared components (directory, network) return None.
    """
    obj = getattr(fn, "__self__", None)
    return getattr(obj, "core_id", None)


class _Recording(ScheduleStrategy):
    """Base for strategies that record their nonzero decisions."""

    name = "recording"

    def __init__(self) -> None:
        #: event seq -> assigned priority (only nonzero entries).
        self.decisions: dict[int, int] = {}

    def describe(self) -> dict:
        """Metadata for campaign reports / repro files."""
        return {"kind": self.name}

    # -- checkpointing (repro.state) ----------------------------------------
    # state_dict()/load_state() cover *progress* only (recorded decisions,
    # RNG position, change points).  Constructor parameters -- seed, rate,
    # replay map -- are configuration: a restore installs saved progress
    # into a strategy built with the caller's parameters, which is what
    # lets the shrinker resume a prefix under a *smaller* replay map.

    def state_dict(self) -> dict:
        return {"decisions": [[s, p] for s, p in self.decisions.items()]}

    def load_state(self, state: dict) -> None:
        self.decisions = {s: p for s, p in state["decisions"]}


class RandomStrategy(_Recording):
    """Seeded random jitter: with probability ``rate`` an event is assigned
    a random positive priority (1..amplitude), delaying it behind untouched
    (priority-0) events in the same cycle."""

    name = "random"

    def __init__(self, seed: int, *, rate: float = 0.25,
                 amplitude: int = 4) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if amplitude < 1:
            raise ValueError(f"amplitude must be >= 1, got {amplitude}")
        super().__init__()
        self.seed = seed
        self.rate = rate
        self.amplitude = amplitude
        self._rng = random.Random(seed)

    def priority(self, seq: int, fn: Callable[..., Any], args: tuple) -> int:
        if self._rng.random() >= self.rate:
            return 0
        pri = self._rng.randint(1, self.amplitude)
        self.decisions[seq] = pri
        return pri

    def describe(self) -> dict:
        return {"kind": self.name, "seed": self.seed, "rate": self.rate,
                "amplitude": self.amplitude}

    def state_dict(self) -> dict:
        from ..state.codec import encode_rng

        out = super().state_dict()
        out["rng"] = encode_rng(self._rng)
        return out

    def load_state(self, state: dict) -> None:
        from ..state.codec import decode_rng

        super().load_state(state)
        decode_rng(self._rng, state["rng"])


class PctStrategy(_Recording):
    """PCT-style priority scheduling over cores.

    Each core is assigned a random base priority on first sight; all events
    it schedules inherit that priority, so one core's continuations
    systematically overtake another's within a cycle.  At ``depth`` random
    change points (counted in scheduled events over ``horizon``), one core
    is boosted to a priority below every base priority -- the analogue of
    PCT's priority change points, which is what catches bugs needing a
    specific ordering *switch* mid-run.  Events not owned by a core
    (directory/network timers) keep priority 0.
    """

    name = "pct"

    def __init__(self, seed: int, *, depth: int = 3,
                 horizon: int = 4096) -> None:
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        super().__init__()
        self.seed = seed
        self.depth = depth
        self.horizon = horizon
        self._rng = random.Random(seed)
        self._change_points = sorted(
            self._rng.randrange(horizon) for _ in range(depth))
        self._scheduled = 0
        self._core_pri: dict[int, int] = {}
        self._boosts = 0

    def priority(self, seq: int, fn: Callable[..., Any], args: tuple) -> int:
        count = self._scheduled
        self._scheduled += 1
        while self._change_points and count >= self._change_points[0]:
            self._change_points.pop(0)
            if self._core_pri:
                victim = self._rng.choice(sorted(self._core_pri))
                self._boosts += 1
                self._core_pri[victim] = -self._boosts
        core = owner_core(fn)
        if core is None:
            return 0
        pri = self._core_pri.get(core)
        if pri is None:
            pri = self._core_pri[core] = self._rng.randint(1, 8)
        if pri:
            self.decisions[seq] = pri
        return pri

    def describe(self) -> dict:
        return {"kind": self.name, "seed": self.seed, "depth": self.depth,
                "horizon": self.horizon}

    def state_dict(self) -> dict:
        from ..state.codec import encode_rng

        out = super().state_dict()
        out.update({
            "rng": encode_rng(self._rng),
            "change_points": list(self._change_points),
            "scheduled": self._scheduled,
            "core_pri": [[c, p] for c, p in self._core_pri.items()],
            "boosts": self._boosts,
        })
        return out

    def load_state(self, state: dict) -> None:
        from ..state.codec import decode_rng

        super().load_state(state)
        decode_rng(self._rng, state["rng"])
        self._change_points = list(state["change_points"])
        self._scheduled = state["scheduled"]
        self._core_pri = {c: p for c, p in state["core_pri"]}
        self._boosts = state["boosts"]


class ReplayStrategy(_Recording):
    """Replays a recorded ``seq -> priority`` decision map exactly.

    Because priorities are keyed by the queue's insertion counter, applying
    the same map to a fresh run of the same workload reproduces the
    perturbed schedule deterministically -- this is what makes shrunken
    repro files replayable.
    """

    name = "replay"

    def __init__(self, decisions: Mapping[int, int]) -> None:
        super().__init__()
        self._replay = {int(k): int(v) for k, v in decisions.items()}

    def priority(self, seq: int, fn: Callable[..., Any], args: tuple) -> int:
        pri = self._replay.get(seq, 0)
        if pri:
            self.decisions[seq] = pri
        return pri

    def describe(self) -> dict:
        return {"kind": self.name, "n_decisions": len(self._replay)}


def strategy_for_schedule(campaign_seed: int, index: int) -> _Recording:
    """The campaign's schedule generator: schedule ``index`` of a campaign
    deterministically maps to a strategy.  Index 0 is reserved by the
    campaign for the unperturbed baseline; later indices alternate between
    random jitter and PCT with derived seeds."""
    derived = (campaign_seed * 1_000_003 + index * 7_919) & 0x7FFFFFFF
    if index % 2 == 1:
        return RandomStrategy(derived)
    return PctStrategy(derived)
