"""Fault-spec grammar: parse ``--faults`` strings into a frozen spec.

A spec is a ``;``-separated list of fault clauses, each ``name`` or
``name:params`` with ``,``-separated parameters::

    net_jitter:p=0.01,max=200;dir_nack:p=0.005;timer_skew:±8;slow_core:3@10x

Clauses
-------

``net_jitter:p=<prob>,max=<cycles>``
    Each network message independently suffers an extra latency of
    1..max cycles with probability ``p``.

``dir_nack:p=<prob>[,retries=<n>]``
    Each directory request arrival is NACKed with probability ``p`` and
    retried after randomized exponential backoff; a request is never
    NACKed more than ``retries`` times (default 8) so forward progress
    is guaranteed.

``timer_skew:±<cycles>`` (also accepts ``<cycles>`` or ``max=<cycles>``)
    Each lease expiry timer is skewed by a uniform draw from
    ``[-cycles, +cycles]``, clamped so the effective duration stays in
    ``[1, max_lease_time]`` (preserving the Proposition-1 bound).

``slow_core:<core>@<mult>x[,<core>@<mult>x...]``
    The named cores retire instructions ``mult``x slower (straggler
    cores / IPC throttling).

``link_degrade:p=<prob>[,factor=<mult>][,queue=<cap>]``
    Each contended-interconnect resource (egress link, directory port,
    memory port; see :mod:`repro.coherence.links`) is independently
    degraded with probability ``p`` at machine build time: its
    cycles-per-flit cost is multiplied by ``factor`` (default 4) and,
    when ``queue`` is given, its bounded queue is shrunk to at most
    ``queue`` entries.  Only meaningful together with a non-empty
    ``--network`` spec; on the contention-free model there are no link
    resources to degrade, so the clause is a no-op.

The parse is strict (:mod:`repro.spec` holds the shared rules): unknown
clause names, malformed parameters, and out-of-range values raise
:class:`~repro.errors.ConfigError` so a typo'd ``--faults`` flag fails
fast instead of silently injecting nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..spec import (Clause, Grammar, Param, Row, integer, probability,
                    skew_bound)

__all__ = ["FaultSpec", "parse_fault_spec"]

#: NACK cap when a ``dir_nack`` clause does not name one: a request is
#: retried at most this many times before it is allowed through, so a
#: high ``p`` cannot livelock the directory.
DEFAULT_NACK_RETRIES = 8


@dataclass(frozen=True)
class FaultSpec:
    """Parsed, validated fault parameters (the *what*; the seeded
    :class:`~repro.faults.plan.FaultPlan` is the *when*)."""

    #: the original spec string, verbatim (travels inside MachineConfig
    #: and repro-check files so plans can be rebuilt anywhere).
    raw: str = ""
    net_jitter_p: float = 0.0
    net_jitter_max: int = 0
    dir_nack_p: float = 0.0
    dir_nack_retries: int = DEFAULT_NACK_RETRIES
    timer_skew: int = 0
    #: ((core_id, multiplier), ...) sorted by core id.
    slow_cores: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    link_degrade_p: float = 0.0
    link_degrade_factor: int = 4
    #: 0 = leave each degraded resource's queue capacity untouched.
    link_degrade_queue: int = 0

    @property
    def empty(self) -> bool:
        return (self.net_jitter_p == 0.0 and self.dir_nack_p == 0.0
                and self.timer_skew == 0 and not self.slow_cores
                and self.link_degrade_p == 0.0)


def _slow_cores(c: Clause, fields: dict) -> None:
    """``<core>@<mult>x[,<core>@<mult>x...]``, stored sorted by core."""
    if not c.body:
        raise c.error("needs <core>@<mult>x entries")
    cores: dict[int, int] = {}
    for part in c.body.split(","):
        part = part.strip()
        if not part:
            continue
        if "@" not in part:
            raise c.error(f"expected <core>@<mult>x, got {part!r}")
        core_s, _, mult_s = part.partition("@")
        core = integer(0)(c, "core", core_s.strip())
        mult_s = mult_s.strip()
        if mult_s.lower().endswith("x"):
            mult_s = mult_s[:-1]
        mult = integer(1)(c, "multiplier", mult_s)
        if core in cores:
            raise c.error(f"core {core} listed twice")
        cores[core] = mult
    fields["slow_cores"] = tuple(sorted(cores.items()))


_GRAMMAR = Grammar("fault spec", FaultSpec, (
    Row("net_jitter", (Param("p", "net_jitter_p", probability, "<prob>"),
                       Param("max", "net_jitter_max", integer(1),
                             "<cycles>"))),
    Row("dir_nack", (Param("p", "dir_nack_p", probability, "<prob>"),
                     Param("retries", "dir_nack_retries", integer(1)))),
    Row("timer_skew", parse=skew_bound("timer_skew")),
    Row("slow_core", parse=_slow_cores),
    Row("link_degrade", (Param("p", "link_degrade_p", probability, "<prob>"),
                         Param("factor", "link_degrade_factor", integer(2)),
                         Param("queue", "link_degrade_queue", integer(1)))),
))


def parse_fault_spec(spec: str) -> FaultSpec:
    """Parse a ``--faults`` spec string.  An empty/whitespace string
    yields an empty spec (``FaultSpec.empty`` is true -> no plan is
    installed and behaviour is bit-identical to a fault-free build)."""
    return _GRAMMAR.parse(spec)
