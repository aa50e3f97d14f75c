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

The parse is strict: unknown clause names, malformed parameters, and
out-of-range values raise :class:`~repro.errors.ConfigError` so a typo'd
``--faults`` flag fails fast instead of silently injecting nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError

__all__ = ["FaultSpec", "parse_fault_spec"]

#: NACK cap when a ``dir_nack`` clause does not name one: a request is
#: retried at most this many times before it is allowed through, so a
#: high ``p`` cannot livelock the directory.
DEFAULT_NACK_RETRIES = 8

#: Error-message prefix of this grammar.
_FAMILY = "fault spec"


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


# The cluster and traffic grammars share these helpers; ``family`` is the
# error-message prefix ("fault spec", "cluster spec", "traffic spec").

def _parse_prob(family: str, clause: str, key: str, value: str) -> float:
    try:
        p = float(value)
    except ValueError:
        raise ConfigError(
            f"{family}: {clause}: {key} must be a float, got {value!r}")
    if not 0.0 <= p <= 1.0:
        raise ConfigError(
            f"{family}: {clause}: {key}={p} out of range [0, 1]")
    return p


def _parse_int(family: str, clause: str, key: str, value: str, *,
               min_val: int = 0) -> int:
    try:
        n = int(value)
    except ValueError:
        raise ConfigError(
            f"{family}: {clause}: {key} must be an int, got {value!r}")
    if n < min_val:
        raise ConfigError(
            f"{family}: {clause}: {key}={n} must be >= {min_val}")
    return n


def _parse_params(family: str, clause: str, body: str,
                  allowed: tuple[str, ...]) -> dict:
    params: dict[str, str] = {}
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(
                f"{family}: {clause}: expected key=value, got {part!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in allowed:
            raise ConfigError(
                f"{family}: {clause}: unknown parameter {key!r} "
                f"(allowed: {', '.join(allowed)})")
        if key in params:
            raise ConfigError(f"{family}: {clause}: duplicate {key!r}")
        params[key] = value.strip()
    return params


def _parse_slow_cores(clause: str, body: str) -> tuple[tuple[int, int], ...]:
    cores: dict[int, int] = {}
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        if "@" not in part:
            raise ConfigError(
                f"fault spec: {clause}: expected <core>@<mult>x, "
                f"got {part!r}")
        core_s, _, mult_s = part.partition("@")
        core = _parse_int(_FAMILY, clause, "core", core_s.strip(), min_val=0)
        mult_s = mult_s.strip()
        if mult_s.lower().endswith("x"):
            mult_s = mult_s[:-1]
        mult = _parse_int(_FAMILY, clause, "multiplier", mult_s, min_val=1)
        if core in cores:
            raise ConfigError(f"fault spec: {clause}: core {core} "
                              f"listed twice")
        cores[core] = mult
    return tuple(sorted(cores.items()))


def parse_fault_spec(spec: str) -> FaultSpec:
    """Parse a ``--faults`` spec string.  An empty/whitespace string
    yields an empty spec (``FaultSpec.empty`` is true -> no plan is
    installed and behaviour is bit-identical to a fault-free build)."""
    spec = (spec or "").strip()
    fields: dict = {"raw": spec}
    seen: set[str] = set()
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        name, _, body = clause.partition(":")
        name = name.strip()
        body = body.strip()
        if name in seen:
            raise ConfigError(f"fault spec: duplicate clause {name!r}")
        seen.add(name)
        if name == "net_jitter":
            params = _parse_params(_FAMILY, clause, body, ("p", "max"))
            if "p" not in params or "max" not in params:
                raise ConfigError(
                    f"fault spec: {clause}: needs p=<prob>,max=<cycles>")
            fields["net_jitter_p"] = _parse_prob(
                _FAMILY, clause, "p", params["p"])
            fields["net_jitter_max"] = _parse_int(
                _FAMILY, clause, "max", params["max"], min_val=1)
        elif name == "dir_nack":
            params = _parse_params(_FAMILY, clause, body, ("p", "retries"))
            if "p" not in params:
                raise ConfigError(f"fault spec: {clause}: needs p=<prob>")
            fields["dir_nack_p"] = _parse_prob(
                _FAMILY, clause, "p", params["p"])
            if "retries" in params:
                fields["dir_nack_retries"] = _parse_int(
                    _FAMILY, clause, "retries", params["retries"], min_val=1)
        elif name == "timer_skew":
            value = body
            if value.lower().startswith("max="):
                value = value[4:]
            # accept the spec-string idiom "±8" as well as plain "8"
            value = value.lstrip("±").lstrip("+").strip()
            if not value:
                raise ConfigError(
                    f"fault spec: {clause}: needs a skew bound in cycles")
            fields["timer_skew"] = _parse_int(_FAMILY, clause, "skew", value,
                                              min_val=0)
        elif name == "slow_core":
            if not body:
                raise ConfigError(
                    f"fault spec: {clause}: needs <core>@<mult>x entries")
            fields["slow_cores"] = _parse_slow_cores(clause, body)
        elif name == "link_degrade":
            params = _parse_params(_FAMILY, clause, body,
                                   ("p", "factor", "queue"))
            if "p" not in params:
                raise ConfigError(f"fault spec: {clause}: needs p=<prob>")
            fields["link_degrade_p"] = _parse_prob(
                _FAMILY, clause, "p", params["p"])
            if "factor" in params:
                fields["link_degrade_factor"] = _parse_int(
                    _FAMILY, clause, "factor", params["factor"], min_val=2)
            if "queue" in params:
                fields["link_degrade_queue"] = _parse_int(
                    _FAMILY, clause, "queue", params["queue"], min_val=1)
        else:
            raise ConfigError(
                f"fault spec: unknown clause {name!r} (known: net_jitter, "
                f"dir_nack, timer_skew, slow_core, link_degrade)")
    return FaultSpec(**fields)
