"""Traffic-spec grammar: parse ``--traffic`` strings into a frozen spec.

A spec is one arrival clause plus optional key-distribution, tenancy,
queue, volume, and SLO clauses.  Clauses may be separated by ``;`` or
``,`` -- the YCSB-style one-liner from the roadmap parses as written::

    poisson:rate=2.0,zipf:s=1.2,tenants=2
    burst:rate=4,on=3000,off=9000;hotset:frac=0.9,size=8,shift=64;queue=8
    ramp:rate=1.5,period=40000;slo:p99=2500,shed=0.01

Tokens therefore bind to the nearest clause on their left: ``rate=2.0``
belongs to ``poisson``, ``s=1.2`` to ``zipf``.  A token whose head names
a clause starts that clause.

Clauses
-------

``poisson:rate=<ops/kcycle>``
    Memoryless arrivals; inter-arrival gaps are exponential draws with
    mean ``1000/rate`` cycles (rounded to >= 1 cycle).

``burst:rate=<ops/kcycle>,on=<cycles>,off=<cycles>``
    On-off (bursty) arrivals: Poisson at ``rate`` during each ``on``
    window, silent for each ``off`` window.

``ramp:rate=<ops/kcycle>,period=<cycles>``
    Diurnal ramp: a full sinusoid of period ``period`` modulates the
    instantaneous rate between ~0 and ``2*rate`` (mean ``rate``).

``uniform`` / ``zipf:s=<exp>`` / ``hotset:frac=<p>,size=<n>[,shift=<k>]``
    Key selection (default ``uniform``): the existing
    :class:`~repro.workloads.generators.UniformKeys` / ``ZipfKeys``
    distributions, or the hot-set-shifting distribution where a ``frac``
    share of draws hits a window of ``size`` keys that slides after
    every ``shift`` draws (default 256).

``tenants=<n>``
    Independent arrival streams per core (default 1), each with its own
    seeded RNG; ops are tagged with their tenant id in trace events.

``queue=<depth>`` (also ``queue:depth=<n>``)
    Bounded admission queue per core (default 16).  An arrival that
    finds its queue full is *shed*: counted, traced, never executed.

``ops=<n>``
    Arrivals generated per stream before it dries up (default: the
    driver's ``ops_per_thread``).

``slo:[p99=<cycles>][,p999=<cycles>][,shed=<frac>]``
    Service-level objective.  The run verdict is ``pass`` iff every
    stated bound holds (p99/p999 latency at or under the bound, shed
    fraction at or under ``shed``); without this clause the verdict is
    ``n/a``.

The parse is strict: unknown clause names, malformed parameters, and
out-of-range values raise :class:`~repro.errors.ConfigError` so a typo'd
``--traffic`` flag fails fast instead of silently free-running.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import ConfigError
from ..faults.spec import _parse_int, _parse_prob

__all__ = ["TrafficSpec", "parse_traffic_spec"]

#: Default bounded admission-queue depth per core.
DEFAULT_QUEUE_DEPTH = 16

#: Default hot-set slide interval (draws between shifts).
DEFAULT_HOTSET_SHIFT = 256

_ARRIVALS = ("poisson", "burst", "ramp")
_KEYS = ("uniform", "zipf", "hotset")
_SCALARS = ("tenants", "queue", "ops")
_CLAUSES = _ARRIVALS + _KEYS + _SCALARS + ("slo",)

#: Error-message prefix of this grammar.
_FAMILY = "traffic spec"


@dataclass(frozen=True)
class TrafficSpec:
    """Parsed, validated open-loop traffic parameters (the *what*; the
    seeded :class:`~repro.traffic.source.TrafficSource` is the *when*)."""

    #: the original spec string, verbatim (travels in experiment kwargs
    #: and repro-check files so sources can be rebuilt anywhere).
    raw: str = ""
    arrival: str = ""                 # "", "poisson", "burst", "ramp"
    rate: float = 0.0                 # ops per kilocycle, per stream
    on_cycles: int = 0
    off_cycles: int = 0
    period: int = 0
    keys: str = "uniform"
    zipf_s: float = 0.0
    hot_frac: float = 0.0
    hot_size: int = 0
    hot_shift: int = DEFAULT_HOTSET_SHIFT
    tenants: int = 1
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    ops: int = 0                      # 0 -> driver's ops_per_thread
    slo_p99: int | None = None
    slo_p999: int | None = None
    slo_shed: float | None = None

    @property
    def empty(self) -> bool:
        return self.arrival == ""

    @property
    def has_slo(self) -> bool:
        return (self.slo_p99 is not None or self.slo_p999 is not None
                or self.slo_shed is not None)


def _parse_rate(clause: str, value: str) -> float:
    try:
        r = float(value)
    except ValueError:
        raise ConfigError(
            f"traffic spec: {clause}: rate must be a float, got {value!r}")
    if r <= 0.0:
        raise ConfigError(
            f"traffic spec: {clause}: rate={r} must be > 0 (ops/kcycle)")
    return r


def _params(clause: str, parts: list[str],
            allowed: tuple[str, ...]) -> dict[str, str]:
    params: dict[str, str] = {}
    for part in parts:
        if "=" not in part:
            raise ConfigError(
                f"traffic spec: {clause}: expected key=value, got {part!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in allowed:
            raise ConfigError(
                f"traffic spec: {clause}: unknown parameter {key!r} "
                f"(allowed: {', '.join(allowed) or 'none'})")
        if key in params:
            raise ConfigError(f"traffic spec: {clause}: duplicate {key!r}")
        params[key] = value.strip()
    return params


def _group_clauses(spec: str) -> list[tuple[str, str, list[str]]]:
    """Split a spec into ``(name, head_token, param_tokens)`` groups.

    Both ``;`` and ``,`` separate tokens; a token starts a new clause
    when its head (text before ``:`` or ``=``) names one, otherwise it
    is a parameter of the clause to its left.
    """
    groups: list[tuple[str, str, list[str]]] = []
    for token in re.split(r"[;,]", spec):
        token = token.strip()
        if not token:
            continue
        head = re.split(r"[:=]", token, maxsplit=1)[0].strip()
        if head in _CLAUSES:
            groups.append((head, token, []))
        elif groups:
            groups[-1][2].append(token)
        else:
            raise ConfigError(
                f"traffic spec: unknown clause {head!r} "
                f"(known: {', '.join(_CLAUSES)})")
    return groups


def parse_traffic_spec(spec: str) -> TrafficSpec:
    """Parse a ``--traffic`` spec string.  An empty/whitespace string
    yields an empty spec (``TrafficSpec.empty`` is true -> drivers run
    their usual closed loop, bit-identical to a traffic-free build)."""
    spec = (spec or "").strip()
    fields: dict = {"raw": spec}
    seen_arrival = seen_keys = False
    seen: set[str] = set()
    for name, head_token, extra in _group_clauses(spec):
        # Canonical clause text for error messages.
        clause = head_token if not extra else f"{head_token},{','.join(extra)}"
        if name in seen:
            raise ConfigError(f"traffic spec: duplicate clause {name!r}")
        seen.add(name)
        # Split the head token into its own leading parameter (if any).
        _, colon, body = head_token.partition(":")
        body = body.strip()
        parts = ([body] if body else []) + extra
        if name in _ARRIVALS:
            if seen_arrival:
                raise ConfigError(
                    f"traffic spec: {clause}: second arrival clause "
                    f"(already have {fields['arrival']!r})")
            seen_arrival = True
            fields["arrival"] = name
            if name == "poisson":
                params = _params(clause, parts, ("rate",))
                if "rate" not in params:
                    raise ConfigError(
                        f"traffic spec: {clause}: needs rate=<ops/kcycle>")
                fields["rate"] = _parse_rate(clause, params["rate"])
            elif name == "burst":
                params = _params(clause, parts, ("rate", "on", "off"))
                if not {"rate", "on", "off"} <= params.keys():
                    raise ConfigError(
                        f"traffic spec: {clause}: needs rate=<ops/kcycle>,"
                        "on=<cycles>,off=<cycles>")
                fields["rate"] = _parse_rate(clause, params["rate"])
                fields["on_cycles"] = _parse_int(
                    _FAMILY, clause, "on", params["on"], min_val=1)
                fields["off_cycles"] = _parse_int(
                    _FAMILY, clause, "off", params["off"], min_val=1)
            else:  # ramp
                params = _params(clause, parts, ("rate", "period"))
                if not {"rate", "period"} <= params.keys():
                    raise ConfigError(
                        f"traffic spec: {clause}: needs rate=<ops/kcycle>,"
                        "period=<cycles>")
                fields["rate"] = _parse_rate(clause, params["rate"])
                fields["period"] = _parse_int(
                    _FAMILY, clause, "period", params["period"], min_val=2)
        elif name in _KEYS:
            if seen_keys:
                raise ConfigError(
                    f"traffic spec: {clause}: second key clause "
                    f"(already have {fields['keys']!r})")
            seen_keys = True
            fields["keys"] = name
            if name == "uniform":
                _params(clause, parts, ())
            elif name == "zipf":
                params = _params(clause, parts, ("s",))
                if "s" not in params:
                    raise ConfigError(
                        f"traffic spec: {clause}: needs s=<exponent>")
                try:
                    s = float(params["s"])
                except ValueError:
                    raise ConfigError(
                        f"traffic spec: {clause}: s must be a float, "
                        f"got {params['s']!r}")
                if s < 0:
                    raise ConfigError(
                        f"traffic spec: {clause}: s={s} must be >= 0")
                fields["zipf_s"] = s
            else:  # hotset
                params = _params(clause, parts, ("frac", "size", "shift"))
                if not {"frac", "size"} <= params.keys():
                    raise ConfigError(
                        f"traffic spec: {clause}: needs frac=<prob>,"
                        "size=<keys>")
                fields["hot_frac"] = _parse_prob(_FAMILY, clause, "frac",
                                                 params["frac"])
                fields["hot_size"] = _parse_int(
                    _FAMILY, clause, "size", params["size"], min_val=1)
                if "shift" in params:
                    fields["hot_shift"] = _parse_int(
                        _FAMILY, clause, "shift", params["shift"], min_val=1)
        elif name in _SCALARS:
            # Accept both tenants=2 and tenants:2 / queue:depth=8.
            if not colon and "=" in head_token:
                parts = [head_token]
            value: str | None = None
            if len(parts) == 1 and "=" in parts[0]:
                key, _, val = parts[0].partition("=")
                key = key.strip()
                if key in (name, "depth" if name == "queue" else name):
                    value = val.strip()
            if value is None and len(parts) == 1 and "=" not in parts[0]:
                value = parts[0]
            if value is None:
                raise ConfigError(
                    f"traffic spec: {clause}: expected {name}=<int>")
            field_name = {"tenants": "tenants", "queue": "queue_depth",
                          "ops": "ops"}[name]
            fields[field_name] = _parse_int(
                _FAMILY, clause, name, value, min_val=1)
        else:  # slo
            params = _params(clause, parts, ("p99", "p999", "shed"))
            if not params:
                raise ConfigError(
                    f"traffic spec: {clause}: needs at least one of "
                    "p99=<cycles>, p999=<cycles>, shed=<frac>")
            if "p99" in params:
                fields["slo_p99"] = _parse_int(
                    _FAMILY, clause, "p99", params["p99"], min_val=1)
            if "p999" in params:
                fields["slo_p999"] = _parse_int(
                    _FAMILY, clause, "p999", params["p999"], min_val=1)
            if "shed" in params:
                fields["slo_shed"] = _parse_prob(
                    _FAMILY, clause, "shed", params["shed"])
    if spec and not seen_arrival:
        raise ConfigError(
            "traffic spec: needs an arrival clause "
            f"({', '.join(_ARRIVALS)})")
    return TrafficSpec(**fields)
