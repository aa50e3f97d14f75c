"""Traffic-spec grammar: parse ``--traffic`` strings into a frozen spec.

A spec is one arrival clause plus optional key-distribution, tenancy,
queue, volume, and SLO clauses.  Clauses may be separated by ``;`` or
``,`` -- the YCSB-style one-liner from the roadmap parses as written::

    poisson:rate=2.0,zipf:s=1.2,tenants=2
    burst:rate=4,on=3000,off=9000;hotset:frac=0.9,size=8,shift=64;queue=8
    ramp:rate=1.5,period=40000;slo:p99=2500,shed=0.01

Tokens therefore bind to the nearest clause on their left: ``rate=2.0``
belongs to ``poisson``, ``s=1.2`` to ``zipf``.  A token whose head (the
text before its first ``:`` or ``=``) names a clause starts that clause;
the text after ``name:`` is the clause's first parameter, and a
``name=value`` token such as ``tenants=2`` is one itself.

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

The parse is strict (:mod:`repro.spec` holds the shared rules): unknown
clause names, malformed parameters, out-of-range or non-finite values,
and tokens a clause cannot take raise :class:`~repro.errors.ConfigError`
so a typo'd ``--traffic`` flag fails fast instead of silently
free-running.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import ConfigError
from ..spec import (Clause, Grammar, Param, Row, RowParser, at_least_one,
                    integer, key_values, probability, real)

__all__ = ["TrafficSpec", "parse_traffic_spec"]

#: Default bounded admission-queue depth per core.
DEFAULT_QUEUE_DEPTH = 16

#: Default hot-set slide interval (draws between shifts).
DEFAULT_HOTSET_SHIFT = 256


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


def _split(spec: str) -> list[tuple[str, str, str]]:
    """Group the ``;``/``,``-separated tokens into ``(name, clause, body)``
    triples (see the module docstring); no token is ever dropped."""
    groups: list[tuple[str, list[str], list[str]]] = []
    for token in re.split(r"[;,]", spec):
        token = token.strip()
        if not token:
            continue
        head = re.split(r"[:=]", token, maxsplit=1)[0]
        # A leading token that names no clause is parsed as one, so the
        # grammar reports it as unknown.
        if head.strip() in _GRAMMAR.rows or not groups:
            sep, rest = token[len(head):len(head) + 1], token[len(head) + 1:]
            first = rest.strip() if sep == ":" else token if sep else ""
            groups.append((head.strip(), [token], [first] if first else []))
        else:
            groups[-1][1].append(token)
            groups[-1][2].append(token)
    return [(name, ",".join(tokens), ",".join(params))
            for name, tokens, params in groups]


def _one_of(group: str, field: str) -> RowParser:
    """Row parser for a clause of an exclusive group (one arrival clause,
    at most one key clause): ``field`` records which one was given."""
    def parse(c: Clause, fields: dict) -> None:
        if field in fields:
            raise c.error(f"second {group} clause "
                          f"(already have {fields[field]!r})")
        fields[field] = c.row.name
        key_values(c, fields)
    return parse


def _scalar(field: str, *aliases: str) -> RowParser:
    """Row parser for a one-int clause: ``name=<n>``, ``name:<n>`` or
    ``name:<alias>=<n>``."""
    def parse(c: Clause, fields: dict) -> None:
        name = c.row.name
        key, eq, value = c.body.partition("=")
        if (not c.body or "," in c.body
                or (eq and key.strip() not in (name, *aliases))):
            raise c.error(f"expected {name}=<int>")
        fields[field] = integer(1)(c, name, value.strip() if eq else c.body)
    return parse


_arrival = _one_of("arrival", "arrival")
_keys = _one_of("key", "keys")
_RATE = Param("rate", "rate", real(0, strict=True, unit=" (ops/kcycle)"),
              "<ops/kcycle>")

_GRAMMAR = Grammar("traffic spec", TrafficSpec, (
    Row("poisson", (_RATE,), _arrival),
    Row("burst", (_RATE, Param("on", "on_cycles", integer(1), "<cycles>"),
                  Param("off", "off_cycles", integer(1), "<cycles>")),
        _arrival),
    Row("ramp", (_RATE, Param("period", "period", integer(2), "<cycles>")),
        _arrival),
    Row("uniform", (), _keys),
    Row("zipf", (Param("s", "zipf_s", real(0), "<exponent>"),), _keys),
    Row("hotset", (Param("frac", "hot_frac", probability, "<prob>"),
                   Param("size", "hot_size", integer(1), "<keys>"),
                   Param("shift", "hot_shift", integer(1))), _keys),
    Row("tenants", parse=_scalar("tenants")),
    Row("queue", parse=_scalar("queue_depth", "depth")),
    Row("ops", parse=_scalar("ops")),
    Row("slo", (Param("p99", "slo_p99", integer(1)),
                Param("p999", "slo_p999", integer(1)),
                Param("shed", "slo_shed", probability)),
        at_least_one("at least one of p99=<cycles>, p999=<cycles>, "
                     "shed=<frac>")),
), split=_split)


def parse_traffic_spec(spec: str) -> TrafficSpec:
    """Parse a ``--traffic`` spec string.  An empty/whitespace string
    yields an empty spec (``TrafficSpec.empty`` is true -> drivers run
    their usual closed loop, bit-identical to a traffic-free build)."""
    parsed = _GRAMMAR.parse(spec)
    if parsed.raw and parsed.empty:
        raise ConfigError(
            "traffic spec: needs an arrival clause (poisson, burst, ramp)")
    return parsed
