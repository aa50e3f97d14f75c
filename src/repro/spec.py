"""One clause grammar for every spec-string option.

``--faults``, ``--network``, ``--cluster`` and ``--traffic`` each take a
list of clauses, ``name`` or ``name:params``, with ``,``-separated
``key=value`` parameters::

    net_jitter:p=0.01,max=200;dir_nack:p=0.005;timer_skew:±8

Each grammar is a :class:`Grammar`: a table of :class:`Row` s, one per
clause name, next to the frozen dataclass it fills.  This module does the
work they share:

* it splits the spec into clauses (on ``;`` unless the grammar passes
  its own splitter) and rejects a clause that is unknown or named twice;
* a row's :class:`Param` s describe its ``key=value`` parameters: each
  part must have the ``key=value`` form, unknown and repeated keys are
  rejected, required keys must be present, and each value goes through a
  typed converter (:func:`integer`, :func:`probability`, :func:`real`)
  into the dataclass field the param names;
* a row whose body is not plain ``key=value`` pairs, or that has a rule
  across its parameters, brings its own parser, which gets the
  :class:`Clause` and the fields parsed so far.

Every error is a :class:`~repro.errors.ConfigError` that starts with the
grammar's family prefix and, for an error inside a clause, the clause as
written::

    fault spec: unknown clause 'nope' (known: net_jitter, dir_nack, ...)
    fault spec: net_jitter:p=2,max=10: p=2.0 out of range [0, 1]
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .errors import ConfigError

__all__ = ["Grammar", "Row", "Param", "Clause", "Converter", "RowParser",
           "key_values", "at_least_one", "skew_bound", "integer",
           "probability", "real", "split_clauses"]


@dataclass(frozen=True)
class Clause:
    """One clause of a spec being parsed: what a row parser works on."""

    family: str
    row: Row
    #: the clause as written, for error messages.
    text: str
    #: the parameters: the text after ``name:``, stripped.
    body: str

    def error(self, msg: str) -> ConfigError:
        """A ConfigError naming the grammar and this clause."""
        return ConfigError(f"{self.family}: {self.text}: {msg}")

    def params(self) -> dict[str, str]:
        """Split the body's ``key=value`` parameters against the row's
        params; returns the stripped value texts."""
        allowed = [p.key for p in self.row.params]
        raw: dict[str, str] = {}
        for part in self.body.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise self.error(f"expected key=value, got {part!r}")
            key, _, value = part.partition("=")
            key = key.strip()
            if key not in allowed:
                raise self.error(f"unknown parameter {key!r} (allowed: "
                                 f"{', '.join(allowed) or 'none'})")
            if key in raw:
                raise self.error(f"duplicate {key!r}")
            raw[key] = value.strip()
        needs = [p for p in self.row.params if p.need]
        if any(p.key not in raw for p in needs):
            raise self.error("needs " + ",".join(f"{p.key}={p.need}"
                                                 for p in needs))
        return raw

    def convert(self, raw: dict[str, str]) -> dict[str, Any]:
        """Convert the given parameters in the row's order, keyed by the
        dataclass field each one sets."""
        return {p.field: p.convert(self, p.key, raw[p.key])
                for p in self.row.params if p.key in raw}


#: ``convert(clause, key, text) -> value``; raises ``clause.error(...)``.
Converter = Callable[[Clause, str, str], Any]
#: ``parse(clause, fields)``: sets the fields the clause gives.
RowParser = Callable[[Clause, dict], None]


@dataclass(frozen=True)
class Param:
    """One ``key=value`` parameter of a clause."""

    key: str
    #: the spec-dataclass field the converted value sets.
    field: str
    convert: Converter
    #: how a missing required parameter is shown (``<prob>``); empty
    #: means the parameter is optional.
    need: str = ""


def key_values(c: Clause, fields: dict) -> None:
    """The default row parser: the body is ``key=value`` parameters."""
    fields.update(c.convert(c.params()))


@dataclass(frozen=True)
class Row:
    """One clause of a grammar."""

    name: str
    params: tuple[Param, ...] = ()
    parse: RowParser = key_values


def split_clauses(spec: str) -> Iterable[tuple[str, str, str]]:
    """The default splitter: ``;``-separated ``name[:body]`` clauses, as
    ``(name, clause, body)`` triples."""
    for clause in spec.split(";"):
        clause = clause.strip()
        if clause:
            name, _, body = clause.partition(":")
            yield name.strip(), clause, body.strip()


class Grammar:
    """A spec grammar: its error prefix, the frozen dataclass it fills
    (which takes the stripped spec as ``raw``) and its clause rows."""

    def __init__(self, family: str, cls: type, rows: Iterable[Row],
                 split: Callable[[str], Iterable[tuple[str, str, str]]]
                 = split_clauses) -> None:
        self.family = family
        self.cls = cls
        self.rows = {row.name: row for row in rows}
        self.split = split

    def parse(self, spec: str | None) -> Any:
        """Parse ``spec``; an empty or blank spec gives the defaults."""
        spec = (spec or "").strip()
        fields: dict[str, Any] = {}
        seen: set[str] = set()
        for name, text, body in self.split(spec):
            if name in seen:
                raise ConfigError(
                    f"{self.family}: duplicate clause {name!r}")
            seen.add(name)
            row = self.rows.get(name)
            if row is None:
                raise ConfigError(
                    f"{self.family}: unknown clause {name!r} "
                    f"(known: {', '.join(self.rows)})")
            row.parse(Clause(self.family, row, text, body), fields)
        return self.cls(raw=spec, **fields)


# ---------------------------------------------------------------------------
# Row parsers shared by more than one grammar
# ---------------------------------------------------------------------------

def at_least_one(needs: str) -> RowParser:
    """Row parser for ``key=value`` clauses whose parameters are each
    optional but that must give one; ``needs`` completes the error."""
    def parse(c: Clause, fields: dict) -> None:
        given = c.convert(c.params())
        if not given:
            raise c.error(f"needs {needs}")
        fields.update(given)
    return parse


def skew_bound(field: str) -> RowParser:
    """Row parser for a timer-skew bound in cycles: ``±<n>``, ``+<n>``,
    ``<n>`` or ``max=<n>``."""
    def parse(c: Clause, fields: dict) -> None:
        value = c.body
        if value.lower().startswith("max="):
            value = value[4:]
        value = value.lstrip("±").lstrip("+").strip()
        if not value:
            raise c.error("needs a skew bound in cycles")
        fields[field] = integer(0)(c, "skew", value)
    return parse


# ---------------------------------------------------------------------------
# Typed converters
# ---------------------------------------------------------------------------

def integer(lo: int) -> Converter:
    """An int ``>= lo``."""
    def convert(c: Clause, key: str, text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise c.error(f"{key} must be an int, got {text!r}") from None
        if n < lo:
            raise c.error(f"{key}={n} must be >= {lo}")
        return n
    return convert


def _float(c: Clause, key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise c.error(f"{key} must be a float, got {text!r}") from None


def probability(c: Clause, key: str, text: str) -> float:
    """A float in ``[0, 1]`` (which NaN is not)."""
    p = _float(c, key, text)
    if not 0.0 <= p <= 1.0:
        raise c.error(f"{key}={p} out of range [0, 1]")
    return p


def real(lo: float, *, strict: bool = False, unit: str = "") -> Converter:
    """A finite float ``> lo`` (``strict``) or ``>= lo``; ``unit`` follows
    the bound in the range error."""
    op = ">" if strict else ">="

    def convert(c: Clause, key: str, text: str) -> float:
        x = _float(c, key, text)
        if (x <= lo) if strict else (x < lo):
            raise c.error(f"{key}={x} must be {op} {lo}{unit}")
        if not math.isfinite(x):
            raise c.error(f"{key} must be finite, got {text!r}")
        return x
    return convert
