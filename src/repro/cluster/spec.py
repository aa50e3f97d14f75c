"""Cluster-fault grammar: parse ``--cluster`` strings into a frozen spec.

The inter-node network (:mod:`repro.cluster.internode`) is adversarial by
configuration: every unreliability knob -- link latency, message loss,
duplication, partitions, clock skew -- comes from one ``;``-separated spec
string, mirroring the intra-node ``--faults`` grammar::

    delay:min=60,max=160;loss:p=0.05;dup:p=0.02;partition:p=0.01,len=2000;skew:±40

Clauses
-------

``delay:min=<cycles>,max=<cycles>``
    Per-message one-way latency drawn uniformly from ``[min, max]``
    (default 50..150 when the clause is absent).

``loss:p=<prob>``
    Each inter-node message is independently dropped with probability
    ``p``.

``dup:p=<prob>``
    Each *delivered* message is delivered a second time with probability
    ``p`` (the copy draws its own latency; PaxosLease must be duplicate-
    idempotent).

``partition:p=<prob>,len=<cycles>[,check=<cycles>]``
    Every ``check`` cycles (default 500) the network weather is rolled:
    with probability ``p`` a random bipartition of the nodes is cut for
    ``len`` cycles (messages across the cut are dropped), after which it
    heals.

``skew:±<cycles>`` (also accepts ``<cycles>`` or ``max=<cycles>``)
    Each node's local lease timers drift by a per-timer uniform draw from
    ``[-cycles, +cycles]``.  PaxosLease stays safe under any drift within
    the bound: proposers shorten their local expiry by the full bound
    while acceptors lengthen theirs by the drawn skew.

The parse is strict: unknown clause names, malformed parameters, and
out-of-range values raise :class:`~repro.errors.ConfigError` so a typo'd
``--cluster`` flag fails fast instead of silently testing nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..faults.spec import _parse_int, _parse_params, _parse_prob

__all__ = ["ClusterFaultSpec", "parse_cluster_spec"]

#: Default per-message latency window (cycles) when no ``delay`` clause
#: is given: wide enough that rounds overlap, short against lease terms.
DEFAULT_DELAY_MIN = 50
DEFAULT_DELAY_MAX = 150

#: Default weather-roll period for ``partition`` clauses (cycles).
DEFAULT_PARTITION_CHECK = 500

#: Error-message prefix of this grammar.
_FAMILY = "cluster spec"


@dataclass(frozen=True)
class ClusterFaultSpec:
    """Parsed, validated inter-node unreliability parameters (the *what*;
    the seeded streams inside :class:`~repro.cluster.internode.
    InterNodeNetwork` are the *when*)."""

    #: the original spec string, verbatim (travels inside ClusterConfig
    #: and repro-cluster files so clusters can be rebuilt anywhere).
    raw: str = ""
    delay_min: int = DEFAULT_DELAY_MIN
    delay_max: int = DEFAULT_DELAY_MAX
    loss_p: float = 0.0
    dup_p: float = 0.0
    partition_p: float = 0.0
    partition_len: int = 0
    partition_check: int = DEFAULT_PARTITION_CHECK
    skew: int = 0

    @property
    def empty(self) -> bool:
        """True when every unreliability knob is off (latency is still
        modeled -- a cluster network is never a same-cycle wire)."""
        return (self.loss_p == 0.0 and self.dup_p == 0.0
                and self.partition_p == 0.0 and self.skew == 0)


def parse_cluster_spec(spec: str) -> ClusterFaultSpec:
    """Parse a ``--cluster`` spec string.  An empty/whitespace string
    yields a reliable network with the default latency window."""
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
            raise ConfigError(f"cluster spec: duplicate clause {name!r}")
        seen.add(name)
        if name == "delay":
            params = _parse_params(_FAMILY, clause, body, ("min", "max"))
            if "min" not in params or "max" not in params:
                raise ConfigError(
                    f"cluster spec: {clause}: needs min=<cycles>,"
                    "max=<cycles>")
            lo = _parse_int(_FAMILY, clause, "min", params["min"], min_val=1)
            hi = _parse_int(_FAMILY, clause, "max", params["max"], min_val=1)
            if hi < lo:
                raise ConfigError(
                    f"cluster spec: {clause}: max={hi} < min={lo}")
            fields["delay_min"], fields["delay_max"] = lo, hi
        elif name == "loss":
            params = _parse_params(_FAMILY, clause, body, ("p",))
            if "p" not in params:
                raise ConfigError(f"cluster spec: {clause}: needs p=<prob>")
            fields["loss_p"] = _parse_prob(_FAMILY, clause, "p", params["p"])
        elif name == "dup":
            params = _parse_params(_FAMILY, clause, body, ("p",))
            if "p" not in params:
                raise ConfigError(f"cluster spec: {clause}: needs p=<prob>")
            fields["dup_p"] = _parse_prob(_FAMILY, clause, "p", params["p"])
        elif name == "partition":
            params = _parse_params(_FAMILY, clause, body,
                                   ("p", "len", "check"))
            if "p" not in params or "len" not in params:
                raise ConfigError(
                    f"cluster spec: {clause}: needs p=<prob>,len=<cycles>")
            fields["partition_p"] = _parse_prob(
                _FAMILY, clause, "p", params["p"])
            fields["partition_len"] = _parse_int(
                _FAMILY, clause, "len", params["len"], min_val=1)
            if "check" in params:
                fields["partition_check"] = _parse_int(
                    _FAMILY, clause, "check", params["check"], min_val=1)
        elif name == "skew":
            value = body
            if value.lower().startswith("max="):
                value = value[4:]
            # accept the spec-string idiom "±40" as well as plain "40"
            value = value.lstrip("±").lstrip("+").strip()
            if not value:
                raise ConfigError(
                    f"cluster spec: {clause}: needs a skew bound in cycles")
            fields["skew"] = _parse_int(_FAMILY, clause, "skew", value,
                                        min_val=0)
        else:
            raise ConfigError(
                f"cluster spec: unknown clause {name!r} (known: delay, "
                f"loss, dup, partition, skew)")
    return ClusterFaultSpec(**fields)
