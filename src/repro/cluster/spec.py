"""Cluster-fault grammar: parse ``--cluster`` strings into a frozen spec.

The inter-node network (:mod:`repro.cluster.internode`) is adversarial by
configuration: every unreliability knob -- link latency, message loss,
duplication, partitions, clock skew -- comes from one ``;``-separated spec
string in the clause grammar ``--faults`` uses (:mod:`repro.spec`)::

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

The parse is strict (:mod:`repro.spec` holds the shared rules): unknown
clause names, malformed parameters, and out-of-range values raise
:class:`~repro.errors.ConfigError` so a typo'd ``--cluster`` flag fails
fast instead of silently testing nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..spec import (Clause, Grammar, Param, Row, integer, probability,
                    skew_bound)

__all__ = ["ClusterFaultSpec", "parse_cluster_spec"]

#: Default per-message latency window (cycles) when no ``delay`` clause
#: is given: wide enough that rounds overlap, short against lease terms.
DEFAULT_DELAY_MIN = 50
DEFAULT_DELAY_MAX = 150

#: Default weather-roll period for ``partition`` clauses (cycles).
DEFAULT_PARTITION_CHECK = 500


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


def _delay(c: Clause, fields: dict) -> None:
    given = c.convert(c.params())
    lo, hi = given["delay_min"], given["delay_max"]
    if hi < lo:
        raise c.error(f"max={hi} < min={lo}")
    fields.update(given)


_GRAMMAR = Grammar("cluster spec", ClusterFaultSpec, (
    Row("delay", (Param("min", "delay_min", integer(1), "<cycles>"),
                  Param("max", "delay_max", integer(1), "<cycles>")), _delay),
    Row("loss", (Param("p", "loss_p", probability, "<prob>"),)),
    Row("dup", (Param("p", "dup_p", probability, "<prob>"),)),
    Row("partition", (Param("p", "partition_p", probability, "<prob>"),
                      Param("len", "partition_len", integer(1), "<cycles>"),
                      Param("check", "partition_check", integer(1)))),
    Row("skew", parse=skew_bound("skew")),
))


def parse_cluster_spec(spec: str) -> ClusterFaultSpec:
    """Parse a ``--cluster`` spec string.  An empty/whitespace string
    yields a reliable network with the default latency window."""
    return _GRAMMAR.parse(spec)
