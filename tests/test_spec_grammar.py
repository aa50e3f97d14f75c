"""Golden pin of the four spec grammars: --faults, --network, --traffic and
--cluster.

A seeded generator writes valid specs from each grammar's clause and key
vocabulary, then mutates copies of them (dropped, duplicated and swapped
tokens, bad values, wrong separators, padding, case, truncation).  Every
spec's outcome -- the parsed dataclass, or the ``ConfigError`` text -- is
hashed in order, so one sha256 per grammar pins which specs are accepted,
what they parse to, and every error message byte for byte.  A parse that
raises anything but ``ConfigError`` fails the test outright.

The pins change only when a grammar's behaviour does; a refactor of the
parsers must leave them as they are.
"""

from __future__ import annotations

import hashlib
import random
import re

import pytest

from repro.cluster import parse_cluster_spec
from repro.coherence.links import parse_network_spec
from repro.errors import ConfigError
from repro.faults import parse_fault_spec
from repro.traffic import parse_traffic_spec

VALID_PER_GRAMMAR = 1500
MUTATED_PER_GRAMMAR = 4000

PROB = ("0", "0.01", "0.05", "0.5", "1", "1.0", ".25")
CYCLES = ("1", "2", "4", "8", "40", "200", "3000")
RATE = ("0.5", "1", "2.0", "4", "1.5")
#: Values no grammar should take at face value.
ODD = ("nan", "inf", "-inf", "1e400", "NaN", "-1", "0", "x", "", " ", " 7 ",
       "±8", "+5", "2:1", "1@2x", "1_0", "0x10", "1.5", "3.", "-0", "1e2")
JUNK = ("", " ", "zz=3", "=", ":", "x", "p=0.5", "rate=9", "queue=8", "max=4",
        "slo", "weights=2:1", "±8", "1@2x", ";", ",", "infinite")
#: Hand-picked corner cases, run through every grammar.
EDGES = ("", "  ", ";", ";;", ",", ":", "=", "infinite", " INFINITE ",
         "timer_skew:±", "timer_skew:max=", "skew:±", "skew: max=±3",
         "slow_core:,", "slow_core:1@x", "slow_core:-1@2x", "slow_core:1@2",
         "arb:", "arb:wrr,weights=2:1:3", "arb:wrr,weights=:", "arb: wrr ,",
         "port:queue=2", "link:bw=1,,queue=2", "delay:min=5,max=5",
         "poisson=3", "poisson:rate=1,tenants:tenants=2",
         "poisson:rate=1,queue:queue=8", "poisson:rate=1,queue:depth=",
         "poisson:rate=1,queue,8", "poisson:rate=1,ops:5,6",
         "poisson:rate=1,tenants=2:3", "poisson:rate=1,uniform:x",
         "poisson:rate=1,uniform:a=1", "poisson:rate=1;;slo:shed=nan")

#: Per grammar: its parser, whether ``,`` also separates clauses, and its
#: clause groups (at most one clause is drawn from each group; the first
#: group is mandatory when ``need_first``).  A clause is either a
#: ``{key: values}`` schema (a key ending in ``!`` is always written) or a
#: tuple of literal clause texts.
GRAMMARS = {
    "faults": dict(parse=parse_fault_spec, commas=False, need_first=False,
                   groups=[
        {"net_jitter": {"p!": PROB, "max!": CYCLES}},
        {"dir_nack": {"p!": PROB, "retries": CYCLES}},
        {"timer_skew": ("timer_skew:±8", "timer_skew:8", "timer_skew:max=8",
                        "timer_skew:+8", "timer_skew:±0", "timer_skew: 40")},
        {"slow_core": ("slow_core:3@10x", "slow_core:1@2x,5@4x",
                       "slow_core:0@3X", "slow_core:2@1x", "slow_core: 1 @ 2x")},
        {"link_degrade": {"p!": PROB, "factor": CYCLES, "queue": CYCLES}},
    ]),
    "network": dict(parse=parse_network_spec, commas=False, need_first=False,
                    groups=[
        {"link": {"bw!": CYCLES, "queue": CYCLES, "flits": CYCLES}},
        {"arb": ("arb:fifo", "arb:wrr", "arb:priority", "arb:wrr,weights=2:1",
                 "arb:wrr,weights=3:1", "arb:wrr, weights=1:4")},
        {"port": {"dir": CYCLES, "mem": CYCLES, "queue": CYCLES}},
    ]),
    "cluster": dict(parse=parse_cluster_spec, commas=False, need_first=False,
                    groups=[
        {"delay": {"min!": ("1", "40", "50", "60"),
                   "max!": ("60", "150", "200", "40")}},
        {"loss": {"p!": PROB}},
        {"dup": {"p!": PROB}},
        {"partition": {"p!": PROB, "len!": CYCLES, "check": CYCLES}},
        {"skew": ("skew:±40", "skew:40", "skew:max=120", "skew:+8",
                  "skew:0")},
    ]),
    "traffic": dict(parse=parse_traffic_spec, commas=True, need_first=True,
                    groups=[
        {"poisson": {"rate!": RATE},
         "burst": {"rate!": RATE, "on!": CYCLES, "off!": CYCLES},
         "ramp": {"rate!": RATE, "period!": CYCLES}},
        {"uniform": ("uniform",),
         "zipf": {"s!": ("0", "0.8", "1.1", "1.2")},
         "hotset": {"frac!": PROB, "size!": CYCLES, "shift": CYCLES}},
        {"tenants": ("tenants=2", "tenants:3", "tenants=1")},
        {"queue": ("queue=8", "queue:depth=4", "queue:16", "queue=1")},
        {"ops": ("ops=5", "ops:32", "ops=200")},
        {"slo": {"p99": CYCLES, "p999": CYCLES, "shed": PROB}},
    ]),
}

#: sha256 over the ``(spec, outcome)`` lines, plus the accepted/rejected
#: split for a readable failure.
PINS = {
    "faults": (2068, 3466,
               "b310d33c8904178580266d08a1c1e83225bb9abfb2e589324a4552e0a8362798"),
    "network": (2315, 3219,
                "fd39b0898fa0776dfcad0d34d0ee7506493fe030782220d2cef0e56edde1e028"),
    "cluster": (2025, 3509,
                "5a404517417dd1d82e01d6ef011ae7e9a0c4e78bdc78e1b769c620747743f0ee"),
    "traffic": (1978, 3556,
                "869b95de2eb7d7da96e075fca25b0c4b01bc0f1556b91e716cdb5006f5559abc"),
}


def _clauses(grammar: dict) -> dict:
    return {name: form for group in grammar["groups"]
            for name, form in group.items()}


def _write_clause(rng: random.Random, name: str, form) -> str:
    if isinstance(form, tuple):
        return rng.choice(form)
    params = [f"{key.rstrip('!')}={rng.choice(values)}"
              for key, values in form.items()
              if key.endswith("!") or rng.random() < 0.6]
    return f"{name}:{','.join(params)}" if params else name


def valid_spec(rng: random.Random, grammar: dict) -> str:
    clauses = []
    for i, group in enumerate(grammar["groups"]):
        if (i == 0 and grammar["need_first"]) or rng.random() < 0.5:
            name = rng.choice(sorted(group))
            clauses.append(_write_clause(rng, name, group[name]))
    rng.shuffle(clauses)
    seps = (";", ",", "; ") if grammar["commas"] else (";", "; ", " ;")
    spec = ""
    for i, clause in enumerate(clauses):
        spec += (rng.choice(seps) if i else "") + clause
    return spec


def _mutate(rng: random.Random, spec: str, grammar: dict) -> str:
    clauses = _clauses(grammar)
    names = sorted(clauses)
    keys = sorted({key.rstrip("!") for form in clauses.values()
                   if isinstance(form, dict) for key in form})
    # Tokens at even indices, the ";"/"," after each at odd ones.
    parts = re.split(r"([;,])", spec)
    tokens = range(0, len(parts), 2)
    op = rng.randrange(12)
    if op == 0 and "=" in spec:           # bad value
        at = rng.choice([i for i, c in enumerate(spec) if c == "="])
        end = min([j for j in (spec.find(c, at + 1) for c in ",;")
                   if j >= 0] or [len(spec)])
        return spec[:at + 1] + rng.choice(ODD) + spec[end:]
    if op == 1:                           # drop a token and its separator
        i = rng.choice(tokens)
        return "".join(parts[:i] + parts[i + 2:])
    if op == 2:                           # duplicate a token
        i = rng.choice(tokens)
        return "".join(parts[:i] + [parts[i], rng.choice(";,")] + parts[i:])
    if op == 3:                           # swap two tokens
        i, j = rng.choice(tokens), rng.choice(tokens)
        parts[i], parts[j] = parts[j], parts[i]
        return "".join(parts)
    if op == 4:                           # another clause name
        name = rng.choice(names)
        return spec.replace(rng.choice(names), rng.choice(
            [name, name[:-1], name.upper(), f" {name} "]), 1)
    if op == 5 and keys:                  # another key
        return spec.replace(f"{rng.choice(keys)}=",
                            f"{rng.choice(keys + ['zz', ''])}=", 1)
    if op == 6:                           # insert junk
        at = rng.randrange(len(spec) + 1)
        return spec[:at] + rng.choice(",;") + rng.choice(JUNK) + spec[at:]
    if op == 7:                           # change a separator
        at = [i for i, c in enumerate(spec) if c in ";,:=@"]
        if at:
            i = rng.choice(at)
            return spec[:i] + rng.choice(";,:=@") + spec[i + 1:]
    if op == 8:                           # pad
        at = rng.randrange(len(spec) + 1)
        return spec[:at] + rng.choice(("  ", "\t", " ")) + spec[at:]
    if op == 9:                           # truncate
        return spec[:rng.randrange(len(spec) + 1)]
    if op == 10:                          # two specs in one
        return spec + rng.choice(";,") + valid_spec(rng, grammar)
    at = rng.randrange(len(spec) + 1)     # one character in or out
    if rng.random() < 0.5 and spec:
        return spec[:at] + spec[at + 1:]
    return spec[:at] + rng.choice(":;,=@x±+-. ") + spec[at:]


def corpus(name: str, seed: int = 0) -> list[str]:
    """The pinned specs of grammar ``name`` (``seed`` 0), in order."""
    grammar = GRAMMARS[name]
    rng = random.Random(f"spec-grammar:{name}:{seed}")
    valid = [valid_spec(rng, grammar) for _ in range(VALID_PER_GRAMMAR)]
    mutated = []
    for _ in range(MUTATED_PER_GRAMMAR):
        spec = rng.choice(valid)
        for _ in range(1 + rng.randrange(3)):
            spec = _mutate(rng, spec, grammar)
        mutated.append(spec)
    return list(EDGES) + valid + mutated


def outcome(name: str, spec: str) -> str:
    """The parsed dataclass's repr, or ``ConfigError: <text>``."""
    try:
        return repr(GRAMMARS[name]["parse"](spec))
    except ConfigError as err:
        return f"ConfigError: {err}"


def digest(name: str, seed: int = 0) -> tuple[int, int, str]:
    h = hashlib.sha256()
    accepted = rejected = 0
    for spec in corpus(name, seed):
        out = outcome(name, spec)
        if out.startswith("ConfigError: "):
            rejected += 1
        else:
            accepted += 1
        h.update(f"{spec!r}\t{out}\n".encode())
    return accepted, rejected, h.hexdigest()


@pytest.mark.parametrize("name", sorted(GRAMMARS))
def test_corpus_covers_the_vocabulary(name):
    specs = corpus(name)
    text = "\n".join(specs)
    clauses = _clauses(GRAMMARS[name])
    for clause, form in clauses.items():
        assert clause in text
        if isinstance(form, dict):
            for key in form:
                assert f"{key.rstrip('!')}=" in text
    for value in ("nan", "±8", "2:1", "1@2x", "=,", "  "):
        assert value in text


@pytest.mark.parametrize("name", sorted(GRAMMARS))
def test_grammar_pin(name):
    assert digest(name) == PINS[name]
