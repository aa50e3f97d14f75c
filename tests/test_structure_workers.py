"""The shared closed-loop bodies of :mod:`repro.structures.workers`: every
structure binds one of the four, and each reports its ops as before."""

from __future__ import annotations

from collections import Counter

import pytest

from conftest import make_machine

import repro.structures
from repro.check import HistoryRecorder
from repro.structures import HarrisList, workers

SHARED = {workers.pair_worker, workers.pq_worker, workers.counter_worker,
          workers.set_worker}


def _workers(cls) -> list:
    return [fn for fn in (getattr(cls, "update_worker", None),
                          getattr(cls, "mixed_worker", None))
            if fn is not None]


def test_every_worker_is_a_shared_body():
    with_worker = 0
    for name in repro.structures.__all__:
        cls = getattr(repro.structures, name)
        for fn in _workers(cls):
            assert fn in SHARED, f"{name} has its own worker body {fn}"
            with_worker += 1
    # Every exported class but the sequential PQ runs a benchmark body.
    assert with_worker == len(repro.structures.__all__) - 1


@pytest.mark.parametrize("name", [
    n for n in repro.structures.__all__
    if getattr(getattr(repro.structures, n), "update_worker", None)
    is workers.pair_worker])
def test_pair_names_two_operations(name):
    cls = getattr(repro.structures, name)
    put, take = cls.PAIR
    assert callable(getattr(cls, put)) and callable(getattr(cls, take))


class _CyclingRolls:
    """random.Random stand-in: ``randrange(100)`` cycles 0..99, so a
    hundred ops visit every roll once; every other draw (the key) is 0."""

    def __init__(self) -> None:
        self._roll = 0

    def randrange(self, n: int) -> int:
        if n != 100:
            return 0
        self._roll += 1
        return (self._roll - 1) % 100


# Regression: the closed-loop set worker used to give the odd point of
# an odd update share to deletes, while op_mix and the open-loop
# op_for_key gave it to inserts.
@pytest.mark.parametrize("pct", [1, 5, 33, 99])
def test_odd_update_share_gives_inserts_the_extra_point(pct):
    m = make_machine(1)
    s = HarrisList(m)
    hist = m.attach_tracer(HistoryRecorder())

    def body(ctx):
        ctx.rng = _CyclingRolls()
        yield from s.mixed_worker(ctx, 100, 8, pct)

    m.add_thread(body)
    m.run()
    ops = Counter(r.op for r in hist.records)
    assert (ops["insert"], ops["delete"], ops["contains"]) == (
        (pct + 1) // 2, pct // 2, 100 - pct)
