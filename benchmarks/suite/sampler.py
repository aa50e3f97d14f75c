"""Statistical stack sampler that charges host CPU time to simulator layers.

A ``SIGPROF`` interval timer interrupts the process every ``interval``
seconds of CPU time.  The handler walks the interrupted stack from the
innermost frame outwards and charges the sample to the first frame whose
module lives under ``repro.``: its subpackage (``repro.engine.simulator``
-> ``engine``), or, for the coherence subpackage, its module
(``repro.coherence.directory`` -> ``coherence.directory``).  Stdlib frames
called from a layer (``heapq``, ``random``) are therefore charged to that
layer, and samples with no ``repro`` frame at all go to ``other``.

At ~250 samples/s the handler costs well under 1% of host time, unlike
``cProfile``, whose per-call cost inflates call-heavy layers and shifts
the shares.  Only the main thread is sampled (signals are delivered
there), which covers the whole simulator: it is single-threaded.
"""

from __future__ import annotations

import signal
from collections import Counter
from typing import Mapping

#: Every layer a sample can be charged to, in report order.
LAYERS = (
    "engine", "core",
    "coherence.directory", "coherence.memunit", "coherence.network",
    "coherence.cache", "coherence.l2", "coherence.links",
    "lease", "trace", "sync", "structures", "mem", "traffic", "stats",
    "workloads", "harness", "other",
)

#: Seconds of process CPU time between samples.
DEFAULT_INTERVAL = 0.004


def layer_of_module(module: str) -> str | None:
    """The layer a frame of ``module`` belongs to; None outside ``repro``.

    Parts of ``repro`` that are not one of :data:`LAYERS` (config, faults,
    state, ...) map to ``other``."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) < 2:
        return "other"
    name = ".".join(parts[1:3]) if parts[1] == "coherence" else parts[1]
    return name if name in LAYERS else "other"


def layer_of_frame(frame) -> str:
    """The layer of the innermost ``repro`` frame on ``frame``'s stack."""
    while frame is not None:
        layer = layer_of_module(frame.f_globals.get("__name__", ""))
        if layer is not None:
            return layer
        frame = frame.f_back
    return "other"


class StackSampler:
    """Counts ``SIGPROF`` samples per layer between :meth:`start` and
    :meth:`stop`.  Use one sampler at a time per process: the timer and
    the signal handler are process-wide."""

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        self.interval = interval
        self.counts: Counter[str] = Counter()
        self._previous = None

    def _on_sample(self, signum, frame) -> None:
        self.counts[layer_of_frame(frame)] += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)


def shares(counts: Mapping[str, int]) -> dict[str, float]:
    """Fraction of the samples in ``counts`` per layer (every layer
    present; sums to 1 whenever at least one sample was taken)."""
    total = sum(counts.values())
    return {layer: counts.get(layer, 0) / total if total else 0.0
            for layer in LAYERS}
