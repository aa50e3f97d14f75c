"""Sweep runner: executes a benchmark driver across thread counts and
variants, producing the rows/series the paper's figures plot.

Sweep cells (variant x thread count) are independent simulations, so with
``jobs > 1`` they fan out over a :class:`~concurrent.futures.
ProcessPoolExecutor`.  Results are reassembled in the fixed variant-major,
thread-minor order regardless of completion order, and every simulation is
deterministic for its seed, so a parallel sweep returns exactly what the
serial sweep returns (the test suite asserts equality).

Every cell, serial or on a worker, ends with a garbage collection scoped
to what the cell allocated, so a finished cell's ``Machine`` is freed
before the next cell is built and a sweep's peak memory is its largest
cell, not the sum of its cells (see :func:`_run_cell`)."""

from __future__ import annotations

import gc
from typing import Any, Callable, Iterable, Sequence

from ..stats import RunResult
from ..stats.report import format_table

#: The paper's x-axis: "We tested for 2, 4, 8, 16, 32, 64 threads/cores."
PAPER_THREAD_COUNTS = (2, 4, 8, 16, 32, 64)


def sweep(bench: Callable[..., RunResult],
          variants: dict[str, dict[str, Any]],
          thread_counts: Sequence[int] = PAPER_THREAD_COUNTS,
          *, jobs: int = 1, **common: Any) -> dict[str, list[RunResult]]:
    """Run ``bench(threads, **variant_kwargs, **common)`` for every variant
    and thread count.  Returns ``{variant_name: [RunResult, ...]}`` in
    thread-count order.  ``jobs > 1`` runs the cells on that many worker
    processes (same results, reassembled deterministically)."""
    cells = [(name, n) for name in variants for n in thread_counts]
    if jobs > 1 and len(cells) > 1:
        # Sinks hide in two places: the sweep-wide common kwargs and each
        # variant's own kwargs.  Both would be silently pickled into (or
        # fail to reach) worker processes, so both are rejected alike.
        if common.get("sinks") or any(
                kw.get("sinks") for kw in variants.values()):
            raise ValueError(
                "trace sinks cannot cross process boundaries; run a traced "
                "sweep with jobs=1")
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as ex:
            futures = [
                ex.submit(_run_cell, bench, n, variants[name], common)
                for name, n in cells
            ]
            results = [f.result() for f in futures]
    else:
        results = [_run_cell(bench, n, variants[name], common)
                   for name, n in cells]
    out: dict[str, list[RunResult]] = {name: [] for name in variants}
    for (name, _n), res in zip(cells, results):
        out[name].append(res)
    return out


def _cell_descriptor(bench: Callable[..., RunResult], num_threads: int,
                     variant_kw: dict[str, Any], common: dict[str, Any]
                     ) -> dict[str, Any]:
    """JSON-safe identity of one sweep cell, for checkpoint naming and
    warm-start matching.  Scalar kwargs are kept verbatim; the config and
    fault spec are covered by the checkpoint container itself, and sinks
    never affect simulated state, so neither contributes here."""
    merged = {**common, **variant_kw}
    kwargs = {k: v for k, v in sorted(merged.items())
              if k not in ("config", "sinks", "schedule")
              and (v is None or isinstance(v, (bool, int, float, str)))}
    return {"bench": bench.__name__, "num_threads": num_threads,
            "kwargs": kwargs}


def _run_cell(bench: Callable[..., RunResult], num_threads: int,
              variant_kw: dict[str, Any], common: dict[str, Any]
              ) -> RunResult:
    """One sweep cell (module-level so it pickles to worker processes).

    A finished cell's ``Machine`` is a web of reference cycles (cores,
    memory units, directory, pending events, thread generators), and a
    sweep seldom allocates enough for the collector's thresholds to reach
    its oldest generation, so without help finished machines pile up in
    memory cell after cell.  ``gc.freeze()`` hides every object that
    predates the cell from the collector; the collection in ``finally``,
    once the driver returns or raises, then walks only what the cell
    created and frees the machine, and ``gc.unfreeze()`` hands the older
    objects back.  A cell that raises keeps its machine alive through the
    traceback."""
    from ..state import hooks

    prev = hooks.cell
    if hooks.run_hook is not None:
        hooks.cell = _cell_descriptor(bench, num_threads, variant_kw, common)
    gc.freeze()
    try:
        return bench(num_threads, **variant_kw, **common)
    finally:
        hooks.cell = prev
        gc.collect()
        gc.unfreeze()


def valid_metrics() -> tuple[str, ...]:
    """Metric names accepted by :func:`series_table` (and the ``--metric``
    CLI flag): the numeric ``RunResult`` fields plus the two display
    aliases."""
    from dataclasses import fields

    numeric = tuple(f.name for f in fields(RunResult)
                    if f.type in ("int", "float", int, float))
    return ("mops_per_sec", "nj_per_op") + numeric


def series_table(results: dict[str, list[RunResult]],
                 metric: str = "mops_per_sec") -> str:
    """Format sweep results as one row per variant, one column per thread
    count -- the textual equivalent of a paper figure."""
    choices = valid_metrics()
    if metric not in choices:
        raise ValueError(
            f"unknown metric {metric!r}; valid metrics: "
            f"{', '.join(choices)}")
    rows = []
    for name, series in results.items():
        row: dict[str, Any] = {"variant": name}
        for r in series:
            if metric == "mops_per_sec":
                val = round(r.mops_per_sec, 3)
            elif metric == "nj_per_op":
                val = round(r.energy_nj_per_op, 1)
            else:
                val = round(getattr(r, metric), 3)
            row[f"t={r.num_threads}"] = val
        rows.append(row)
    return format_table(rows)


def run_all(thread_counts: Sequence[int] = (2, 8, 32),
            names: Iterable[str] | None = None,
            verbose: bool = True) -> dict[str, dict]:
    """Run every registered experiment (optionally a subset) at reduced
    thread counts; used by the examples and for quick validation."""
    from .experiments import EXPERIMENTS, run_experiment

    out = {}
    for name in (names or EXPERIMENTS):
        result = run_experiment(name, thread_counts=thread_counts)
        out[name] = result
        if verbose:
            print(f"== {name}: {EXPERIMENTS[name].title} ==")
            if isinstance(result, dict):
                print(series_table(result))
            print()
    return out
