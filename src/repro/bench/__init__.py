"""repro.bench: microbenchmarks and the perf-regression gate.

``python -m repro bench [targets...] [--quick] [--baseline FILE]`` times
the simulator's hot loops (event-queue churn, coherence storms, contended
structure runs, a full sweep cell, and the fault, checkpoint, traffic,
cluster and link scenarios), writes one ``BENCH_<name>.json`` per target,
and optionally diffs the normalized scores against a committed baseline
with a tolerance gate.

See DESIGN.md ("Benchmarking") for the record schema and the
cross-machine score normalization.
"""

from .runner import (BENCH_FORMAT, DEFAULT_TOLERANCE, calibration_ops_per_sec,
                     default_target_names, diff_results, format_diff,
                     load_baseline, machine_fingerprint, profile_target,
                     record_summary_line, run_many, run_target, write_baseline,
                     write_results)
from .targets import TARGETS, BenchTarget

__all__ = [
    "BENCH_FORMAT", "DEFAULT_TOLERANCE", "TARGETS", "BenchTarget",
    "calibration_ops_per_sec", "default_target_names", "diff_results",
    "format_diff", "load_baseline", "machine_fingerprint", "profile_target",
    "record_summary_line", "run_many", "run_target", "write_baseline",
    "write_results",
]
