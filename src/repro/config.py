"""Machine configuration.

The defaults encode Table 1 of the paper:

======================  =============================================
Parameter               Value
======================  =============================================
Core model              1 GHz, in-order core
L1-I/D cache per tile   32 KB, 4-way, 1 cycle
L2 cache per tile       256 KB, 8-way, inclusive, tag/data 3/8 cycles
Cache-line size         64 bytes
Coherence protocol      MSI (private L1, shared L2)
======================  =============================================

plus the lease parameters from Sections 3-5 (``MAX_LEASE_TIME`` defaults to
20K cycles = 20 microseconds at 1 GHz, as used in the evaluation; the
sensitivity experiment lowers it to 1K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Literal

from .errors import ConfigError

#: Number of bytes in one machine word (all simulated values are one word).
WORD_SIZE = 8


@dataclass(frozen=True)
class LeaseConfig:
    """Parameters of the Lease/Release mechanism (Section 3)."""

    #: Master switch; with ``enabled=False`` the Lease/Release instructions
    #: become timing no-ops so the same workload code runs as the baseline.
    enabled: bool = True
    #: Upper bound on the length of any lease, in core cycles (system-wide
    #: constant; 20K cycles == 20 us at 1 GHz, the paper's default).
    max_lease_time: int = 20_000
    #: Upper bound on the number of simultaneously held leases per core.
    max_num_leases: int = 8
    #: ``'hardware'`` acquires MultiLease groups in global sorted order and
    #: starts all counters jointly (Section 4); ``'software'`` emulates
    #: MultiLease with staggered single-location leases (Section 4,
    #: "Software Implementation").
    multilease_mode: Literal["hardware", "software"] = "hardware"
    #: Approximation of the time to fulfil one ownership request, used by the
    #: software MultiLease emulation to stagger timeouts (parameter ``X``).
    software_stagger_cycles: int = 120
    #: Section 5 "Prioritization": when True, a *regular* (non-lease)
    #: coherence request breaks an existing lease instead of queuing.
    #: On by default: it bounds the stall when a non-leasing access hits a
    #: leased line (e.g. the second-object lock acquisition in the TL2
    #: single-lease variant, or a dequeuer reading the leased tail pointer
    #: in Algorithm 3) and is what makes the Section 7 "improper use"
    #: mitigation work.  The A1 ablation benchmark studies it.
    prioritize_regular_requests: bool = True
    #: Extra core cycles charged per address by the *software* MultiLease
    #: emulation (sorting and group bookkeeping run as instructions rather
    #: than in the L1 controller) -- the paper's "slight, but consistent
    #: performance hit because of the extra software operations".
    software_multilease_overhead_cycles: int = 16
    #: Section 5 "Speculative Execution": track, per lease site (the
    #: hardware proposal uses the program counter of the lease), how often
    #: leases end involuntarily, and stop honouring sites above the
    #: threshold.  Off by default, as in the paper ("could benefit from").
    predictor_enabled: bool = False
    #: Minimum observed leases before a site can be blacklisted.
    predictor_min_samples: int = 8
    #: Involuntary-release fraction above which a site is ignored.
    predictor_threshold: float = 0.5

    def validate(self) -> None:
        if self.max_lease_time <= 0:
            raise ConfigError("max_lease_time must be positive")
        if self.max_num_leases <= 0:
            raise ConfigError("max_num_leases must be positive")
        if self.software_stagger_cycles < 0:
            raise ConfigError("software_stagger_cycles must be >= 0")
        if self.software_multilease_overhead_cycles < 0:
            raise ConfigError(
                "software_multilease_overhead_cycles must be >= 0")
        if self.predictor_min_samples < 1:
            raise ConfigError("predictor_min_samples must be >= 1")
        if not 0.0 < self.predictor_threshold <= 1.0:
            raise ConfigError("predictor_threshold must be in (0, 1]")
        if self.multilease_mode not in ("hardware", "software"):
            raise ConfigError(
                f"unknown multilease_mode {self.multilease_mode!r}")


@dataclass(frozen=True)
class NetworkConfig:
    """2-D mesh on-chip network latency model (Graphite-style)."""

    #: Fixed per-message router/injection overhead, cycles.
    base_latency: int = 4
    #: Per-mesh-hop latency, cycles.
    hop_latency: int = 2
    #: Extra serialization latency for messages carrying a data payload
    #: (one cache line), cycles.
    data_latency: int = 8
    #: Contended-interconnect spec (see :mod:`repro.coherence.links`),
    #: e.g. ``"link:bw=2,queue=16;arb:wrr,weights=2:1;port:dir=2,mem=4"``.
    #: Empty string (or ``"infinite"``) = the contention-free analytic
    #: model; behaviour is bit-identical to a build without the links
    #: module.  Kept as the raw string so configs stay picklable across
    #: ``--jobs`` workers.
    spec: str = ""

    def validate(self) -> None:
        if min(self.base_latency, self.hop_latency, self.data_latency) < 0:
            raise ConfigError("network latencies must be non-negative")
        if self.spec:
            # Lazy import: coherence depends on config, so the grammar
            # must be pulled in at validation time only.
            from .coherence.links import parse_network_spec
            parse_network_spec(self.spec)


@dataclass(frozen=True)
class EnergyConfig:
    """Event-based energy model, nanojoules per event.

    The paper reports energy per operation and observes that it tracks the
    number of coherence messages and cache misses; this model derives energy
    from exactly those counters.  The constants are in the range of published
    32 nm McPAT-style figures; only relative magnitudes matter for the
    reproduced trends.
    """

    l1_access_nj: float = 0.1
    l2_access_nj: float = 1.0
    dram_access_nj: float = 20.0
    #: Per coherence message (control payload).
    message_nj: float = 0.5
    #: Extra energy per network hop traversed.
    hop_nj: float = 0.1
    #: Extra energy for a data-carrying message.
    data_message_nj: float = 1.0
    #: Static (leakage + clock) energy per core per cycle.
    static_nj_per_core_cycle: float = 0.002

    def validate(self) -> None:
        for name in ("l1_access_nj", "l2_access_nj", "dram_access_nj",
                     "message_nj", "hop_nj", "data_message_nj",
                     "static_nj_per_core_cycle"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True)
class MachineConfig:
    """Top-level configuration of the simulated tiled multicore."""

    num_cores: int = 8
    #: Cache-line size in bytes (Table 1: 64 B).
    line_size: int = 64
    #: Private L1 data cache: 32 KB, 4-way, 1-cycle access.
    l1_size_bytes: int = 32 * 1024
    l1_assoc: int = 4
    l1_latency: int = 1
    #: Shared L2 (one slice per tile): 256 KB/tile, 8-way, tag 3 / data 8.
    l2_size_bytes_per_tile: int = 256 * 1024
    l2_assoc: int = 8
    l2_tag_latency: int = 3
    l2_data_latency: int = 8
    #: Off-chip access charged on first touch of a line (cold miss).
    dram_latency: int = 100
    #: Core clock, used only to convert cycles to seconds in reports.
    clock_hz: int = 1_000_000_000
    #: Coherence protocol: the paper evaluates on MSI (Table 1) and notes
    #: (Section 8) that Lease/Release applies to MESI with the same
    #: semantics; both are implemented.
    protocol: Literal["msi", "mesi"] = "msi"

    lease: LeaseConfig = field(default_factory=LeaseConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)

    #: Deterministic seed for all randomness in the machine and workloads.
    seed: int = 1

    #: Fault-injection spec (see :mod:`repro.faults`), e.g.
    #: ``"net_jitter:p=0.01,max=200;dir_nack:p=0.005"``.  Empty string =
    #: no fault plan installed; behaviour is bit-identical to a build
    #: without the fault subsystem.  Kept as the raw string (not a parsed
    #: object) so configs stay picklable across ``--jobs`` workers.
    fault_spec: str = ""

    #: Safety budgets: the simulation aborts with SimulationTimeout when
    #: either is exceeded (catches livelocked workloads).
    max_cycles: int = 2_000_000_000
    max_events: int = 200_000_000

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.num_cores < 1:
            raise ConfigError("num_cores must be >= 1")
        if self.line_size < WORD_SIZE or self.line_size % WORD_SIZE:
            raise ConfigError("line_size must be a positive multiple of 8")
        if self.line_size & (self.line_size - 1):
            raise ConfigError("line_size must be a power of two")
        for name in ("l1_size_bytes", "l1_assoc", "l1_latency",
                     "l2_size_bytes_per_tile", "l2_assoc", "l2_tag_latency",
                     "l2_data_latency", "dram_latency", "clock_hz",
                     "max_cycles", "max_events"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.l1_size_bytes % (self.line_size * self.l1_assoc):
            raise ConfigError("L1 size must be divisible by assoc*line_size")
        if self.protocol not in ("msi", "mesi"):
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.fault_spec:
            # Lazy import: faults depends on errors/sync only, but config
            # must stay importable first.
            from .faults.spec import parse_fault_spec
            spec = parse_fault_spec(self.fault_spec)
            for core, _mult in spec.slow_cores:
                if core >= self.num_cores:
                    raise ConfigError(
                        f"fault spec: slow_core {core} out of range for "
                        f"{self.num_cores} cores")
        self.lease.validate()
        self.network.validate()
        self.energy.validate()

    # -- derived geometry ---------------------------------------------------

    @property
    def l1_num_sets(self) -> int:
        return self.l1_size_bytes // (self.line_size * self.l1_assoc)

    @property
    def mesh_dim(self) -> int:
        """Side of the smallest square mesh holding ``num_cores`` tiles."""
        return max(1, math.isqrt(self.num_cores - 1) + 1) \
            if self.num_cores > 1 else 1

    def with_leases(self, enabled: bool) -> "MachineConfig":
        """Copy of this config with leases switched on/off."""
        return replace(self, lease=replace(self.lease, enabled=enabled))

    def with_cores(self, num_cores: int) -> "MachineConfig":
        """Copy of this config with a different core count."""
        return replace(self, num_cores=num_cores)
