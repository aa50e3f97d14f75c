"""repro -- reproduction of *Lease/Release: Architectural Support for
Scaling Contended Data Structures* (PPoPP 2016).

The package provides:

* a deterministic discrete-event simulator of a tiled multicore with a
  directory-based MSI coherence protocol (:mod:`repro.coherence`) -- the
  Graphite-equivalent substrate;
* the Lease/Release mechanism of the paper (:mod:`repro.lease`), hooked
  into the per-core L1 controllers;
* the paper's workloads: classic concurrent data structures
  (:mod:`repro.structures`), locks (:mod:`repro.sync`), a TL2-style STM
  (:mod:`repro.stm`) and applications (:mod:`repro.apps`);
* a benchmark harness regenerating every figure of the paper
  (:mod:`repro.harness`).

Quickstart::

    from repro import Machine, MachineConfig
    from repro.structures import TreiberStack

    m = Machine(MachineConfig(num_cores=8, seed=42).with_leases(True))
    stack = TreiberStack(m)
    for i in range(8):
        m.add_thread(stack.update_worker, ops=200)
    m.run()
    print(m.result("stack").mops_per_sec)
"""

from .config import (EnergyConfig, LeaseConfig, MachineConfig, NetworkConfig,
                     WORD_SIZE)
from .core import (CAS, Ctx, Fence, FetchAdd, Lease, Load, Machine,
                   MultiLease, Release, ReleaseAll, Store, Swap, TestAndSet,
                   ThreadHandle, Work)
from .errors import (AllocationError, ConfigError, LeaseError, ProtocolError,
                     ReproError, SimulationError, SimulationTimeout)
from .faults import FaultPlan, FaultSpec, build_plan, parse_fault_spec
from .stats import Counters, EnergyModel, RunResult
from .trace import (ContentionHeatmap, CountersTracer, InvariantTracer,
                    JsonlTracer, NullTracer, RingBufferTracer, TraceBus,
                    TraceEvent, Tracer)

__version__ = "1.1.0"

__all__ = [
    "MachineConfig", "LeaseConfig", "NetworkConfig", "EnergyConfig",
    "WORD_SIZE",
    "Machine", "Ctx", "ThreadHandle",
    "Load", "Store", "CAS", "FetchAdd", "Swap", "TestAndSet", "Work",
    "Fence", "Lease", "Release", "MultiLease", "ReleaseAll",
    "Counters", "EnergyModel", "RunResult",
    "TraceEvent", "Tracer", "NullTracer", "TraceBus", "CountersTracer",
    "RingBufferTracer", "JsonlTracer", "ContentionHeatmap",
    "InvariantTracer",
    "ReproError", "ConfigError", "SimulationError", "SimulationTimeout",
    "ProtocolError", "LeaseError", "AllocationError",
    "FaultSpec", "FaultPlan", "parse_fault_spec", "build_plan",
    "__version__",
]
