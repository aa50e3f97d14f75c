"""repro.cluster: N machines under one clock, leased via PaxosLease.

The multi-node layer.  A :class:`Cluster` drives N
:class:`~repro.core.machine.Machine` instances on one shared simulated
clock, connects them with a lossy latency-modeled
:class:`InterNodeNetwork`, and negotiates *inter-node* object ownership
with a diskless PaxosLease protocol (:class:`PaxosAgent`).  A
:class:`DistributedLeaseManager` per node then layers that ownership
over the paper's intra-node Lease/Release: a node only issues
``Lease`` on lines it holds the cluster lease for.

Everything is deterministic per ``(ClusterConfig, seed)``,
checkpointable via ``state_dict``/``load_state``, and fuzzed by
``repro check cluster_lease`` (the ≤1-holder safety property under
message loss, duplication, partitions and timer skew).
"""

from .cluster import Cluster, ClusterCodec, node_seed
from .config import ClusterConfig
from .internode import InterNodeNetwork
from .manager import DistributedLeaseManager
from .paxoslease import PaxosAgent
from .spec import ClusterFaultSpec, parse_cluster_spec
from .workloads import bench_cluster, build_cluster, verify_cluster_counters

__all__ = [
    "Cluster",
    "ClusterCodec",
    "ClusterConfig",
    "ClusterFaultSpec",
    "DistributedLeaseManager",
    "InterNodeNetwork",
    "PaxosAgent",
    "bench_cluster",
    "build_cluster",
    "node_seed",
    "parse_cluster_spec",
    "verify_cluster_counters",
]
