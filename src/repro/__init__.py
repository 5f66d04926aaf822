"""repro — iBFS: Concurrent Breadth-First Search on GPUs (SIGMOD 2016).

A full reimplementation of Liu, Huang & Hu's iBFS system on a
deterministic GPU execution-model simulator:

* :mod:`repro.graph` — CSR graphs, Graph500/R-MAT/uniform generators,
  I/O, and the paper's 13-graph benchmark suite at laptop scale;
* :mod:`repro.gpusim` — SIMT simulator: coalesced-transaction counting,
  warp votes, Hyper-Q overlap, device/cluster cost models;
* :mod:`repro.bfs` — direction-optimizing single-source BFS plus the
  sequential and naive concurrent baselines;
* :mod:`repro.core` — iBFS itself: joint traversal, GroupBy, and the
  bitwise status array with bottom-up early termination;
* :mod:`repro.plan` — the unified per-level traversal planner: typed
  per-level decisions from pluggable policies (heuristic, fixed,
  adaptive), recorded as replayable :class:`~repro.plan.RunPlan`\\ s;
* :mod:`repro.baselines` — MS-BFS, B40C, SpMM-BC, CPU-iBFS comparators;
* :mod:`repro.apps` — reachability indexing, closeness and betweenness
  centrality on top of concurrent BFS;
* :mod:`repro.service` — online serving layer: dynamic micro-batching
  of request streams into GroupBy-formed groups, LRU result caching,
  admission control/backpressure, and serving metrics;
* :mod:`repro.exec` — real multi-process execution backend: BFS groups
  run concurrently on worker processes over a shared-memory graph, with
  work-stealing dispatch and worker fault tolerance, bit-identical to
  the serial engine;
* :mod:`repro.dist` — partitioned distributed traversal: the graph is
  split into 1D vertex-range or 2D edge-block partitions and traversed
  level-synchronously with a dense/sparse frontier exchange, for graphs
  too big for any single device — bit-identical to the serial engine.

Quickstart
----------
>>> from repro import kronecker, IBFS, IBFSConfig
>>> g = kronecker(scale=10, edge_factor=16, seed=1)
>>> engine = IBFS(g, IBFSConfig(group_size=64))
>>> result = engine.run(sources=range(64))
>>> result.teps > 0
True
"""

from repro.errors import (
    ReproError,
    GraphError,
    GraphFormatError,
    SimulationError,
    CapacityError,
    TraversalError,
    GroupingError,
    ServiceError,
    QueueFullError,
    RequestTimeoutError,
    RequestFailedError,
    ExecutorError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.graph import (
    CSRGraph,
    WeightedCSRGraph,
    with_random_weights,
    with_unit_weights,
    from_edges,
    from_adjacency,
    kronecker,
    rmat,
    uniform_random,
    benchmark_graph,
    benchmark_suite,
    BENCHMARK_NAMES,
)
from repro.gpusim import (
    Device,
    DeviceConfig,
    Cluster,
    KEPLER_K40,
    KEPLER_K20,
    XEON_CPU,
)
from repro.bfs import (
    reference_bfs,
    reference_bfs_multi,
    validate_depths,
    dijkstra,
    bellman_ford,
    DeltaStepping,
    SingleBFS,
    SequentialConcurrentBFS,
    NaiveConcurrentBFS,
    DirectionPolicy,
)
from repro.core import (
    IBFS,
    IBFSConfig,
    JointTraversal,
    BitwiseTraversal,
    ConcurrentResult,
    GroupByConfig,
    group_sources,
    random_groups,
)
from repro.plan import (
    AdaptivePolicy,
    FixedPolicy,
    HeuristicPolicy,
    LevelDecision,
    POLICY_NAMES,
    RecordedPolicy,
    RunPlan,
    make_policy,
)
from repro.baselines import MSBFS, B40C, SpMMBC, CPUiBFS
from repro.service import (
    BFSServer,
    InProcessClient,
    ServingConfig,
    Request,
    Response,
    WorkloadConfig,
    run_closed_loop,
    compare_serving,
)
from repro.exec import (
    ExecConfig,
    ExecStats,
    FaultPlan,
    FaultPolicy,
    GroupExecutor,
)
from repro.dist import (
    CommCostModel,
    DistConfig,
    DistStats,
    ExchangePolicy,
    GraphPartitioner,
    PartitionedEngine,
)
from repro.apps import (
    build_reachability_index,
    closeness_centrality,
    betweenness_centrality,
    apsp_unweighted,
    floyd_warshall,
    connected_components_concurrent,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "GraphError",
    "GraphFormatError",
    "SimulationError",
    "CapacityError",
    "TraversalError",
    "GroupingError",
    "ServiceError",
    "QueueFullError",
    "RequestTimeoutError",
    "RequestFailedError",
    "ExecutorError",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "CSRGraph",
    "WeightedCSRGraph",
    "with_random_weights",
    "with_unit_weights",
    "from_edges",
    "from_adjacency",
    "kronecker",
    "rmat",
    "uniform_random",
    "benchmark_graph",
    "benchmark_suite",
    "BENCHMARK_NAMES",
    "Device",
    "DeviceConfig",
    "Cluster",
    "KEPLER_K40",
    "KEPLER_K20",
    "XEON_CPU",
    "reference_bfs",
    "reference_bfs_multi",
    "validate_depths",
    "dijkstra",
    "bellman_ford",
    "DeltaStepping",
    "SingleBFS",
    "SequentialConcurrentBFS",
    "NaiveConcurrentBFS",
    "DirectionPolicy",
    "IBFS",
    "IBFSConfig",
    "JointTraversal",
    "BitwiseTraversal",
    "ConcurrentResult",
    "GroupByConfig",
    "group_sources",
    "random_groups",
    "AdaptivePolicy",
    "FixedPolicy",
    "HeuristicPolicy",
    "LevelDecision",
    "POLICY_NAMES",
    "RecordedPolicy",
    "RunPlan",
    "make_policy",
    "MSBFS",
    "B40C",
    "SpMMBC",
    "CPUiBFS",
    "build_reachability_index",
    "closeness_centrality",
    "betweenness_centrality",
    "apsp_unweighted",
    "floyd_warshall",
    "connected_components_concurrent",
    "BFSServer",
    "InProcessClient",
    "ServingConfig",
    "Request",
    "Response",
    "WorkloadConfig",
    "run_closed_loop",
    "compare_serving",
    "ExecConfig",
    "ExecStats",
    "FaultPlan",
    "FaultPolicy",
    "GroupExecutor",
    "CommCostModel",
    "DistConfig",
    "DistStats",
    "ExchangePolicy",
    "GraphPartitioner",
    "PartitionedEngine",
    "__version__",
]
