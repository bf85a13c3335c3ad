"""repro — service brokers for accessing backend servers in web applications.

A full reproduction of Chen & Mohapatra, *"Using Service Brokers for
Accessing Backend Servers for Web Applications"* (ICDCS 2003), built on a
from-scratch discrete-event simulation substrate.

The package layers, bottom to top:

* :mod:`repro.sim` — deterministic discrete-event kernel;
* :mod:`repro.net` — nodes, links, streams, datagrams;
* :mod:`repro.db`, :mod:`repro.ldapdir`, :mod:`repro.mail`,
  :mod:`repro.http` — the backend servers;
* :mod:`repro.frontend` — the front-end web server and the API-based
  baseline access model;
* :mod:`repro.core` — the paper's contribution: the service broker
  framework (QoS admission, clustering, caching, prefetching, pooling,
  load balancing, transactions, centralized/distributed models);
* :mod:`repro.workload` — clients and the paper's two testbeds;
* :mod:`repro.metrics` — statistics and report rendering;
* :mod:`repro.obs` — request tracing, latency histograms, exporters.
"""

from .analysis import mm1_metrics, mmc_metrics, mva_single_station
from .core import (
    AdmissionController,
    BackpressureStage,
    BrokerClient,
    BrokerPeerGroup,
    BrokerReply,
    BrokerRequest,
    BrokerStage,
    BrokerSupervisor,
    CentralizedController,
    ClusteringConfig,
    ConnectionPool,
    DatabaseAdapter,
    DirectoryAdapter,
    FidelityPolicy,
    FileAdapter,
    FileBatchCombiner,
    HotSpotGate,
    HotSpotMonitor,
    HotSpotNotice,
    HttpAdapter,
    IdenticalRequestCombiner,
    InListQueryCombiner,
    LatencyAwareBalancer,
    LeastOutstandingBalancer,
    LoadListener,
    MailAdapter,
    MgetCombiner,
    Prefetcher,
    PrefetchRule,
    CircuitBreaker,
    QoSPolicy,
    RepeatWorkloadCombiner,
    ReplyStatus,
    RequestContext,
    RecoveryJournal,
    ResourceProfileRegistry,
    ResultCache,
    RetryPolicy,
    RoundRobinBalancer,
    ServiceBroker,
    SharedCacheTier,
    HashRing,
    ShardDirectory,
    ShardGroup,
    ShardPeerGroup,
    StagePipeline,
    TransactionTracker,
    compose_stages,
)
from .db import Database, DatabaseClient, DatabaseServer
from .frontend import ApiBackendGateway, FrontendWebServer, WebApplication, qos_of
from .http import BackendWebServer, HttpClient, HttpRequest, HttpResponse
from .fileserver import DiskModel, FileClient, FileServer, FileSystem
from .ldapdir import DirectoryClient, DirectoryServer, DirectoryTree
from .mail import MailClient, MailServer, MessageStore
from .metrics import (
    LatencyHistogram,
    MetricsRegistry,
    SummaryStats,
    render_series,
    render_table,
)
from .obs import (
    Span,
    Trace,
    TraceCollector,
    critical_path,
    render_attribution,
    render_waterfall,
    trace_from_context,
    validate_chrome_trace,
    write_chrome_trace,
)
from .net import (
    Address,
    BackendCrash,
    BrokerCrash,
    FaultInjector,
    FaultPlan,
    Link,
    LinkDegrade,
    LinkDown,
    Network,
    Node,
    SlowBackend,
)
from .sim import HostCpu, Simulation
from .workload import (
    BurstClient,
    ChaosResult,
    ClosedLoopClient,
    FailureRecoveryResult,
    OpenLoopGenerator,
    OverloadResult,
    run_chaos_experiment,
    run_clustering_experiment,
    run_failure_recovery_experiment,
    run_overload_experiment,
    run_qos_experiment,
    zipf_sampler,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # kernel & network
    "Simulation",
    "HostCpu",
    "Network",
    "Node",
    "Link",
    "Address",
    "BackendCrash",
    "BrokerCrash",
    "LinkDown",
    "LinkDegrade",
    "SlowBackend",
    "FaultPlan",
    "FaultInjector",
    # backends
    "Database",
    "DatabaseServer",
    "DatabaseClient",
    "DirectoryServer",
    "DirectoryClient",
    "DirectoryTree",
    "MailServer",
    "FileServer",
    "FileClient",
    "FileSystem",
    "DiskModel",
    "MailClient",
    "MessageStore",
    "BackendWebServer",
    "HttpClient",
    "HttpRequest",
    "HttpResponse",
    # front end & baseline
    "FrontendWebServer",
    "WebApplication",
    "ApiBackendGateway",
    "qos_of",
    # broker framework
    "ServiceBroker",
    "BrokerStage",
    "StagePipeline",
    "RequestContext",
    "compose_stages",
    "HashRing",
    "ShardGroup",
    "ShardDirectory",
    "ShardPeerGroup",
    "BackpressureStage",
    "BrokerSupervisor",
    "RecoveryJournal",
    "CircuitBreaker",
    "RetryPolicy",
    "BrokerClient",
    "BrokerRequest",
    "BrokerReply",
    "ReplyStatus",
    "QoSPolicy",
    "AdmissionController",
    "ResultCache",
    "SharedCacheTier",
    "ClusteringConfig",
    "IdenticalRequestCombiner",
    "RepeatWorkloadCombiner",
    "MgetCombiner",
    "InListQueryCombiner",
    "FileBatchCombiner",
    "ConnectionPool",
    "Prefetcher",
    "PrefetchRule",
    "FidelityPolicy",
    "TransactionTracker",
    "BrokerPeerGroup",
    "HotSpotMonitor",
    "HotSpotGate",
    "HotSpotNotice",
    "DatabaseAdapter",
    "HttpAdapter",
    "DirectoryAdapter",
    "MailAdapter",
    "FileAdapter",
    "RoundRobinBalancer",
    "LeastOutstandingBalancer",
    "LatencyAwareBalancer",
    "LoadListener",
    "ResourceProfileRegistry",
    "CentralizedController",
    # workload & metrics
    "ClosedLoopClient",
    "BurstClient",
    "OpenLoopGenerator",
    "zipf_sampler",
    "run_clustering_experiment",
    "run_qos_experiment",
    "run_failure_recovery_experiment",
    "run_overload_experiment",
    "run_chaos_experiment",
    "FailureRecoveryResult",
    "OverloadResult",
    "ChaosResult",
    "MetricsRegistry",
    "SummaryStats",
    "LatencyHistogram",
    "render_table",
    "render_series",
    "mm1_metrics",
    "mmc_metrics",
    "mva_single_station",
    # observability
    "TraceCollector",
    "Trace",
    "Span",
    "trace_from_context",
    "render_waterfall",
    "render_attribution",
    "critical_path",
    "write_chrome_trace",
    "validate_chrome_trace",
]
