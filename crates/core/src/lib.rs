//! `nba-core`: the NBA framework — a batch-oriented modular packet
//! processing framework with declarative GPU offloading and adaptive
//! CPU/GPU load balancing (EuroSys'15).
//!
//! The crate mirrors the paper's design (§3):
//!
//! * [`batch`] — packet batches as first-class objects: pointer arrays,
//!   per-packet results, cache-line annotation sets, exclusion masks,
//! * [`element`] — Click-style elements with per-packet/per-batch kinds and
//!   declarative offloading ([`element::OffloadSpec`], datablocks),
//! * [`graph`] — the `ElementGraph`: batch traversal, the batch-split
//!   problem, and batch-level branch prediction,
//! * [`config`] — the Click configuration language dialect (quoted
//!   parameters) with an element registry,
//! * [`analysis`] — the static analyser behind `nba-bench lint`: one pass
//!   pipeline over one graph model (structural, annotation-slot,
//!   datablock, branch-shape, and path-sensitive checks, plus static
//!   queue-law capacity checks over the runtime configurations) with
//!   stable `NBA0xx` diagnostic codes,
//! * [`introspect`] — the live introspection plane: the per-shard flight
//!   recorder and the in-flight stats endpoint,
//! * [`audit`] — the decision-audit & SLO plane: replayable balancer
//!   decision logs, offload stage decomposition, cost-model drift
//!   detection, and SLO budget tracking,
//! * [`offload`] — datablock gather/scatter between batches and devices,
//! * [`fault`] — the offload degradation ladder: deterministic fault
//!   injection plans, CPU fallback accounting, and the device circuit
//!   breaker feeding the load balancer,
//! * [`lb`] — load balancers, including the paper's adaptive algorithm,
//! * [`nls`] — node-local storage for shared read-mostly tables,
//! * [`stats`] — counters, the system inspector, latency histograms,
//! * [`json`] — a minimal JSON parser for reading bench artifacts back,
//! * [`telemetry`] — per-element profiles, run time-series, batch-lifecycle
//!   traces, and JSONL/Prometheus exporters,
//! * [`runtime`] — the discrete-event runtime (all experiments) and a live
//!   multi-threaded runtime.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod audit;
pub mod batch;
pub mod capture;
pub mod config;
pub mod element;
pub mod fault;
pub mod flow;
pub mod graph;
pub mod introspect;
pub mod json;
pub mod lb;
pub mod nls;
pub mod offload;
pub mod runtime;
pub mod stats;
pub mod supervise;
pub mod telemetry;

pub use analysis::{
    check_capacity, AbsState, CapacityModel, Code, Diagnostic, LintReport, Severity, SlotState,
    SourceMap, SCHEMA_VERSION,
};
pub use audit::{
    AuditConfig, DecisionClock, DecisionContext, DecisionKind, DecisionLog, DecisionRecord,
    DriftConfig, DriftDetector, DriftGauge, DriftReport, OffloadStage, SloConfig, SloReport,
    SloSample, SloTracker, StageProfiles,
};
pub use batch::{anno, Anno, PacketBatch, PacketResult};
pub use capture::TxRecord;
pub use config::{build_graph, build_graph_checked, CheckedGraph, ConfigError, ElementRegistry};
pub use element::{
    ComputeMode, DbInput, DbOutput, Disposition, ElemCtx, Element, ElementEffects, ElementKind,
    HeaderFact, Kernel, KernelIo, OffloadSpec, Postprocess, SlotAccess, SlotClaim, SlotScope,
};
pub use fault::{
    parse_faults_flag, CircuitBreaker, FaultConfig, FaultPlan, FaultReport, FaultSnapshot,
    FaultStats,
};
pub use graph::{BranchPolicy, ElementGraph, GraphBuilder, NodeId, OutEdge, RunOutcome};
pub use introspect::{FlightConfig, FlightDump, FlightRecorder, StatsServer, StatsState};
pub use lb::{
    Adaptive, AlbConfig, BalancerFactory, CpuOnly, FixedFraction, GpuOnly, LatencyBounded,
    LoadBalancer, SharedBalancer,
};
pub use nls::NodeLocalStorage;
pub use runtime::{BuildCtx, PipelineBuilder, RunReport, RuntimeConfig};
pub use stats::{Counters, LatencyHistogram, Snapshot, SystemInspector};
pub use supervise::{
    HealthReport, HealthSnapshot, HealthStats, ShardMonitor, ShedConfig, ShedPolicy, Shedder,
    SupervisionEvent, SupervisorConfig, SupervisorLog, WorkerHealth, WorkerState,
};
pub use telemetry::{
    ElementProfile, TelemetryConfig, TimeSample, TraceBuffer, TraceEvent, TraceEventKind,
};
