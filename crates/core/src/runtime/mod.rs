//! Runtimes: how pipelines, NICs, devices, and threads come together.
//!
//! * [`des`] — the deterministic discrete-event runtime used by every
//!   experiment: simulated worker cores, device threads, NIC ports, and
//!   traffic sources over calibrated costs.
//! * [`live`] — the same element graphs on real OS threads with channels,
//!   demonstrating the framework as an actual concurrent packet processor.
//! * [`worker`] — the worker step both of them drive: they differ only in
//!   clock and transport.
//! * [`device`] — the device step both of them drive: they differ only in
//!   clock, launch policy and how one attempt executes.

pub mod des;
pub mod device;
pub mod live;
pub mod worker;

use std::sync::Arc;

use nba_io::TrafficConfig;
use nba_sim::{CostModel, Time, Topology};

use crate::element::ComputeMode;
use crate::graph::{BranchPolicy, ElementGraph};
use crate::lb::SharedBalancer;
use crate::nls::NodeLocalStorage;
use crate::stats::{LatencyHistogram, Snapshot};
use crate::telemetry::{ElementProfile, TelemetryConfig, TimeSample, TraceEvent};

/// Context available to pipeline builders.
pub struct BuildCtx {
    /// Worker index the replica is built for.
    pub worker: usize,
    /// NUMA node of that worker.
    pub socket: usize,
    /// Node-local storage of that node (share big tables here).
    pub nls: NodeLocalStorage,
    /// The shared load balancer for this run.
    pub balancer: SharedBalancer,
    /// Branch policy the graph should be built with.
    pub policy: BranchPolicy,
}

/// Builds one worker's pipeline replica (§3.2 "replicated pipelines").
pub type PipelineBuilder = Arc<dyn Fn(&BuildCtx) -> ElementGraph + Send + Sync>;

/// Framework-level configuration of a run.
#[derive(Clone)]
pub struct RuntimeConfig {
    /// The machine shape (Table 3 by default).
    pub topology: Topology,
    /// Calibrated cost constants.
    pub cost: CostModel,
    /// Worker threads per socket; the paper dedicates the last core of each
    /// socket to the device thread, so at most `cores - 1`.
    pub workers_per_socket: u32,
    /// RX burst size (packets fetched per IO-loop iteration).
    pub io_batch: usize,
    /// Computation batch size (packets per batch object; Figure 9 knob).
    pub comp_batch: usize,
    /// Max packet batches aggregated into one offload task (§3.3: 32).
    pub offload_aggregate: usize,
    /// How long a partial aggregate may wait for more batches before the
    /// device thread launches it anyway (bounds GPU-path latency at low
    /// load; the dominant term of Figure 14's GPU latencies).
    pub offload_agg_timeout: Time,
    /// Maximum offload tasks in flight on a device at once (enough to keep
    /// the three engines pipelined; beyond this the device thread defers
    /// launches and backpressure propagates to the RX rings).
    pub gpu_max_inflight: usize,
    /// Maximum batches the device thread buffers across aggregates before
    /// it stops draining its task queue (second-level backpressure).
    pub device_backlog_batches: usize,
    /// Fuse chains of compatible offloadable elements into one device
    /// round-trip, reusing the GPU-resident datablock (the optimization
    /// §3.3 leaves as future work; off by default to match the paper's
    /// evaluated implementation).
    pub datablock_reuse: bool,
    /// Branch handling policy (Figures 1/10 knob).
    pub branch_policy: BranchPolicy,
    /// Whether heavy payload computation really executes.
    pub compute: ComputeMode,
    /// Packet buffers per NUMA node.
    pub pool_size: usize,
    /// RX descriptor ring depth per queue.
    pub rxq_depth: usize,
    /// Idle worker re-poll interval.
    pub poll_interval: Time,
    /// Traffic-source batching window (smaller = finer latency resolution).
    pub gen_window: Time,
    /// Constant external round-trip component added to measured latencies
    /// (generator NIC, wire, and switch of the paper's testbed).
    pub external_latency: Time,
    /// Measurement starts after this much virtual time.
    pub warmup: Time,
    /// Measurement window length.
    pub measure: Time,
    /// Telemetry: time-series sampling interval and trace capacity.
    /// Telemetry never perturbs the simulation — a run produces identical
    /// throughput with it on or off.
    pub telemetry: TelemetryConfig,
    /// Fault injection plan and recovery knobs (watchdog, retries, circuit
    /// breaker). The default plan is inactive: no draws are made and the
    /// run is bit-identical to a build without the fault machinery.
    pub fault: crate::fault::FaultConfig,
    /// Capture a [`crate::capture::TxRecord`] for every transmitted packet
    /// into [`RunReport::tx_capture`] (conformance testing only; off by
    /// default because it clones every frame).
    pub capture: bool,
    /// The decision-audit plane: balancer decision log, per-stage offload
    /// histograms, cost-model drift detection. Fully off by default so
    /// un-audited runs stay bit-identical.
    pub audit: crate::audit::AuditConfig,
    /// Declarative latency/throughput budgets burned down sample window by
    /// sample window (None = no SLO accounting).
    pub slo: Option<crate::audit::SloConfig>,
    /// Flight-recorder dump policy for the device threads' quarantine and
    /// drift dumps (DES workers record no events; a dump carries the
    /// devices' launch/retry events, its trigger and the fault counters).
    pub flight: crate::introspect::FlightConfig,
    /// Record every flow-table operation into the run's
    /// [`crate::flow::FlowOpsLog`] (conformance testing only; off by
    /// default because stateful apps journal per packet).
    pub flow_journal: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            topology: Topology::paper_testbed(),
            cost: CostModel::paper_default(),
            workers_per_socket: 7,
            io_batch: 64,
            comp_batch: 64,
            offload_aggregate: 32,
            offload_agg_timeout: Time::from_us(150),
            gpu_max_inflight: 6,
            device_backlog_batches: 128,
            datablock_reuse: false,
            branch_policy: BranchPolicy::Predict,
            compute: ComputeMode::HeadersOnly,
            pool_size: 1 << 17,
            rxq_depth: 1024,
            poll_interval: Time::from_us(2),
            gen_window: Time::from_us(4),
            external_latency: Time::from_us(14),
            warmup: Time::from_ms(20),
            measure: Time::from_ms(50),
            telemetry: TelemetryConfig::default(),
            fault: crate::fault::FaultConfig::default(),
            capture: false,
            audit: crate::audit::AuditConfig::default(),
            slo: None,
            flight: crate::introspect::FlightConfig::default(),
            flow_journal: false,
        }
    }
}

impl RuntimeConfig {
    /// A fast configuration on the small topology for unit/integration
    /// tests: full computation, short windows.
    pub fn test_default() -> RuntimeConfig {
        RuntimeConfig {
            topology: Topology::small(),
            workers_per_socket: 3,
            compute: ComputeMode::Full,
            warmup: Time::from_ms(2),
            measure: Time::from_ms(10),
            pool_size: 1 << 15,
            ..RuntimeConfig::default()
        }
    }

    /// Total worker count over all sockets.
    pub fn total_workers(&self) -> usize {
        self.topology.sockets.len() * self.workers_per_socket as usize
    }
}

/// The result of one simulated run, measured over the window after warmup.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Length of the measurement window.
    pub duration: Time,
    /// Transmitted frame gigabits per second (the paper's headline metric).
    pub tx_gbps: f64,
    /// Transmitted packets in the window.
    pub tx_packets: u64,
    /// Offered (generated) packets in the window: delivered into an RX
    /// queue, refused by a full one, or lost for want of a buffer.
    pub offered_packets: u64,
    /// Offered frame gigabits per second.
    pub offered_gbps: f64,
    /// RX-queue drops in the window (overload signal).
    pub rx_dropped: u64,
    /// Frames the NIC admitted but the pool had no buffer for, over the
    /// whole run (DPDK's `rx_nombuf`; 0 unless a pool ran dry).
    pub rx_nombuf: u64,
    /// Counter deltas over the window.
    pub window: Snapshot,
    /// Round-trip latency distribution (recorded after warmup).
    pub latency: LatencyHistogram,
    /// Final offloading fraction of the shared balancer.
    pub final_w: f64,
    /// Per-GPU busy statistics.
    pub gpu: Vec<nba_gpu::TimelineStats>,
    /// Per-element work profiles, merged across workers and sorted by node
    /// (whole run, warmup included).
    pub elements: Vec<ElementProfile>,
    /// Periodic samples over the whole run (empty when sampling is off).
    pub samples: Vec<TimeSample>,
    /// Batch-lifecycle trace events, merged across workers/devices and
    /// sorted by time (empty unless tracing was enabled).
    pub trace: Vec<TraceEvent>,
    /// Whole-run counter totals (for reconciling element profiles against
    /// aggregate counters).
    pub totals: Snapshot,
    /// Fault-injection and recovery accounting: counter snapshot plus the
    /// device quarantine intervals (all-zero/empty on a clean run).
    pub faults: crate::fault::FaultReport,
    /// Per-packet TX conformance records of the whole run (empty unless
    /// [`RuntimeConfig::capture`] was set).
    pub tx_capture: Vec<crate::capture::TxRecord>,
    /// Per-stage offload decomposition, merged across devices (None unless
    /// [`crate::audit::AuditConfig::stage_stats`] was on).
    pub stages: Option<crate::audit::StageProfiles>,
    /// Cost-model drift accounting (None unless drift detection was on).
    pub drift: Option<crate::audit::DriftReport>,
    /// SLO budget verdict (None unless an SLO was configured).
    pub slo: Option<crate::audit::SloReport>,
    /// The balancer's decision audit log (None unless enabled on the
    /// balancer before the run).
    pub decisions: Option<crate::audit::DecisionLog>,
    /// Flight dumps raised during the run (quarantine trips, drift events).
    pub flight: Vec<crate::introspect::FlightDump>,
    /// Self-healing plane: final worker states, the supervisor's replayable
    /// transition log, and shed/loss accounting (all-clean on a fault-free
    /// run; the DES mirrors the live supervisor's report).
    pub health: crate::supervise::HealthReport,
    /// Stateful-app flow plane: per-shard flow-table counters and (when
    /// [`RuntimeConfig::flow_journal`] was on) the merged op journal.
    /// `None` when no stateful element ran.
    pub flows: Option<crate::flow::FlowReport>,
}

impl RunReport {
    /// Millions of packets per second transmitted.
    pub fn tx_mpps(&self) -> f64 {
        self.tx_packets as f64 / self.duration.as_secs_f64() / 1e6
    }
}

/// Convenience: one traffic config replicated across every port.
pub fn traffic_per_port(topology: &Topology, t: &TrafficConfig) -> Vec<TrafficConfig> {
    (0..topology.ports.len())
        .map(|i| TrafficConfig {
            seed: t
                .seed
                .wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            ..t.clone()
        })
        .collect()
}
