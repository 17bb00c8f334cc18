//! The run assembly, written once: the planes every worker and device
//! thread of one run shares (§3.2) — flow registry, counters and latency
//! shards, heartbeats, health and fault accounting, spans, the flight
//! recorder, the audit and SLO sinks — built on the calling thread from a
//! driver's [`Shape`], wired into replicas, worker and device environments
//! and the supervisor, and read back by [`Planes::close`]. A driver keeps
//! only what differs: clock, transport, device backend and launch policy,
//! respawn, and its report.

use std::collections::HashMap;
use std::sync::Arc;

use nba_io::{Mempool, RssTable};
use nba_sim::{CostModel, Time};
use parking_lot::Mutex;

use crate::analysis::{self, CapacityModel};
use crate::audit::{AuditConfig, DecisionLog, DriftDetector, DriftGauge, DriftReport};
use crate::audit::{SloConfig, SloReport, SloTracker, StageProfiles};
use crate::element::{ComputeMode, DbInput, DbOutput, OffloadSpec, Postprocess};
use crate::fault::{FaultConfig, FaultReport, FaultStats};
use crate::flow::{FlowRegistry, FlowReport};
use crate::graph::{BranchPolicy, ElementGraph, NodeId, OutEdge};
use crate::introspect::{FlightConfig, FlightDump, FlightRecorder, ShardGauges};
use crate::lb::SharedBalancer;
use crate::nls::NodeLocalStorage;
use crate::runtime::device::DeviceEnv;
use crate::runtime::worker::WorkerEnv;
use crate::runtime::{BuildCtx, PipelineBuilder};
use crate::stats::{Counters, LatencyHistogram, SystemInspector};
use crate::supervise::{HealthStats, Supervisor, SupervisorConfig, WorkerHealth};
use crate::telemetry::{merge_histograms, SpanAlloc, TraceEvent};

/// What a run's planes are built from: where the runtimes differ, an
/// argument; the rest, the knobs both configs carry.
pub(crate) struct Shape {
    /// Worker `w`'s balancer (possibly all clones of one instance).
    pub balancers: Vec<SharedBalancer>,
    /// Each socket's node-local storage; workers fill sockets in order.
    pub nls: Vec<NodeLocalStorage>,
    /// Where retired packets go home ([`WorkerEnv::homes`]).
    pub homes: Vec<Mempool>,
    pub cost: CostModel,
    pub compute: ComputeMode,
    pub capture: bool,
    pub fault: FaultConfig,
    /// Each shard's trace ring; tracing is on when non-zero.
    pub trace_capacity: usize,
    pub flight: FlightConfig,
    /// The shard gauges flight dumps read (`None`: no rings to read).
    pub gauges: Option<ShardGauges>,
    /// Workers write their shard rings and take panic dumps always, not
    /// only while tracing.
    pub worker_flight: bool,
    pub audit: AuditConfig,
    pub slo: Option<SloConfig>,
    pub flow_journal: bool,
}

/// The run-wide state every thread of one run shares.
pub(crate) struct Planes {
    shape: Shape,
    /// Every distinct balancer instance, in worker order.
    distinct: Vec<SharedBalancer>,
    per_socket: usize,
    pub flows: FlowRegistry,
    pub inspector: SystemInspector,
    pub health: Arc<Vec<WorkerHealth>>,
    pub hstats: Arc<HealthStats>,
    pub fstats: Arc<FaultStats>,
    /// Per-worker latency shards, merged at close. They live outside the
    /// threads: the stats endpoint reads them mid-run, and a panicked
    /// worker's survives.
    pub latency: Arc<Vec<Mutex<LatencyHistogram>>>,
    /// One allocator for every thread, `Some` while tracing.
    pub spans: Option<SpanAlloc>,
    pub flight: Arc<FlightRecorder>,
    pub stages: Option<Arc<Mutex<StageProfiles>>>,
    pub drift: Option<Arc<Mutex<DriftDetector>>>,
    pub drift_gauge: Arc<DriftGauge>,
    pub slo: Option<Arc<Mutex<SloTracker>>>,
}

/// The report pieces both runtimes' reports carry.
pub(crate) struct Closed {
    pub latency: LatencyHistogram,
    /// Sorted by time.
    pub trace: Vec<TraceEvent>,
    /// Quarantines sorted by start.
    pub faults: FaultReport,
    pub stages: Option<StageProfiles>,
    pub drift: Option<DriftReport>,
    pub slo: Option<SloReport>,
    /// One per distinct balancer that kept a log.
    pub decisions: Vec<DecisionLog>,
    pub flight: Vec<FlightDump>,
    pub flows: Option<FlowReport>,
}

impl Planes {
    pub fn new(mut shape: Shape) -> Planes {
        let workers = shape.balancers.len();
        let flows = FlowRegistry::new();
        flows.set_workers(workers);
        if shape.flow_journal {
            flows.enable_journal();
        }
        shape.nls.iter().for_each(|n| flows.publish(n));
        let counters: Vec<Arc<Counters>> = (0..workers).map(|_| Arc::default()).collect();
        let (capacity, gauges) = (shape.trace_capacity, shape.gauges.take());
        let flight = FlightRecorder::new(workers, capacity, shape.flight.clone(), gauges);
        // Audit once per distinct instance: per worker when sharded.
        let (distinct, audit) = (crate::lb::distinct(&shape.balancers), &shape.audit);
        if audit.decision_capacity > 0 {
            for b in &distinct {
                b.lock().enable_audit(audit.decision_capacity);
            }
        }
        // Armed before any thread starts: no survivor finishes ahead of a
        // scheduled kill (`WorkerHealth::awaiting_conviction`).
        let health: Vec<WorkerHealth> = (0..workers).map(|_| WorkerHealth::new()).collect();
        for (w, h) in health.iter().enumerate() {
            if shape.fault.plan.kill_for(w as u32).is_some() {
                h.arm_kill();
            }
        }
        Planes {
            distinct,
            per_socket: (workers / shape.nls.len()).max(1),
            flows,
            inspector: SystemInspector::new(counters),
            health: Arc::new(health),
            hstats: Arc::default(),
            fstats: Arc::default(),
            latency: Arc::new((0..workers).map(|_| Mutex::default()).collect()),
            spans: (capacity > 0).then(SpanAlloc::new),
            flight: Arc::new(flight),
            stages: audit.stage_stats.then(|| shared(StageProfiles::new())),
            drift: audit.drift.clone().map(|d| shared(DriftDetector::new(d))),
            drift_gauge: Arc::default(),
            slo: shape.slo.clone().map(|s| shared(SloTracker::new(s))),
            shape,
        }
    }

    /// Worker `w`'s replica on its socket's storage and balancer, writing
    /// into its shard's flight ring while tracing (or always).
    pub fn replica(&self, w: usize, build: &PipelineBuilder, policy: BranchPolicy) -> ElementGraph {
        let socket = w / self.per_socket;
        let mut g = build(&BuildCtx {
            worker: w,
            socket,
            nls: self.shape.nls[socket].clone(),
            balancer: self.shape.balancers[w].clone(),
            policy,
        });
        if self.shape.worker_flight || self.spans.is_some() {
            g.attach_ring(self.flight.clone(), self.spans.clone());
        }
        g
    }

    pub fn worker_env(&self, w: usize) -> WorkerEnv {
        WorkerEnv {
            nls: self.shape.nls[w / self.per_socket].clone(),
            inspector: self.inspector.clone(),
            cost: self.shape.cost.clone(),
            compute: self.shape.compute,
            fstats: self.fstats.clone(),
            health: self.health.clone(),
            capture: self.shape.capture,
            flight: self.shape.worker_flight.then(|| self.flight.clone()),
            homes: self.shape.homes.clone(),
        }
    }

    /// Socket `s`'s device, counting into its first worker's counters.
    pub fn device_env(&self, s: usize) -> DeviceEnv {
        DeviceEnv {
            cost: self.shape.cost.clone(),
            compute: self.shape.compute,
            fault: self.shape.fault.clone(),
            fstats: self.fstats.clone(),
            counters: self.inspector.worker(s * self.per_socket).clone(),
            balancers: self.distinct.clone(),
            spans: self.spans.clone(),
            flight: self.flight.clone(),
            stages: self.stages.clone(),
            drift: self.drift.clone(),
            gauge: self.drift_gauge.clone(),
            decision_audit: self.shape.audit.decision_capacity > 0,
            homes: self.shape.homes.clone(),
        }
    }

    /// The supervisor over `tables`, one RSS table per socket.
    pub fn supervisor(&self, cfg: &SupervisorConfig, tables: Vec<Arc<RssTable>>) -> Supervisor {
        let (health, hstats) = (self.health.clone(), self.hstats.clone());
        let balancers = self.shape.balancers.clone();
        Supervisor::new(cfg, health, hstats, tables, balancers, self.flows.clone())
    }

    /// Teardown, once nothing writes into the planes any more. `trace`
    /// holds the events from outside the shard rings; decision clocks
    /// flush at `tx_packets`; the SLO is scored at `mpps`.
    pub fn close(
        &self,
        mut trace: Vec<TraceEvent>,
        mut quarantines: Vec<(Time, Option<Time>)>,
        tx_packets: u64,
        mpps: f64,
    ) -> Closed {
        let latency = merge_histograms(self.latency.iter().map(|l| l.lock().clone()));
        let p99_ns = latency.percentile_ns(99.0);
        if self.spans.is_some() {
            trace.extend(self.flight.events());
        }
        trace.sort_by_key(|e| e.t);
        quarantines.sort_by_key(|(start, _)| *start);
        let flush = |b: &SharedBalancer| {
            b.lock().flush_decision_clock(tx_packets);
            b.lock().take_audit_log()
        };
        Closed {
            latency,
            trace,
            faults: FaultReport {
                snapshot: self.fstats.snapshot(),
                quarantines,
            },
            stages: self.stages.as_ref().map(|s| s.lock().clone()),
            drift: self.drift.as_ref().map(|d| d.lock().report()),
            slo: self.slo.as_ref().map(|s| s.lock().report(p99_ns, mpps)),
            decisions: self.distinct.iter().filter_map(flush).collect(),
            flight: self.flight.dumps(),
            flows: self.flows.report(),
        }
    }
}

/// A sink the device threads, the sampler and teardown share.
fn shared<T>(x: T) -> Arc<Mutex<T>> {
    Arc::new(Mutex::new(x))
}

/// Runs the mandatory preflight on a replica (all replicas are clones of
/// one pipeline; warnings are logged, errors refuse to start) and reads
/// what the devices need: each offloadable node's spec and, with `fuse`,
/// the datablock-reuse chains — `N -> M` when `M` directly follows `N` and
/// consumes exactly the datablock `N` produced in place.
pub(crate) fn read_replica(
    g: &mut ElementGraph,
    capacity: &CapacityModel,
    fuse: bool,
) -> (HashMap<usize, OffloadSpec>, HashMap<usize, usize>) {
    analysis::preflight(g, capacity);
    let specs: HashMap<usize, OffloadSpec> = (0..g.len())
        .filter_map(|n| Some((n, g.element_mut(NodeId(n)).offload()?)))
        .collect();
    let mut fuse_next = HashMap::new();
    for (&n, spec) in specs.iter().filter(|_| fuse) {
        let Some(OutEdge::Node(m)) = g.out_edge(NodeId(n), 0) else {
            continue;
        };
        let Some(next) = specs.get(&m.0) else {
            continue;
        };
        let in_place = [spec, next].iter().all(|s| {
            matches!(s.output, DbOutput::InPlace { extra: 0 })
                && s.postprocess == Postprocess::WriteBack
        });
        let same_block = matches!(
            (&spec.input, &next.input),
            (DbInput::WholePacket { offset: a }, DbInput::WholePacket { offset: b }) if a == b
        );
        if in_place && same_block {
            fuse_next.insert(n, m.0);
        }
    }
    (specs, fuse_next)
}
