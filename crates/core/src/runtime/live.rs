//! The live runtime: the same pipelines on real OS threads, sharded the way
//! the paper shards its live system (§3, Figures 2 and 6).
//!
//! The DES runtime models the paper's testbed; this runtime measures the
//! host. Its wall-clock packet rate is what the repo benchmark
//! (`benchmark/`) reports as `mpps` for every workload but the DES one.
//! The data plane is shared-nothing and receive-side scaled:
//!
//! * **IO threads** play the NIC: each owns a deterministic traffic source
//!   and an [`RssFanout`] that steers every frame by the RSS hash its
//!   source stamped (the receive descriptor's hash) — flow-affine, so
//!   per-flow order is preserved — into one of N bounded SPSC rings (one
//!   per worker, the `rte_ring` analog).
//! * **Workers** each own their RX ring consumers, their packet batches,
//!   their own [`ElementGraph`](crate::graph::ElementGraph) replica with
//!   per-worker telemetry, their own latency-histogram shard (merged
//!   losslessly at report time), a sender on the device thread's one
//!   offload command queue, and their own load balancer — `w` is
//!   per-worker state, as in NBA's per-thread ALB.
//! * **The device thread** takes tasks from the command queue in arrival
//!   order, aggregates batches per offloadable node, executes kernels
//!   (fault ladder included), and returns completions.
//! * **The calling thread** runs the control plane in one housekeeping
//!   loop: supervisor ticks (and worker respawns), sampler windows, and
//!   the deadline/quiesce/grace/stop sequence. A run starts no other
//!   thread, except the stats endpoint's when one is configured.
//!
//! Shutdown is a graceful drain: sources stop first, workers exit once
//! their rings are disconnected *and* drained and no offloads are in
//! flight, then the device thread exits once every command sender is gone.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel;

use nba_gpu::{KernelFn, TaskTiming};
use nba_io::{
    spsc, Limited, Mempool, MempoolCache, Packet, PacketSource, RssFanout, RssTable, TrafficConfig,
    TrafficGen,
};
use nba_sim::{CostModel, Time};

use crate::analysis::CapacityModel;
use crate::batch::Anno;
use crate::capture::TxRecord;
use crate::element::ComputeMode;
use crate::fault::{FaultConfig, FaultPlan, FaultReport, FaultStats};
use crate::introspect::{
    ring_totals, FlightConfig, FlightDump, ShardGauges, StatsServer, StatsState,
};
use crate::lb::{BalancerFactory, SharedBalancer};
use crate::nls::NodeLocalStorage;
use crate::offload::{CompletedTask, OffloadTask, StagedTask};
use crate::runtime::assembly::{read_replica, Planes, Shape};
use crate::runtime::device::{DeviceBackend, DeviceCore};
use crate::runtime::worker::{
    merge_yields, wire_bits, Drill, Homes, Transport, WorkerCore, WorkerYield,
};
use crate::runtime::{port_traffic, PipelineBuilder};
use crate::stats::{LatencyHistogram, Snapshot};
use crate::supervise::{
    traffic_class, HealthReport, HealthStats, ShedConfig, ShedPolicy, Shedder, TransitionReason,
    WorkerHealth, WorkerState,
};
use crate::telemetry::{
    ElementProfile, Sampler, TelemetryConfig, TimeSample, TraceBuffer, TraceEvent, TraceEventKind,
};

/// Max in-flight offloaded batches per worker before RX pauses. Public so
/// the static capacity checker ([`crate::analysis`]) checks the `NBA051`
/// deadlock-freedom law against the cap the runtime enforces.
pub const MAX_OUTSTANDING: u64 = 32;

/// The live runtime's blocking waits end on the event that ends them: a
/// worker at its in-flight cap on its completion channel, the idle device
/// thread on the command queue, a lossless IO thread refused by a full RX
/// ring in [`spsc::Producer::wait_for_room`] until its worker has drained
/// half the ring. The channel's mutex and the ring's Dekker pair rule out
/// lost wake-ups, so this cap on all three is only a safety net: it bounds
/// how late a blocked thread sees the stop flag or a drill, which nobody
/// signals.
const WAIT_CAP: Duration = Duration::from_millis(1);

/// Configuration of a live run.
#[derive(Clone)]
pub struct LiveConfig {
    /// Worker threads (= RX queues the IO layer steers into).
    pub workers: usize,
    /// Wall-clock run duration. In draining runs this is a hard deadline;
    /// the run ends earlier once sources exhaust and pipelines drain.
    pub duration: Duration,
    /// Computation batch size.
    pub batch: usize,
    /// Traffic generated by each IO thread's source (per-thread seeds are
    /// derived from `traffic.seed` the same way [`super::traffic_per_port`]
    /// derives per-port seeds).
    pub traffic: TrafficConfig,
    /// Whether heavy payload computation executes.
    pub compute: ComputeMode,
    /// Batches aggregated per device task.
    pub aggregate: usize,
    /// Telemetry knobs. `sample_interval` is interpreted as a wall-clock
    /// interval between the housekeeping loop's sampler windows;
    /// `trace_capacity` sizes each worker shard's event ring (which its
    /// graph, its core and the device thread write) and each IO thread's
    /// steer ring.
    pub telemetry: TelemetryConfig,
    /// Fault injection plan and recovery knobs (retries, circuit breaker).
    /// Fault *times* (`die_at`/`revive_at`) are interpreted on the
    /// wall clock since run start.
    pub fault: FaultConfig,
    /// IO (source + RSS steering) threads; each models one ingress port
    /// feeding all workers.
    pub io_threads: usize,
    /// Per-worker RX ring depth (the SPSC ring between an IO thread and a
    /// worker), the live analog of the NIC's RX descriptor ring.
    pub ring_capacity: usize,
    /// Total packet budget across all IO threads (`None` = unlimited). With
    /// a budget the run becomes a fixed, seed-determined workload — the
    /// differential suite's mode.
    pub max_packets: Option<u64>,
    /// Lossless ingress: a full RX ring parks the IO thread until its
    /// worker has drained half of it (backpressure) instead of dropping
    /// (NIC semantics). Used with `max_packets` so
    /// every generated packet is processed exactly once.
    pub drain: bool,
    /// Capture a [`TxRecord`] for every transmitted packet into
    /// [`LiveReport::tx_capture`] (conformance testing only).
    pub capture: bool,
    /// Where flight dumps go (the recorder itself is always on).
    pub flight: FlightConfig,
    /// The decision-audit plane: balancer decision logs, per-stage offload
    /// timing, cost-model drift detection. Fully off by default.
    pub audit: crate::audit::AuditConfig,
    /// Declarative latency/throughput budgets scored sampler window by
    /// sampler window (`None` = no SLO accounting).
    pub slo: Option<crate::audit::SloConfig>,
    /// Overload shedding applied by IO threads (off by default: clean runs
    /// stay lossless). When armed, a packet bound for an over-threshold
    /// ring — or any packet while the SLO burn-rate exceeds 1 — is dropped
    /// *before* enqueue by the configured policy, and every shed is
    /// accounted in [`LiveReport::health`].
    pub shed: ShedConfig,
    /// Bind address for the in-flight stats endpoint (`None` = off).
    /// `"127.0.0.1:0"` binds an ephemeral port; read it back mid-run via
    /// [`LiveConfig::stats_bound`].
    pub stats_addr: Option<String>,
    /// Out-parameter: the endpoint's actual bound address, published as
    /// soon as the listener is up (shared so callers can poll it while
    /// [`run`] blocks).
    pub stats_bound: Arc<parking_lot::Mutex<Option<std::net::SocketAddr>>>,
    /// Record every flow-table operation into the run's
    /// [`crate::flow::FlowOpsLog`] (conformance testing only).
    pub flow_journal: bool,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            workers: 2,
            duration: Duration::from_millis(200),
            batch: 64,
            traffic: TrafficConfig::default(),
            compute: ComputeMode::Full,
            aggregate: 8,
            telemetry: TelemetryConfig::default(),
            fault: FaultConfig::default(),
            io_threads: 1,
            ring_capacity: 4096,
            max_packets: None,
            drain: false,
            capture: false,
            flight: FlightConfig::default(),
            audit: crate::audit::AuditConfig::default(),
            slo: None,
            shed: ShedConfig::default(),
            stats_addr: None,
            stats_bound: Arc::new(parking_lot::Mutex::new(None)),
            flow_journal: false,
        }
    }
}

/// Per-worker shard of a live run's results.
#[derive(Debug, Clone)]
pub struct WorkerShard {
    /// Worker index (= RX queue id).
    pub worker: usize,
    /// This worker's counters at the end of the run.
    pub totals: Snapshot,
    /// Final offloading fraction of this worker's balancer.
    pub final_w: f64,
    /// Packets dropped at this worker's RX rings (full ring, NIC
    /// semantics; always 0 in draining runs).
    pub rx_dropped: u64,
}

/// Results of a live run.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// Wall-clock duration actually run.
    pub elapsed: Duration,
    /// Aggregated counters (sum of the shards).
    pub totals: Snapshot,
    /// Host-measured forwarding rate in Mpps.
    pub mpps: f64,
    /// Host-measured frame Gbps.
    pub gbps: f64,
    /// Per-element work profiles, merged across workers (wall-clock busy
    /// time), sorted by node.
    pub elements: Vec<ElementProfile>,
    /// Sampler windows (empty when sampling is off).
    pub samples: Vec<TimeSample>,
    /// Batch-lifecycle trace: every worker shard's ring plus the IO
    /// threads' steer rings, sorted by elapsed time (empty unless tracing
    /// was enabled).
    pub trace: Vec<TraceEvent>,
    /// Fault-injection, containment, and recovery accounting.
    pub faults: FaultReport,
    /// Per-batch processing-time distribution, merged from the per-worker
    /// histogram shards.
    pub latency: LatencyHistogram,
    /// Packets dropped at full RX rings, all workers.
    pub rx_dropped: u64,
    /// Per-worker result shards (counters, balancer state, drops).
    pub shards: Vec<WorkerShard>,
    /// Per-packet TX conformance records, all workers (empty unless
    /// [`LiveConfig::capture`]).
    pub tx_capture: Vec<TxRecord>,
    /// Flight-recorder post-mortem dumps taken during the run (quarantine
    /// trips, contained worker panics, dead rings, stall convictions, cost
    /// drift).
    pub flight: Vec<FlightDump>,
    /// Per-stage offload decomposition, merged over the device thread's
    /// flushes (`None` unless [`crate::audit::AuditConfig::stage_stats`]).
    pub stages: Option<crate::audit::StageProfiles>,
    /// Cost-model drift accounting (`None` unless drift detection was on).
    pub drift: Option<crate::audit::DriftReport>,
    /// SLO budget verdict (`None` unless an SLO was configured).
    pub slo: Option<crate::audit::SloReport>,
    /// Decision audit logs, one per distinct balancer instance in worker
    /// order (empty unless auditing was enabled on the balancers).
    pub decisions: Vec<crate::audit::DecisionLog>,
    /// The self-healing plane's verdict: final per-shard supervision
    /// states, the replayable transition log, and loss/shed/recovery
    /// counters ([`HealthReport::is_clean`] on a fault-free run).
    pub health: HealthReport,
    /// Stateful-app flow plane: per-shard flow-table counters and (when
    /// [`LiveConfig::flow_journal`] was on) the merged op journal. `None`
    /// when no stateful element ran.
    pub flows: Option<crate::flow::FlowReport>,
}

/// Runs replicated pipelines on real threads until the deadline, all
/// workers sharing one balancer (the paper's global-`w` coordination mode).
pub fn run(cfg: &LiveConfig, build: &PipelineBuilder, balancer: &SharedBalancer) -> LiveReport {
    let balancers: Vec<SharedBalancer> =
        (0..cfg.workers.max(1)).map(|_| balancer.clone()).collect();
    run_core(cfg, build, balancers)
}

/// Runs with one balancer instance per worker (`w` maintained per worker,
/// NBA's per-thread ALB state). The factory is called once per worker.
pub fn run_sharded(
    cfg: &LiveConfig,
    build: &PipelineBuilder,
    factory: &BalancerFactory,
) -> LiveReport {
    let balancers: Vec<SharedBalancer> = (0..cfg.workers.max(1))
        .map(|w| crate::lb::shared(factory(w)))
        .collect();
    run_core(cfg, build, balancers)
}

/// The run-wide handles a worker thread needs. One spawner starts the
/// original workers and, from the housekeeping loop, their replacements:
/// both get the same context (a fresh graph replica around the rings they
/// are handed) and run the same [`worker_loop`] — which is what makes
/// workers respawnable.
struct WorkerSpawner {
    build: PipelineBuilder,
    /// The run's planes; a replacement worker's graph attaches to its
    /// shard's existing flight ring.
    planes: Arc<Planes>,
    /// Schedules the original workers' kill/stall drills (replacements
    /// run drill-free).
    plan: FaultPlan,
    batch_size: usize,
    stop: Arc<AtomicBool>,
    completion_rxs: Vec<channel::Receiver<CompletedTask>>,
    /// Each worker's in-flight offload count, read by flight dumps.
    outstanding: Arc<Vec<AtomicU64>>,
    /// Last steer span each IO thread published toward each worker.
    steer: Arc<Vec<Vec<AtomicU64>>>,
    started: Instant,
}

impl WorkerSpawner {
    /// Starts worker `w` over RX rings `rx` and command sender `task_tx`.
    fn spawn(
        self: &Arc<Self>,
        w: usize,
        rx: Vec<spsc::Consumer<Packet>>,
        task_tx: channel::Sender<OffloadTask>,
        drills: bool,
    ) -> std::thread::JoinHandle<WorkerYield> {
        let mut graph = self.planes.replica(w, &self.build, Default::default());
        graph.set_wall_profiling(true);
        let env = self.planes.worker_env(w);
        let core = WorkerCore::new(w, graph, env, drills.then_some(&self.plan));
        let sp = Arc::clone(self);
        std::thread::spawn(move || worker_loop(core, rx, task_tx, &sp))
    }

    /// Wall time since run start, as the `Time` the cores take.
    fn now(&self) -> Time {
        Time::from_secs_f64(self.started.elapsed().as_secs_f64())
    }

    /// Runs one graph dispatch and records its wall time as batch service
    /// time: into the worker's latency shard and, in nanoseconds (the unit
    /// convention shared with the DES runtime), into the latency EWMA.
    fn timed<R>(&self, w: usize, dispatch: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = dispatch();
        let spent = t0.elapsed().as_nanos() as u64;
        self.planes.inspector.worker(w).observe_latency(spent);
        self.planes.latency[w].lock().record_ns(spent);
        r
    }
}

/// The live transport of one worker: TX is accounting only (there is no
/// wire), offloads go onto the device thread's command queue.
struct RingTransport<'a> {
    task_tx: channel::Sender<OffloadTask>,
    /// In-flight offloaded batches; bounds RX so the device thread is
    /// never flooded beyond what it can return.
    outstanding: u64,
    /// Where `outstanding` is stored for flight dumps, on every change.
    gauge: &'a AtomicU64,
}

impl RingTransport<'_> {
    /// Reaps one completion.
    fn reaped(&mut self) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.gauge.store(self.outstanding, Ordering::Relaxed);
    }
}

impl Transport for RingTransport<'_> {
    fn transmit(&mut self, burst: &[(Packet, Anno)]) -> (u64, u64) {
        let bits = burst.iter().map(|(p, a)| wire_bits(p, a)).sum();
        (burst.len() as u64, bits)
    }

    fn offload(&mut self, task: OffloadTask) -> Result<(), OffloadTask> {
        // Refused only once the device thread is gone.
        self.task_tx.send(task).map_err(|e| e.0)?;
        self.outstanding += 1;
        self.gauge.store(self.outstanding, Ordering::Relaxed);
        Ok(())
    }

    fn charge(&mut self, _cycles: u64) {}
}

/// One worker thread, the live driver of a [`WorkerCore`]: it owns the
/// wall clock and the rings. Reap completions, pull a flow-affine batch
/// from the RX rings, hand both to the core — until the rings are
/// disconnected *and* drained and no offloads are in flight.
fn worker_loop(
    mut core: WorkerCore,
    rx: Vec<spsc::Consumer<Packet>>,
    task_tx: channel::Sender<OffloadTask>,
    sp: &WorkerSpawner,
) -> WorkerYield {
    let (w, health) = (core.id(), &sp.planes.health);
    let completion_rx = &sp.completion_rxs[w];
    let mut tp = RingTransport {
        task_tx,
        outstanding: 0,
        gauge: &sp.outstanding[w],
    };
    // A replacement starts with nothing in flight.
    tp.gauge.store(0, Ordering::Relaxed);
    let mut completions_dead = false;
    let mut rr = 0usize;
    let mut killed = false;
    // Packets of the batch by source ring, which is by home pool: ring
    // `src` is fed by IO thread `src` alone.
    let mut shares = vec![0u64; rx.len()];
    while !sp.stop.load(Ordering::Relaxed) {
        match core.drill() {
            Some(Drill::Kill) => {
                killed = true;
                break;
            }
            Some(Drill::Stall(millis)) => {
                std::thread::sleep(Duration::from_secs_f64(millis / 1e3));
            }
            None => {}
        }
        let now = sp.now();
        // 1. Completions (their outcomes may re-offload at the next
        // offloadable element in the chain).
        loop {
            let done = match completion_rx.try_recv() {
                Ok(d) => d,
                Err(channel::TryRecvError::Empty) => break,
                Err(channel::TryRecvError::Disconnected) => {
                    completions_dead = true;
                    break;
                }
            };
            tp.reaped();
            sp.timed(w, || core.on_completion(now, done, &mut tp));
        }
        if tp.outstanding > MAX_OUTSTANDING && !completions_dead {
            // At the cap: block until the device returns a batch instead
            // of flooding it, and leave the CPU to it meanwhile.
            match completion_rx.recv_timeout(WAIT_CAP) {
                Ok(done) => {
                    tp.reaped();
                    let now = sp.now();
                    sp.timed(w, || core.on_completion(now, done, &mut tp));
                }
                Err(channel::RecvTimeoutError::Timeout) => {}
                Err(channel::RecvTimeoutError::Disconnected) => completions_dead = true,
            }
            continue;
        }
        // 2. Pull one batch from this worker's RX rings: a burst from each
        // ring in turn (round-robin over IO threads; each ring is
        // flow-affine), one cursor publish per burst. The batch shell is
        // the one the previous traversal retired.
        let mut batch = core.rx_batch(sp.batch_size);
        // First ring that yields determines the batch's steer parent
        // (rings are flow-affine, one IO thread each).
        let mut first_src: Option<usize> = None;
        shares.fill(0);
        for i in 0..rx.len() {
            let room = sp.batch_size - batch.len();
            if room == 0 {
                break;
            }
            let src = (rr + i) % rx.len();
            let popped = rx[src].pop_burst(room, |pkt| {
                batch.push(pkt);
            });
            if popped > 0 {
                first_src.get_or_insert(src);
                shares[src] = popped as u64;
            }
        }
        rr = rr.wrapping_add(1);
        if batch.is_empty() {
            core.retire(batch);
            // Graceful drain: sources closed every ring, nothing is
            // queued, and no offloads are coming back. A finished worker
            // is never a re-steer target, so it stays on until every
            // crashed shard has been convicted.
            let drained = rx.iter().all(spsc::Consumer::is_disconnected);
            if drained
                && (tp.outstanding == 0 || completions_dead)
                && !health.iter().any(WorkerHealth::awaiting_conviction)
            {
                break;
            }
            std::thread::yield_now();
            continue;
        }
        // The batch's causal parent: the IO thread's last steer span
        // toward this worker.
        let parent = first_src.map_or(0, |src| sp.steer[src][w].load(Ordering::Relaxed));
        sp.timed(w, || core.on_batch(now, batch, parent, &shares, &mut tp));
    }
    // Dropping `tp.task_tx` drops one command sender: the last one's drop
    // is the device thread's drain signal. Dropping the RX consumers flips
    // their `consumer_gone` flags — the IO threads' obituary.
    if !killed {
        // (A killed worker's heartbeat already carries the containment
        // signal; it did not finish its drain, and the orchestrator must
        // not count it as drained.)
        core.heartbeat().finish();
        // The home pools, and the memory of their idle buffers, go before
        // the graph replica does. Left to the end of the run instead (the
        // pools outlive every thread), back-to-back `ids_imix` runs on a
        // 2-vCPU Xeon VM peaked at 19.1–19.4 MiB RSS against 14.5–16.6.
        core.release_homes();
    }
    core.take_yield()
}

/// The wall-clock backend of the device thread: an attempt is the kernel
/// run synchronously on this thread and timed with `Instant`; there are no
/// device copies, no device model to predict from, and a doomed attempt is
/// known at once — there is no simulated clock to wait out a watchdog on.
struct WallDevice<'a> {
    started: Instant,
    queue: &'a channel::Receiver<OffloadTask>,
    senders: &'a [channel::Sender<CompletedTask>],
}

impl DeviceBackend for WallDevice<'_> {
    fn now(&self) -> Time {
        Time::from_secs_f64(self.started.elapsed().as_secs_f64())
    }

    fn charge(&mut self, _cycles: u64, began: Time) -> Time {
        self.now().saturating_sub(began)
    }

    fn predict(&self, _staged: &StagedTask, _lane_ns: f64) -> Option<[u64; 3]> {
        None
    }

    fn attempt(
        &mut self,
        at: Time,
        staged: &StagedTask,
        _lane_ns: f64,
        kernel: &KernelFn,
        output: &mut [u8],
    ) -> TaskTiming {
        let t0 = Instant::now();
        kernel(&staged.input, output, staged.items);
        let done = at + Time::from_ns(t0.elapsed().as_nanos() as u64);
        TaskTiming {
            h2d_done: at,
            kernel_done: done,
            d2h_done: done,
        }
    }

    fn abort(&mut self, _at: Time, _h2d_bytes: usize) -> Time {
        self.now()
    }

    fn backoff(&mut self, _at: Time, dur: Time) -> Time {
        std::thread::sleep(Duration::from_nanos(dur.as_ns().max(1)));
        self.now()
    }

    fn gauges(&self, _now: Time) -> (u64, f64) {
        (self.queue.len() as u64, 0.0)
    }

    fn deliver(&mut self, done: CompletedTask) {
        // A worker that is gone reaps nothing; teardown counts what it
        // left in the channel as lost in flight.
        let _ = self.senders[done.worker].send(done);
    }
}

/// Joins `thread`. One that died despite the in-thread panic containment
/// costs its output, never the run.
fn join<T>(thread: std::thread::JoinHandle<T>, fstats: &FaultStats, what: &str) -> Option<T> {
    let out = thread.join().ok();
    if out.is_none() {
        FaultStats::add(&fstats.panics_contained, 1);
        eprintln!("nba-live: {what} panicked; draining without its telemetry");
    }
    out
}

/// The engine under [`run`]/[`run_sharded`]: `balancers[w]` is worker `w`'s
/// balancer handle (possibly all clones of one shared instance).
fn run_core(
    cfg: &LiveConfig,
    build: &PipelineBuilder,
    balancers: Vec<SharedBalancer>,
) -> LiveReport {
    let workers = cfg.workers.max(1);
    let io_threads = cfg.io_threads.max(1);
    assert_eq!(balancers.len(), workers);
    // `gen_stop` quiesces the sources; `stop` is the hard override that
    // ends every thread regardless of drain state.
    let gen_stop = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));

    // One buffer pool per IO thread, made here so that every worker (a
    // respawned one too) is handed clones: a retired packet's buffer goes
    // home to `io_pools[port_in]`, the IO thread that built it.
    let io_pools: Vec<Mempool> = (0..io_threads).map(|_| Mempool::new(1 << 15)).collect();

    // RX plumbing: ring[p][w] connects IO thread p to worker w. Workers own
    // the consumers, IO threads the producers (via their fanout).
    let mut worker_rx: Vec<Vec<spsc::Consumer<Packet>>> = (0..workers)
        .map(|_| Vec::with_capacity(io_threads))
        .collect();
    let mut io_tx: Vec<Vec<spsc::Producer<Packet>>> = (0..io_threads)
        .map(|_| Vec::with_capacity(workers))
        .collect();
    let ring_capacity = cfg.ring_capacity.max(cfg.batch.max(1));
    for tx_of_port in io_tx.iter_mut() {
        for rx_of_worker in worker_rx.iter_mut() {
            let (tx, rx) = spsc::channel(ring_capacity);
            tx_of_port.push(tx);
            rx_of_worker.push(rx);
        }
    }
    // Ring-full drops, per worker (RX queue), visible to the sampler.
    let rx_drops: Arc<Vec<AtomicU64>> = Arc::new((0..workers).map(|_| AtomicU64::new(0)).collect());

    // The swappable RSS indirection table every IO thread steers through
    // (boot state ≡ the fixed-function modulo, so clean runs are untouched).
    let rss_table: Arc<RssTable> = Arc::new(RssTable::new(workers as u16));
    // Packets shed per target worker (feeds the per-shard telemetry).
    let shed_per_worker: Arc<Vec<AtomicU64>> =
        Arc::new((0..workers).map(|_| AtomicU64::new(0)).collect());
    // Ring gauges, shed counters, in-flight offloads and balancers per
    // shard, read by the sampler, the supervisor, flight dumps, the stats
    // endpoint and teardown.
    let outstanding: Arc<Vec<AtomicU64>> =
        Arc::new((0..workers).map(|_| AtomicU64::new(0)).collect());
    let shard_gauges = ShardGauges {
        rings: Arc::new(
            worker_rx
                .iter()
                .map(|rings| {
                    rings
                        .iter()
                        .map(|r| parking_lot::Mutex::new(r.gauges()))
                        .collect()
                })
                .collect(),
        ),
        shed: shed_per_worker.clone(),
        outstanding: outstanding.clone(),
        balancers: balancers.clone(),
    };
    // The run's planes. The flight recorder is always on: every worker
    // writes its shard ring and takes its panic dumps, and dumps read the
    // shard gauges.
    let trace_capacity = cfg.telemetry.trace_capacity;
    let planes = Arc::new(Planes::new(Shape {
        balancers: balancers.clone(),
        nls: vec![NodeLocalStorage::new()],
        homes: io_pools.clone(),
        cost: CostModel::paper_default(),
        compute: cfg.compute,
        capture: cfg.capture,
        fault: cfg.fault.clone(),
        trace_capacity,
        flight: cfg.flight.clone(),
        gauges: Some(shard_gauges.clone()),
        worker_flight: true,
        audit: cfg.audit.clone(),
        slo: cfg.slo.clone(),
        flow_journal: cfg.flow_journal,
    }));
    let (inspector, health) = (&planes.inspector, &planes.health);
    let (fstats, flight) = (&planes.fstats, &planes.flight);
    // Raised by the sampler while an SLO burn-rate exceeds 1; read by the
    // IO threads' shedders when `shed.slo_coupled`.
    let slo_overload = Arc::new(AtomicBool::new(false));
    // Respawn mailboxes, one channel per IO thread: the supervisor sends a
    // respawned worker's fresh ring producers ((queue, producer) pairs),
    // the IO thread swaps them into its fanout.
    let (io_mailboxes, io_mailbox_rxs): (Vec<_>, Vec<_>) = (0..io_threads)
        .map(|_| channel::unbounded::<(u16, spsc::Producer<Packet>)>())
        .unzip();
    // The last steer span each IO thread published toward each worker: the
    // parent link an RX event attaches to.
    let steer_spans: Arc<Vec<Vec<AtomicU64>>> = Arc::new(
        (0..io_threads)
            .map(|_| (0..workers).map(|_| AtomicU64::new(0)).collect())
            .collect(),
    );
    // Sampler windows, which the stats endpoint reads too.
    let shared_samples: Arc<parking_lot::Mutex<Vec<TimeSample>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));

    // The offload command queue: every worker sends on a clone of
    // `task_tx`, the device thread alone receives. The in-flight cap bounds
    // it at workers × (MAX_OUTSTANDING + 1) tasks. The housekeeping loop
    // keeps `task_tx` itself, to clone for respawned workers.
    let (task_tx, task_rx) = channel::unbounded::<OffloadTask>();
    // Completion channels, one per worker. The device thread takes the
    // senders and holds the only ones, so its exit (a panic outside its
    // containment included) disconnects every worker's channel.
    let (completion_senders, completion_rxs): (Vec<_>, Vec<_>) = (0..workers)
        .map(|_| channel::unbounded::<CompletedTask>())
        .unzip();

    // Read the offload specs from a throwaway replica.
    let (spec_map, _) = read_replica(
        &mut planes.replica(0, build, Default::default()),
        &CapacityModel::from_live(cfg),
        false,
    );

    // One epoch for every thread's trace/sample timestamps.
    let started = Instant::now();

    // The in-flight stats endpoint (opt-in): binds now, publishes the real
    // address through the config's out-parameter, serves until run end.
    let stats_server: Option<StatsServer> = cfg.stats_addr.as_deref().and_then(|addr| {
        let state = StatsState {
            started,
            inspector: inspector.clone(),
            fstats: fstats.clone(),
            flight: flight.clone(),
            shards: shard_gauges.clone(),
            rx_drops: rx_drops.clone(),
            samples: shared_samples.clone(),
            latency: planes.latency.clone(),
            drift: planes.drift_gauge.clone(),
            health: health.clone(),
            hstats: planes.hstats.clone(),
            flows: planes.flows.clone(),
        };
        match StatsServer::start(addr, state) {
            Ok(server) => {
                *cfg.stats_bound.lock() = Some(server.bound_addr());
                Some(server)
            }
            Err(e) => {
                eprintln!("nba-live: stats endpoint failed to bind {addr}: {e}");
                None
            }
        }
    });

    // ── The device thread ──────────────────────────────────────────────
    // The live driver of a `DeviceCore` over the command queue: it owns the
    // wall clock, and launches an aggregate when it fills or when the queue
    // runs dry. It returns the core's quarantine intervals at join time.
    let dev_stop = stop.clone();
    let dev_aggregate = cfg.aggregate.max(1);
    let dev_env = planes.device_env(0);
    let device = std::thread::spawn(move || {
        let mut core = DeviceCore::new(0, spec_map, Default::default(), dev_env);
        let mut be = WallDevice {
            started,
            queue: &task_rx,
            senders: &completion_senders,
        };
        // Live completes a launch at once: the kernel already ran on this
        // thread, there is no device timeline to wait on.
        let flush = |core: &mut DeviceCore, node: usize, be: &mut WallDevice<'_>| {
            if let Some(launched) = core.launch(be.now(), node, dev_aggregate, be) {
                core.complete(be.now(), launched, be);
            }
        };
        loop {
            let task = match task_rx.try_recv() {
                Ok(task) => task,
                Err(empty_or_gone) => {
                    // Idle: flush partial aggregates so nothing starves,
                    // then exit, or wait for a send or the last sender's drop.
                    for node in core.nodes() {
                        flush(&mut core, node, &mut be);
                    }
                    if empty_or_gone == channel::TryRecvError::Disconnected
                        || dev_stop.load(Ordering::Relaxed)
                    {
                        break;
                    }
                    match task_rx.recv_timeout(WAIT_CAP) {
                        Ok(task) => task,
                        Err(_) => continue,
                    }
                }
            };
            let node = task.node.0;
            if core.push(be.now(), task) >= dev_aggregate {
                flush(&mut core, node, &mut be);
            }
        }
        core.finish()
    });

    // ── IO threads ─────────────────────────────────────────────────────
    // Each owns a seeded source and the RSS fanout over its per-worker
    // rings; it returns its delivered/dropped totals at join time.
    let mut io_joins = Vec::new();
    let budget_share = |p: usize| -> u64 {
        match cfg.max_packets {
            None => u64::MAX,
            Some(total) => {
                let share = total / io_threads as u64;
                if p == 0 {
                    share + total % io_threads as u64
                } else {
                    share
                }
            }
        }
    };
    for (p, (producers, mailbox)) in io_tx.into_iter().zip(io_mailbox_rxs).enumerate() {
        let traffic = port_traffic(&cfg.traffic, p);
        let budget = budget_share(p);
        let gen_stop = gen_stop.clone();
        let stop = stop.clone();
        let rx_drops = rx_drops.clone();
        let drain = cfg.drain;
        let io_burst = cfg.batch.max(1);
        let io = planes.clone();
        let io_steer = steer_spans.clone();
        let io_table = rss_table.clone();
        let io_shed_per_worker = shed_per_worker.clone();
        let io_slo_overload = slo_overload.clone();
        let shed_cfg = cfg.shed;
        let pool = io_pools[p].clone();
        io_joins.push(std::thread::spawn(move || -> (u64, Vec<TraceEvent>) {
            // The thread's private allocation cache (the DPDK per-lcore
            // mempool cache): one pool lock per burst, not per packet. What
            // never leaves this thread (shed, refused) goes home from here.
            let mut cache = MempoolCache::new(pool.clone(), io_burst);
            let mut shed: Vec<Packet> = Vec::with_capacity(io_burst);
            let mut source = Limited::new(TrafficGen::new(traffic), budget);
            let mut fanout = RssFanout::with_table(p as u16, producers, io_table);
            // Overload shedder (None unless armed): deterministic per-IO
            // thread, seeded off the thread index.
            let mut shedder = shed_cfg
                .enabled()
                .then(|| Shedder::new(shed_cfg, 0x5ed0_0000 + p as u64));
            // Which shards' ring disconnects were already post-mortemed.
            let mut obituary_sent = vec![false; workers];
            // Steering events live in this thread's own bounded ring
            // (rings are single-owner), merged at join time.
            let mut steer_trace = io
                .spans
                .as_ref()
                .map(|_| TraceBuffer::new(trace_capacity.max(1)));
            // The burst arena, reused every iteration: generated packets
            // are steered straight into the stage of their destination
            // queue. Within a stage the order is generation order, so flow
            // affinity and per-flow order hold.
            let mut staged: Vec<Vec<Packet>> =
                (0..workers).map(|_| Vec::with_capacity(io_burst)).collect();
            while !gen_stop.load(Ordering::Relaxed) && !stop.load(Ordering::Relaxed) {
                if source.exhausted() {
                    break;
                }
                // Worker respawn: swap in the fresh rings the supervisor
                // sent (the abandoned producers close on drop; their
                // leftovers are accounted at teardown).
                while let Ok((q, producer)) = mailbox.try_recv() {
                    drop(fanout.replace_queue(q, producer));
                    obituary_sent[usize::from(q)] = false;
                }
                // Obituaries: the first sighting of a dead ring (a consumer
                // dropped by a worker that did NOT finish) takes a flight
                // dump — the post-mortem for "why did shard N stop".
                for (q, sent) in obituary_sent.iter_mut().enumerate() {
                    if !*sent
                        && fanout.receiver_gone(q as u16)
                        && !io.health[q].done.load(Ordering::Acquire)
                    {
                        *sent = true;
                        HealthStats::add(&io.hstats.ring_disconnects, 1);
                        io.flight.dump(
                            &format!("ring_disconnect_shard{q}"),
                            Some(q as u32),
                            0,
                            Time::from_secs_f64(started.elapsed().as_secs_f64()),
                            io.fstats.snapshot(),
                        );
                    }
                }
                // One burst, asked for by count. The source's pacing
                // stamps run on its own virtual clock, always "behind", so
                // it produces as fast as the rings accept.
                let generated = source.generate_burst(io_burst, &mut cache, &mut |mut pkt| {
                    // Steer by the descriptor hash and stamp the queue;
                    // shedder and enqueue read the stamps.
                    let q = fanout.steer(&mut pkt);
                    let stage = &mut staged[usize::from(q)];
                    // Overload shedding: drop *before* enqueue, by policy,
                    // when the target ring (with what this burst already
                    // staged toward it) is past the occupancy threshold or
                    // the SLO is burning. Never blocks, every shed lands
                    // in exactly one counter.
                    if let Some(sh) = shedder.as_mut() {
                        let (queued, capacity) = fanout.queue_load(q);
                        if sh.should_shed(
                            queued + stage.len(),
                            capacity,
                            traffic_class(pkt.rss_hash),
                            io_slo_overload.load(Ordering::Relaxed),
                        ) {
                            let counter = match sh.policy() {
                                ShedPolicy::DropTail => &io.hstats.shed_drop_tail,
                                ShedPolicy::Priority => &io.hstats.shed_priority,
                                ShedPolicy::Probabilistic => &io.hstats.shed_probabilistic,
                            };
                            HealthStats::add(counter, 1);
                            io_shed_per_worker[usize::from(q)].fetch_add(1, Ordering::Relaxed);
                            shed.push(pkt);
                            return;
                        }
                    }
                    stage.push(pkt);
                });
                if !shed.is_empty() {
                    pool.free_bulk(shed.drain(..).map(Packet::into_buf));
                }
                if generated == 0 {
                    // The pool is dry until the workers free a burst.
                    std::thread::yield_now();
                    continue;
                }
                for (q, stage) in staged.iter_mut().enumerate() {
                    if stage.is_empty() {
                        continue;
                    }
                    let q16 = q as u16;
                    let mut delivered = 0;
                    // One ring publish per (burst, queue); whatever a full
                    // ring refuses gets one of three outcomes.
                    loop {
                        delivered += fanout.push_burst(q16, stage);
                        if stage.is_empty() {
                            break;
                        }
                        let refused = stage.len() as u64;
                        if fanout.receiver_gone(q16) {
                            // Full ring with a dead consumer: backpressure
                            // would wait forever. Give the packets up,
                            // attributed with the ring's other losses.
                            HealthStats::add(&io.hstats.lost_in_ring, refused);
                        } else if drain && !stop.load(Ordering::Relaxed) {
                            // Lossless mode: backpressure. Park until the
                            // worker has drained half the ring (or died),
                            // then retry; a timed-out wait only looks at
                            // the stop flag and waits again.
                            while !fanout.wait_for_room(q16, WAIT_CAP) {
                                if stop.load(Ordering::Relaxed) {
                                    break;
                                }
                            }
                            continue;
                        } else {
                            // NIC semantics: full RX ring drops.
                            fanout.count_drops(q16, refused);
                            rx_drops[q].fetch_add(refused, Ordering::Relaxed);
                        }
                        pool.free_bulk(stage.drain(..).map(Packet::into_buf));
                        break;
                    }
                    // One steer span per (burst, destination queue): the
                    // parent link the next RX event on that worker attaches
                    // to, giving the Chrome exporter its IO-thread ->
                    // worker flow arrow.
                    if let (Some(alloc), Some(tr)) = (&io.spans, &mut steer_trace) {
                        if delivered > 0 {
                            let now = Time::from_secs_f64(started.elapsed().as_secs_f64());
                            let span = alloc.next();
                            io_steer[p][q].store(span, Ordering::Relaxed);
                            let ev = TraceEvent::point(now, q, 0, TraceEventKind::Steer, delivered);
                            tr.push(ev.at_node(p).spans(span, 0));
                        }
                    }
                }
            }
            (
                fanout.total_dropped(),
                steer_trace
                    .as_ref()
                    .map(TraceBuffer::events)
                    .unwrap_or_default(),
            )
            // Dropping the fanout closes every ring: the workers' drain
            // signal. Dropping the mailbox closes every replacement ring
            // sent but never swapped in, which a respawned worker would
            // otherwise wait on forever (a later send hands its producer
            // back to the supervisor to drop).
        }));
    }

    // ── Worker threads ─────────────────────────────────────────────────
    let spawner = Arc::new(WorkerSpawner {
        build: build.clone(),
        planes: planes.clone(),
        plan: cfg.fault.plan.clone(),
        batch_size: cfg.batch.max(1),
        stop: stop.clone(),
        completion_rxs,
        outstanding,
        steer: steer_spans.clone(),
        started,
    });
    let mut joins: Vec<_> = worker_rx
        .into_iter()
        .enumerate()
        .map(|(w, rx)| (w, spawner.spawn(w, rx, task_tx.clone(), true)))
        .collect();

    // ── Housekeeping, on this thread ───────────────────────────────────
    // The control plane runs here while the data plane runs on its own
    // threads. One loop ticks the supervisor every `check_interval` (and
    // respawns a crashed worker), closes a sampler window every
    // `sample_interval`, and steps the run through deadline → quiesce →
    // grace → hard stop. Workers finish early when the sources exhaust
    // their budget; the configured duration is the deadline for unbounded
    // runs. The supervisor is always on: a clean run just produces an
    // empty log.
    let scfg = &cfg.fault.supervisor;
    let mut supervisor = planes.supervisor(scfg, vec![rss_table.clone()]);
    // Gauges of the rings respawns replaced, by feeding IO thread: whatever
    // is still queued there is loss, accounted at teardown once all
    // producers are gone.
    let mut abandoned: Vec<(usize, spsc::RingGauges)> = Vec::new();
    let elapsed_ns = || started.elapsed().as_nanos() as u64;
    let tick = Duration::from_nanos(scfg.check_interval.as_ns().max(1));
    let mut next_tick = Instant::now() + tick;
    let sample_every = cfg
        .telemetry
        .sample_interval
        .map(|i| Duration::from_nanos(i.as_ns().max(1)));
    let mut next_sample = sample_every.map(|every| Instant::now() + every);
    let mut sampler = Sampler::new(planes.slo.clone());
    // The deadline, then (once the sources are quiesced) the end of the
    // grace window in which rings close and workers finish queued batches
    // and outstanding offloads.
    let mut stop_at = started + cfg.duration;
    let mut quiescing = false;
    loop {
        let now = Instant::now();
        let drained = health.iter().all(|h| h.done.load(Ordering::Acquire));
        if drained || now >= stop_at {
            gen_stop.store(true, Ordering::Relaxed);
            if drained || quiescing {
                break;
            }
            quiescing = true;
            stop_at = now + Duration::from_millis(500).max(cfg.duration / 4);
        }
        if now >= next_tick {
            next_tick = now + tick;
            let fired = supervisor.tick(elapsed_ns(), |w| shard_gauges.occupancy(w));
            for (w, t) in fired {
                // A stall conviction's evidence: the shard's ring holds the
                // time of the worker's last event before it. (A crash's is
                // the IO threads' `ring_disconnect_shard{w}` dump.)
                if t.to == WorkerState::Dead && t.reason == TransitionReason::Stall {
                    flight.dump(
                        &format!("stall_shard{w}"),
                        Some(w as u32),
                        0,
                        Time::from_secs_f64(started.elapsed().as_secs_f64()),
                        fstats.snapshot(),
                    );
                }
                // Crash + respawn policy: a replacement worker with fresh
                // rings, a fresh graph/telemetry replica, and its own
                // command-queue sender, re-acquiring the shard's buckets.
                // (Stalled-but-alive shards are never respawned — their
                // thread still owns the rings.)
                if t.to != WorkerState::Dead || t.reason != TransitionReason::Crash || !scfg.respawn
                {
                    continue;
                }
                let mut new_rx = Vec::with_capacity(io_threads);
                for (p, mailbox) in io_mailboxes.iter().enumerate() {
                    let (ptx, prx) = spsc::channel(ring_capacity);
                    abandoned.push((
                        p,
                        std::mem::replace(&mut *shard_gauges.rings[w][p].lock(), prx.gauges()),
                    ));
                    // An exited IO thread's mailbox hands `ptx` back: it
                    // drops here and the ring reads as drained.
                    let _ = mailbox.send((w as u16, ptx));
                    new_rx.push(prx);
                }
                health[w].rearm();
                joins.push((w, spawner.spawn(w, new_rx, task_tx.clone(), false)));
                supervisor.recovered(w, elapsed_ns());
            }
        }
        if next_sample.is_some_and(|due| now >= due) {
            next_sample = sample_every.map(|every| now + every);
            let t = Time::from_secs_f64(started.elapsed().as_secs_f64());
            let shards = shard_gauges.snapshot();
            // The offload fraction is the mean of the per-worker balancers.
            let mean_w = shards.iter().map(|s| s.w).sum::<f64>() / shards.len() as f64;
            let rx_dropped: u64 = rx_drops.iter().map(|d| d.load(Ordering::Relaxed)).sum();
            if let Some(sample) =
                sampler.sample(t, inspector, rx_dropped, mean_w, Vec::new(), shards)
            {
                // SLO-coupled shedding: when either error budget burns
                // faster than earned, the IO threads switch to full-rate
                // shedding until the burn subsides.
                if let Some(s) = &sample.slo {
                    slo_overload.store(
                        s.latency_burn > 1.0 || s.throughput_burn > 1.0,
                        Ordering::Relaxed,
                    );
                }
                shared_samples.lock().push(sample);
            }
        }
        let wake = next_sample
            .map_or(next_tick, |s| s.min(next_tick))
            .min(stop_at);
        std::thread::sleep(wake.saturating_duration_since(Instant::now()));
    }
    stop.store(true, Ordering::Relaxed);
    // The spare sender: dropping it lets the device finish once every
    // worker's sender is gone too.
    drop(task_tx);

    // Joins. The originals, then any replacements: they exit on the same
    // stop/drain signals and their telemetry merges with everyone else's.
    let mut rx_dropped: u64 = 0;
    let mut trace: Vec<TraceEvent> = Vec::new();
    for j in io_joins {
        if let Some((drops, steer_events)) = join(j, fstats, "an IO thread") {
            rx_dropped += drops;
            trace.extend(steer_events);
        }
    }
    let mut yields: Vec<WorkerYield> = Vec::new();
    for (w, j) in joins {
        match join(j, fstats, "a worker thread") {
            Some(y) => yields.push(y),
            // Its leftovers are a crashed shard's.
            None => health[w].crash(),
        }
    }
    let (elements, tx_capture) = merge_yields(yields);
    let quarantines = join(device, fstats, "the device thread").unwrap_or_default();
    // Loss accounting, once, after every producer and consumer has exited:
    // packets still queued toward a worker that never drained them are
    // attributed loss, never silent loss. Abandoned rings (replaced on
    // respawn) kept their gauges; rings of workers that broke uncleanly
    // still hold their residual occupancy in the live slots; completions
    // the device finished for a worker no longer listening are stranded
    // in-flight batches, the other half of the loss window.
    let orphaned = ring_totals(abandoned.iter().map(|(_, g)| g)).0;
    let mut homes = Homes::new(io_pools.clone());
    let mut stranded: Vec<Packet> = Vec::new();
    let mut health_report = supervisor.finish(true, orphaned, |w| {
        let ring = shard_gauges.occupancy(w);
        let mut flight = 0;
        loop {
            match spawner.completion_rxs[w].try_recv() {
                Ok(mut done) => {
                    flight += done.batch.len() as u64;
                    done.batch.drain_packets_into(&mut stranded);
                    homes.retire(stranded.drain(..));
                }
                Err(e) => {
                    // The device thread has been joined: its senders are
                    // gone, so the channel must read disconnected.
                    debug_assert_eq!(e, channel::TryRecvError::Disconnected);
                    break;
                }
            }
        }
        (ring, flight)
    });
    // The buffer ledger. Every thread has exited and every cache flushed,
    // so a buffer is home unless it died with its packet: in a contained
    // panic (written off there) or queued in a ring whose two ends are
    // gone, written off here by the IO thread that fed it. What the pools
    // still count as outstanding went missing without a trace.
    let residue = (shard_gauges.rings.iter())
        .flat_map(|rings| {
            rings
                .iter()
                .enumerate()
                .map(|(p, g)| (p, g.lock().occupancy()))
        })
        .chain(abandoned.iter().map(|(p, g)| (*p, g.occupancy())));
    for (p, queued) in residue {
        io_pools[p].forget(queued as u64);
    }
    let stats = &mut health_report.stats;
    stats.buffers_lost = io_pools.iter().map(|pool| pool.stats().forgotten).sum();
    stats.buffers_unreturned = io_pools.iter().map(|pool| pool.outstanding() as u64).sum();
    // Stop the stats endpoint before assembling the report (its Drop joins
    // the serve thread).
    drop(stats_server);
    let samples = shared_samples.lock().clone();

    let elapsed = started.elapsed();
    let totals = inspector.snapshot();
    let shards: Vec<WorkerShard> = (0..workers)
        .map(|w| WorkerShard {
            worker: w,
            totals: inspector.worker(w).snapshot(),
            final_w: balancers[w].lock().offload_fraction(),
            rx_dropped: rx_drops[w].load(Ordering::Relaxed),
        })
        .collect();
    let mpps = totals.tx_packets as f64 / elapsed.as_secs_f64() / 1e6;
    let closed = planes.close(trace, quarantines, totals.tx_packets, mpps);
    LiveReport {
        elapsed,
        totals,
        mpps,
        gbps: totals.tx_frame_bits as f64 / elapsed.as_secs_f64() / 1e9,
        elements,
        samples,
        trace: closed.trace,
        faults: closed.faults,
        slo: closed.slo,
        latency: closed.latency,
        rx_dropped,
        shards,
        tx_capture,
        flight: closed.flight,
        stages: closed.stages,
        drift: closed.drift,
        decisions: closed.decisions,
        health: health_report,
        flows: closed.flows,
    }
}
