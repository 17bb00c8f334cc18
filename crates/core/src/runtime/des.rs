//! The discrete-event runtime: workers, device threads, NICs, and traffic
//! sources as engine entities (§3.2's thread/core mapping, Figure 6).
//!
//! Per socket: `workers_per_socket` worker entities (replicated pipelines,
//! run-to-completion, shared-nothing) plus one device-thread entity driving
//! the socket's GPU. Each NIC port has one RX queue per worker on its
//! socket; RSS spreads flows across them. Traffic-source entities convert
//! offered load into RX arrivals.

use std::cell::RefCell;
use std::rc::Rc;

use parking_lot::Mutex;

use nba_gpu::{Gpu, KernelFn, TaskTiming, TimelineStats};
use nba_io::{
    Mempool, Packet, PacketSource, Port, PortHandle, RssTable, TrafficConfig, TrafficGen,
};
use nba_sim::{Ctx, Engine, Entity, EntityId, SimQueue, Time, Wake};

use crate::audit::{DriftDetector, SloTracker, StageProfiles};
use crate::batch::{anno, Anno};
use crate::element::{DbInput, DbOutput, OffloadSpec, Postprocess};
use crate::fault::FaultStats;
use crate::graph::{ElementGraph, NodeId, OutEdge};
use crate::introspect::FlightRecorder;
use crate::lb::SharedBalancer;
use crate::nls::NodeLocalStorage;
use crate::offload::{CompletedTask, OffloadTask, StagedTask};
use crate::runtime::device::{DeviceBackend, DeviceCore, DeviceEnv, Launched, Retryable};
use crate::runtime::worker::{
    merge_yields, wire_bits, Drill, Transport, WorkerCore, WorkerEnv, WorkerYield,
};
use crate::runtime::{BuildCtx, PipelineBuilder, RunReport, RuntimeConfig};
use crate::stats::{Counters, LatencyHistogram, SystemInspector};
use crate::supervise::{HealthStats, Supervisor, WorkerHealth};
use crate::telemetry::{Sampler, SpanAlloc, TimeSample, TraceEvent};

use std::collections::HashMap;
use std::sync::Arc;

/// A traffic source feeding one port (synthetic generator or trace replay).
/// It offers the port every slot of each window; the port admits or
/// refuses each one before the frame is built, so the frames an
/// overloaded port drops are never allocated or written.
struct SourceEntity {
    gen: Box<dyn PacketSource>,
    port: PortHandle,
    pool: Mempool,
    window: Time,
    horizon: Time,
}

impl Entity for SourceEntity {
    fn step(&mut self, now: Time, _ctx: &mut Ctx) -> Wake {
        self.gen
            .offer(now, u64::MAX, &self.pool, &mut self.port.borrow_mut());
        if now >= self.horizon {
            Wake::Done
        } else {
            Wake::At(now + self.window)
        }
    }

    fn name(&self) -> &str {
        "traffic-source"
    }
}

/// What leaves the simulation when the engine is torn down: the engine
/// owns the worker entities (and with them the graphs holding the
/// per-element profiles, and the TX captures), so workers flush here on
/// `Drop`.
type TelemetrySink = Rc<RefCell<Vec<WorkerYield>>>;

/// One simulated worker core: the DES driver of a [`WorkerCore`]. It owns
/// the virtual clock (`busy_until`) and the simulated transport.
struct WorkerEntity {
    core: WorkerCore,
    cfg: RuntimeConfig,
    counters: Arc<Counters>,
    /// RX queues this worker polls (queue `local_idx` of each local port).
    rx: Vec<SimQueue<Packet>>,
    rx_rr: usize,
    /// All ports, for TX by the IFACE_OUT annotation.
    ports: Vec<PortHandle>,
    /// Inbound completions from the device thread.
    completions: SimQueue<CompletedTask>,
    /// Outbound offload tasks to the node's device thread.
    offload_q: SimQueue<OffloadTask>,
    device_entity: EntityId,
    latency: Rc<RefCell<LatencyHistogram>>,
    /// The worker core is busy until this time; early wakes are deferred
    /// (the engine may deliver completion wakes mid-"computation").
    busy_until: Time,
    sink: TelemetrySink,
}

impl Drop for WorkerEntity {
    fn drop(&mut self) {
        self.sink.borrow_mut().push(self.core.take_yield());
    }
}

/// The simulated transport of one worker step: NIC ports, the node's
/// offload queue, and the cycle account that becomes the core's busy time.
struct SimTransport<'a> {
    now: Time,
    /// Work charged so far this step.
    cycles: u64,
    cfg: &'a RuntimeConfig,
    ports: &'a [PortHandle],
    counters: &'a Counters,
    latency: &'a RefCell<LatencyHistogram>,
    offload_q: &'a SimQueue<OffloadTask>,
    device_entity: EntityId,
    ctx: &'a mut Ctx,
}

impl Transport for SimTransport<'_> {
    fn transmit(&mut self, burst: &[(Packet, Anno)]) -> (u64, u64) {
        let cost = &self.cfg.cost;
        // Packets hit the wire only after the core spent the work charged
        // so far, so TX (and therefore latency) reflects pipeline depth.
        let tx_at = self.now + cost.cycles(self.cycles);
        let (mut sent, mut bits, mut burst_ports) = (0, 0, 0u64);
        for (pkt, anno_set) in burst {
            let out_port = anno_set.get(anno::IFACE_OUT) as usize % self.ports.len();
            burst_ports |= 1 << (out_port % 64);
            self.cycles += cost.tx_per_packet;
            let outcome = self.ports[out_port].borrow_mut().transmit(tx_at, pkt);
            // TX-ring drops are counted by the port.
            if let nba_io::TxOutcome::Sent { done_at } = outcome {
                sent += 1;
                bits += wire_bits(pkt, anno_set);
                if self.now >= self.cfg.warmup {
                    let lat = done_at.saturating_sub(Time::from_ps(anno_set.get(anno::TIMESTAMP)))
                        + self.cfg.external_latency;
                    self.latency.borrow_mut().record(lat);
                    self.counters.observe_latency(lat.as_ns());
                }
            }
        }
        self.cycles += cost.tx_burst_fixed * u64::from(burst_ports.count_ones());
        (sent, bits)
    }

    fn offload(&mut self, task: OffloadTask) -> Result<(), OffloadTask> {
        // The queue is unbounded; overload is prevented upstream by gating
        // RX on its depth, so in-chain batches (e.g. AES->HMAC) are never
        // dropped mid-pipeline.
        self.offload_q.push(task)?;
        self.ctx.wake(self.device_entity, self.now);
        Ok(())
    }

    fn charge(&mut self, cycles: u64) {
        self.cycles += cycles;
    }
}

impl Entity for WorkerEntity {
    fn step(&mut self, now: Time, ctx: &mut Ctx) -> Wake {
        if now < self.busy_until {
            return Wake::At(self.busy_until);
        }
        match self.core.drill() {
            Some(Drill::Kill) => return Wake::Done,
            Some(Drill::Stall(millis)) => {
                self.busy_until = now + Time::from_secs_f64(millis / 1e3);
                return Wake::At(self.busy_until);
            }
            None => {}
        }
        let cfg = &self.cfg;
        let mut tp = SimTransport {
            now,
            cycles: cfg.cost.sched_iteration,
            cfg,
            ports: &self.ports,
            counters: &self.counters,
            latency: &self.latency,
            offload_q: &self.offload_q,
            device_entity: self.device_entity,
            ctx,
        };

        // 1. Reap offload completions (the IO loop checks these first).
        let mut did_work = false;
        while let Some(done) = self.completions.pop() {
            did_work = true;
            self.core.on_completion(now, done, &mut tp);
        }

        // 2. Poll RX queues round-robin and fetch one IO burst — unless the
        // offload path is backed up (run-to-completion backpressure: the
        // RX rings then overflow and the NIC drops, like real overload).
        let gate = self.offload_q.len() >= cfg.device_backlog_batches;
        let mut pkts: Vec<Packet> = Vec::with_capacity(cfg.io_batch);
        if !self.rx.is_empty() && !gate {
            let nq = self.rx.len();
            for k in 0..nq {
                let want = cfg.io_batch - pkts.len();
                if want == 0 {
                    break;
                }
                self.rx[(self.rx_rr + k) % nq].pop_into(&mut pkts, want);
            }
            self.rx_rr = (self.rx_rr + 1) % nq;
        }
        if pkts.is_empty() && !did_work {
            return Wake::At(now + cfg.poll_interval);
        }

        // 3. Wrap into computation batches and run the pipeline.
        if !pkts.is_empty() {
            tp.charge(cfg.cost.rx_burst_fixed + cfg.cost.rx_per_packet * pkts.len() as u64);
        }
        let mut iter = pkts.into_iter().peekable();
        while iter.peek().is_some() {
            let mut batch = self.core.rx_batch(cfg.comp_batch);
            for p in iter.by_ref().take(cfg.comp_batch) {
                batch.push(p);
            }
            // Every DES packet carries its pool handle: a contained panic
            // frees its buffers in the unwind, and writes none off.
            self.core.on_batch(now, batch, 0, &[], &mut tp);
        }
        self.busy_until = now + cfg.cost.cycles(tp.cycles);
        Wake::At(self.busy_until)
    }

    fn name(&self) -> &str {
        "worker"
    }
}

/// The device thread of one NUMA node (§3.2: one per node per device): the
/// DES driver of a [`DeviceCore`]. It owns the virtual clock (`busy_until`),
/// the GPU timeline, the in-flight list, and the when-to-launch policy.
struct DeviceEntity {
    cfg: RuntimeConfig,
    /// Shared with the run assembly, which takes the device's quarantine
    /// intervals at teardown.
    core: Rc<RefCell<DeviceCore>>,
    tasks: SimQueue<OffloadTask>,
    gpu: Rc<RefCell<Gpu>>,
    /// Launched tasks whose D2H copy (or failure verdict) has not landed.
    inflight: Vec<Launched>,
    /// Per-worker completion queues (worker `w` is engine entity `w`).
    completions: Vec<SimQueue<CompletedTask>>,
    counters: Arc<Counters>,
    /// The device-thread core is busy until this time.
    busy_until: Time,
}

/// The timeline backend of one device step: attempts run on the simulated
/// GPU's copy/compute engines, CPU-side work is priced in cycles that
/// become the device core's busy time, and waiting costs nothing.
struct SimDevice<'a> {
    now: Time,
    /// Work charged so far this step.
    cycles: u64,
    cfg: &'a RuntimeConfig,
    gpu: &'a RefCell<Gpu>,
    tasks: &'a SimQueue<OffloadTask>,
    completions: &'a [SimQueue<CompletedTask>],
    counters: &'a Counters,
    ctx: &'a mut Ctx,
}

impl DeviceBackend for SimDevice<'_> {
    fn now(&self) -> Time {
        self.now + self.cfg.cost.cycles(self.cycles)
    }

    fn charge(&mut self, cycles: u64, _began: Time) -> Time {
        self.cycles += cycles;
        self.cfg.cost.cycles(cycles)
    }

    fn predict(&self, staged: &StagedTask, lane_ns: f64) -> Option<[u64; 3]> {
        let gpu = &self.cfg.cost.gpu;
        Some([
            gpu.h2d_time(staged.input.len()).as_ns(),
            gpu.kernel_time(lane_ns).as_ns(),
            gpu.d2h_time(staged.out_len).as_ns(),
        ])
    }

    fn attempt(
        &mut self,
        at: Time,
        staged: &StagedTask,
        lane_ns: f64,
        kernel: &KernelFn,
        output: &mut [u8],
    ) -> Result<TaskTiming, Retryable> {
        let mut gpu = self.gpu.borrow_mut();
        // Device memory exhaustion is a real transient.
        gpu.run_task(at, &staged.input, staged.items, lane_ns, output, kernel)
            .map_err(|_oom| Retryable)
    }

    fn abort(&mut self, at: Time, h2d_bytes: usize) -> Time {
        let _ = self.gpu.borrow_mut().abort_task(at, h2d_bytes);
        // Nothing comes back: the failure surfaces at the watchdog deadline.
        at + self.cfg.fault.watchdog
    }

    fn backoff(&mut self, at: Time, dur: Time) -> Time {
        at + dur
    }

    fn gauges(&self, now: Time) -> (u64, f64) {
        let busy = self.gpu.borrow().stats().kernel_busy_fraction(now);
        (self.tasks.len() as u64, busy)
    }

    fn deliver(&mut self, done: CompletedTask) {
        let (worker, at) = (done.worker, done.done_at);
        if let Err(lost) = self.completions[worker].push(done) {
            Counters::add(&self.counters.dropped, lost.batch.len() as u64);
        }
        self.ctx.wake(EntityId(worker), at);
    }
}

impl Entity for DeviceEntity {
    fn step(&mut self, now: Time, ctx: &mut Ctx) -> Wake {
        if now < self.busy_until {
            return Wake::At(self.busy_until);
        }
        let cfg = &self.cfg;
        let mut core = self.core.borrow_mut();
        let mut be = SimDevice {
            now,
            cycles: 0,
            cfg,
            gpu: &self.gpu,
            tasks: &self.tasks,
            completions: &self.completions,
            counters: &self.counters,
            ctx,
        };

        // 1. Postprocess tasks whose D2H copy has landed.
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].ready_at <= now {
                core.complete(now, self.inflight.swap_remove(i), &mut be);
            } else {
                i += 1;
            }
        }

        // 2. Drain newly arrived tasks into the aggregation buffers, unless
        // the buffered backlog already exceeds the cap (then tasks stay in
        // the queue, whose depth gates RX at the workers — overload
        // backpressure).
        while core.backlog() < cfg.device_backlog_batches {
            let Some(task) = self.tasks.pop() else {
                break;
            };
            be.cycles += cfg.cost.offload_dequeue;
            core.push(now, task);
        }

        // 3. Launch aggregates: full ones immediately, partial ones once
        // their oldest batch has waited out the aggregation timeout — and
        // only while the GPU compute engine is not too far behind (§3.3
        // aggregation; the backlog cap turns saturation into queue growth
        // rather than unbounded in-flight work).
        let mut next_deadline: Option<Time> = None;
        for node in core.nodes() {
            while let Some((oldest, held)) = core.pending(node) {
                let gpu_behind = self.inflight.len() >= cfg.gpu_max_inflight;
                let deadline = oldest + cfg.offload_agg_timeout;
                if gpu_behind || !(held >= cfg.offload_aggregate || now >= deadline) {
                    if !gpu_behind {
                        next_deadline = Some(next_deadline.map_or(deadline, |d| d.min(deadline)));
                    }
                    break;
                }
                let launched = core.launch(now, node, cfg.offload_aggregate, &mut be);
                self.inflight.extend(launched);
            }
        }

        // 4. Sleep until the next D2H completion, aggregation deadline, or
        // — work remaining and in-flight slots free — a short re-run.
        // (Blocked on in-flight tasks, the next D2H completion is what
        // frees a slot.)
        let cycles = be.cycles;
        let next_pp = self.inflight.iter().map(|l| l.ready_at).min();
        let work_left = core.backlog() > 0 || !self.tasks.is_empty();
        let soon = (work_left && self.inflight.len() < cfg.gpu_max_inflight)
            .then(|| now + Time::from_us(5));
        let wake = [next_pp, next_deadline, soon].into_iter().flatten().min();
        let busy_until = now + cfg.cost.cycles(cycles);
        self.busy_until = busy_until;
        match wake {
            Some(t) => Wake::At(t.max(busy_until)),
            None if cycles > 0 => Wake::At(busy_until),
            None => Wake::Idle,
        }
    }

    fn name(&self) -> &str {
        "device-thread"
    }
}

/// A read-only observer recording the run time-series (the Figure 12/13
/// traces): the DES timer around the shared [`Sampler`]. It is added after
/// every other entity, so at equal timestamps it runs last — and since it
/// only reads counters, port statistics, GPU timelines, and the balancer,
/// it cannot perturb the simulation: a run with the sampler produces
/// bit-identical results to one without.
struct SamplerEntity {
    interval: Time,
    horizon: Time,
    sampler: Sampler,
    inspector: SystemInspector,
    balancer: SharedBalancer,
    ports: Vec<PortHandle>,
    gpus: Vec<Rc<RefCell<Gpu>>>,
    prev_gpu: Vec<TimelineStats>,
    samples: Rc<RefCell<Vec<TimeSample>>>,
}

impl Entity for SamplerEntity {
    fn step(&mut self, now: Time, _ctx: &mut Ctx) -> Wake {
        let gpu_now: Vec<TimelineStats> = self.gpus.iter().map(|g| g.borrow().stats()).collect();
        let win = now.saturating_sub(self.sampler.last_t());
        let gpu_busy = gpu_now
            .iter()
            .zip(&self.prev_gpu)
            .map(|(cur, prev)| cur.delta(prev).kernel_busy_fraction(win))
            .collect();
        let rx_dropped = self
            .ports
            .iter()
            .map(|p| p.borrow().counters().rx_dropped)
            .sum();
        let w = self.balancer.lock().offload_fraction();
        let sample = self
            .sampler
            .sample(now, &self.inspector, rx_dropped, w, gpu_busy, Vec::new());
        self.samples.borrow_mut().extend(sample);
        self.prev_gpu = gpu_now;
        if now >= self.horizon {
            Wake::Done
        } else {
            Wake::At((now + self.interval).min(self.horizon))
        }
    }

    fn name(&self) -> &str {
        "telemetry-sampler"
    }
}

/// The DES driver of the shared [`Supervisor`]: a timer that ticks it every
/// check interval with the simulated RX backlog. The DES never respawns (an
/// engine entity that returned `Done` stays gone) — a crashed shard stays
/// quarantined, which is exactly the bounded-loss half of the drill the
/// differential suite compares against the live runtime.
struct SupervisorEntity {
    interval: Time,
    horizon: Time,
    /// Shared with the run assembly, which closes the report at teardown.
    sup: Rc<RefCell<Supervisor>>,
    /// RX queues per worker, for the backlog half of the stall heuristic.
    rx: Vec<Vec<SimQueue<Packet>>>,
}

impl Entity for SupervisorEntity {
    fn step(&mut self, now: Time, _ctx: &mut Ctx) -> Wake {
        let rx = &self.rx;
        self.sup
            .borrow_mut()
            .tick(now.as_ns(), |w| rx[w].iter().map(|q| q.len() as u64).sum());
        if now >= self.horizon {
            Wake::Done
        } else {
            Wake::At((now + self.interval).min(self.horizon))
        }
    }

    fn name(&self) -> &str {
        "worker-supervisor"
    }
}

/// Takes back state that was shared with engine entities, all of which the
/// engine teardown has dropped by the time this is called.
fn unshare<T>(rc: Rc<RefCell<T>>, what: &str) -> T {
    Rc::try_unwrap(rc)
        .map(RefCell::into_inner)
        .unwrap_or_else(|_| panic!("{what} uniquely owned after engine teardown"))
}

/// Runs one experiment end to end and reports the measurement window.
///
/// `traffic` holds one configuration per port (see
/// [`crate::runtime::traffic_per_port`]).
///
/// # Panics
///
/// Panics on inconsistent configuration (more workers than cores, traffic
/// list not matching the port count).
pub fn run(
    cfg: &RuntimeConfig,
    build: &PipelineBuilder,
    balancer: &SharedBalancer,
    traffic: &[TrafficConfig],
) -> RunReport {
    let offered: f64 = traffic.iter().map(|t| t.offered_gbps).sum();
    let sources: Vec<Box<dyn PacketSource>> = traffic
        .iter()
        .map(|t| Box::new(TrafficGen::new(t.clone())) as Box<dyn PacketSource>)
        .collect();
    run_with_sources(cfg, build, balancer, sources, offered)
}

/// Like [`run`], but over arbitrary packet sources — one per port — such as
/// [`nba_io::Replay`] trace replays. `offered_gbps` is the total offered
/// load reported back in the [`RunReport`].
///
/// # Panics
///
/// Panics on inconsistent configuration (more workers than cores, source
/// list not matching the port count).
pub fn run_with_sources(
    cfg: &RuntimeConfig,
    build: &PipelineBuilder,
    balancer: &SharedBalancer,
    sources: Vec<Box<dyn PacketSource>>,
    offered_gbps: f64,
) -> RunReport {
    let topo = &cfg.topology;
    assert_eq!(
        sources.len(),
        topo.ports.len(),
        "need one packet source per port"
    );
    for s in &topo.sockets {
        assert!(
            cfg.workers_per_socket < s.cores || s.cores == 1,
            "reserve one core per socket for the device thread"
        );
    }

    let mut engine = Engine::new();
    let sockets = topo.sockets.len();
    let wps = cfg.workers_per_socket as usize;
    let total_workers = sockets * wps;

    // Shared infrastructure.
    let pools: Vec<Mempool> = (0..sockets).map(|_| Mempool::new(cfg.pool_size)).collect();
    let nls: Vec<NodeLocalStorage> = (0..sockets).map(|_| NodeLocalStorage::new()).collect();
    // One flow registry spans every socket (workers are numbered globally,
    // so shard ownership is unambiguous); stateful elements attach to it
    // through their socket's node-local storage.
    let flow_registry = crate::flow::FlowRegistry::new();
    flow_registry.set_workers(total_workers);
    if cfg.flow_journal {
        flow_registry.enable_journal();
    }
    for n in &nls {
        flow_registry.publish(n);
    }
    let counters: Vec<Arc<Counters>> = (0..total_workers)
        .map(|_| Arc::new(Counters::default()))
        .collect();
    let inspector = SystemInspector::new(counters.clone());
    // Per-socket RSS indirection tables, shared by every port on the
    // socket. Boot state is identical to the static demux, so a clean run
    // is bit-for-bit the same; only a supervisor re-steer changes it.
    let rss_tables: Vec<Arc<RssTable>> = (0..sockets)
        .map(|_| Arc::new(RssTable::new(wps as u16)))
        .collect();
    let ports: Vec<PortHandle> = topo
        .ports
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut port = Port::new(i as u16, p.speed_gbps, wps as u16, cfg.rxq_depth);
            port.set_rss_table(rss_tables[p.socket].clone());
            port.into_handle()
        })
        .collect();

    // Worker heartbeats + shed/loss accounting (the live runtime's exact
    // structs; the atomics are free in a single-threaded simulation).
    let health: Arc<Vec<WorkerHealth>> = Arc::new(
        (0..total_workers)
            .map(|_| WorkerHealth::new())
            .collect::<Vec<_>>(),
    );
    let hstats: Arc<HealthStats> = Arc::new(HealthStats::default());

    // Queues between workers and device threads.
    let offload_qs: Vec<SimQueue<OffloadTask>> =
        (0..sockets).map(|_| SimQueue::unbounded()).collect();
    let completion_qs: Vec<SimQueue<CompletedTask>> = (0..total_workers)
        .map(|_| SimQueue::bounded(8192))
        .collect();

    // Build pipeline replicas and capture the offload specs from a replica.
    let latencies: Vec<Rc<RefCell<LatencyHistogram>>> = (0..total_workers)
        .map(|_| Rc::new(RefCell::new(LatencyHistogram::new())))
        .collect();
    // One span allocator for the whole run, `Some` while tracing: every
    // worker graph and the device entities draw from it, so parent/child
    // links are globally unique across threads of the simulated system.
    // The flight recorder owns each worker shard's event ring; workers
    // write theirs only while tracing, the devices always.
    let spans: Option<SpanAlloc> = (cfg.telemetry.trace_capacity > 0).then(SpanAlloc::new);
    let flight = Arc::new(FlightRecorder::new(
        total_workers,
        cfg.telemetry.trace_capacity,
        cfg.flight.clone(),
        None,
    ));
    let mut graphs: Vec<ElementGraph> = Vec::with_capacity(total_workers);
    for w in 0..total_workers {
        let socket = w / wps;
        let bctx = BuildCtx {
            worker: w,
            socket,
            nls: nls[socket].clone(),
            balancer: balancer.clone(),
            policy: cfg.branch_policy,
        };
        let mut g = build(&bctx);
        if w == 0 {
            // Mandatory preflight on the first replica (all replicas are
            // clones of one pipeline): the full analysis over this run's
            // capacity model. Warnings are logged; Error-severity
            // findings refuse to start.
            crate::analysis::preflight(&g, &crate::analysis::CapacityModel::from_runtime(cfg));
        }
        if spans.is_some() {
            g.attach_ring(flight.clone(), spans.clone());
        }
        graphs.push(g);
    }
    let mut specs: HashMap<usize, OffloadSpec> = HashMap::new();
    let mut fuse_next: HashMap<usize, usize> = HashMap::new();
    {
        let g = &mut graphs[0];
        for n in 0..g.len() {
            if let Some(spec) = g.element_mut(NodeId(n)).offload() {
                specs.insert(n, spec);
            }
        }
        if cfg.datablock_reuse {
            // Fuse N -> M when M directly follows N and consumes exactly
            // the datablock N produced in place.
            for (&n, spec) in &specs {
                let Some(OutEdge::Node(m)) = g.out_edge(NodeId(n), 0) else {
                    continue;
                };
                let Some(next) = specs.get(&m.0) else {
                    continue;
                };
                let in_place = matches!(spec.output, DbOutput::InPlace { extra: 0 })
                    && matches!(next.output, DbOutput::InPlace { extra: 0 })
                    && spec.postprocess == Postprocess::WriteBack
                    && next.postprocess == Postprocess::WriteBack;
                let same_block = matches!(
                    (&spec.input, &next.input),
                    (DbInput::WholePacket { offset: a }, DbInput::WholePacket { offset: b }) if a == b
                );
                if in_place && same_block {
                    fuse_next.insert(n, m.0);
                }
            }
        }
    }

    // Device entities (placeholder ids patched after workers are added:
    // engine ids are assigned in insertion order, so compute them upfront).
    // Entity layout: [workers 0..W) [devices W..W+S) [sources ...].
    let gpus: Vec<Rc<RefCell<Gpu>>> = (0..sockets)
        .map(|_| Rc::new(RefCell::new(Gpu::gtx680(cfg.cost.gpu.clone()))))
        .collect();
    let device_ids: Vec<EntityId> = (0..sockets).map(|s| EntityId(total_workers + s)).collect();

    // Telemetry plumbing: the drop-time sink for worker-held state and the
    // sampler's output vector.
    let sink: TelemetrySink = Rc::default();
    let samples: Rc<RefCell<Vec<TimeSample>>> = Rc::new(RefCell::new(Vec::new()));

    // Shared fault accounting.
    let fstats: Arc<FaultStats> = Arc::new(FaultStats::default());

    // Decision-audit plane: shared stage/drift/SLO handles (the device
    // cores' and the sampler's exact types; the mutexes are free in a
    // single-threaded simulation). All `None` when the audit config is
    // off, so un-audited runs leave the device and sampler paths untouched.
    if cfg.audit.decision_capacity > 0 {
        balancer.lock().enable_audit(cfg.audit.decision_capacity);
    }
    let stages = cfg
        .audit
        .stage_stats
        .then(|| Arc::new(Mutex::new(StageProfiles::new())));
    let drift = cfg
        .audit
        .drift
        .clone()
        .map(|d| Arc::new(Mutex::new(DriftDetector::new(d))));
    let slo_tracker = cfg
        .slo
        .clone()
        .map(|s| Arc::new(Mutex::new(SloTracker::new(s))));

    // Where a retired packet's buffer goes: its ingress port's socket pool.
    let homes: Vec<Mempool> = (topo.ports.iter())
        .map(|p| pools[p.socket].clone())
        .collect();

    // Workers.
    let mut rx_handles: Vec<Vec<SimQueue<Packet>>> = Vec::with_capacity(total_workers);
    for w in 0..total_workers {
        let socket = w / wps;
        let local = w % wps;
        let rx: Vec<SimQueue<Packet>> = topo
            .ports_on_socket(socket)
            .into_iter()
            .map(|p| ports[p].borrow().rx_queue(local as u16))
            .collect();
        rx_handles.push(rx.clone());
        let env = WorkerEnv {
            nls: nls[socket].clone(),
            inspector: inspector.clone(),
            cost: cfg.cost.clone(),
            compute: cfg.compute,
            fstats: fstats.clone(),
            health: health.clone(),
            capture: cfg.capture,
            flight: None,
            homes: homes.clone(),
        };
        let entity = WorkerEntity {
            core: WorkerCore::new(w, graphs.remove(0), env, Some(&cfg.fault.plan)),
            cfg: cfg.clone(),
            counters: counters[w].clone(),
            rx,
            rx_rr: w,
            ports: ports.clone(),
            completions: completion_qs[w].clone(),
            offload_q: offload_qs[socket].clone(),
            device_entity: device_ids[socket],
            latency: latencies[w].clone(),
            busy_until: Time::ZERO,
            sink: sink.clone(),
        };
        let id = engine.add(Box::new(entity), Time::ZERO);
        debug_assert_eq!(id.0, w);
    }

    // Device threads.
    let mut devices: Vec<Rc<RefCell<DeviceCore>>> = Vec::with_capacity(sockets);
    for (s, gpu) in gpus.iter().enumerate() {
        let env = DeviceEnv {
            cost: cfg.cost.clone(),
            compute: cfg.compute,
            fault: cfg.fault.clone(),
            fstats: fstats.clone(),
            counters: counters[s * wps].clone(),
            balancers: vec![balancer.clone()],
            spans: spans.clone(),
            flight: flight.clone(),
            stages: stages.clone(),
            drift: drift.clone(),
            gauge: Arc::default(),
            decision_audit: cfg.audit.decision_capacity > 0,
            homes: homes.clone(),
        };
        let core = DeviceCore::new(s, specs.clone(), fuse_next.clone(), env);
        devices.push(Rc::new(RefCell::new(core)));
        let entity = DeviceEntity {
            cfg: cfg.clone(),
            core: devices[s].clone(),
            tasks: offload_qs[s].clone(),
            gpu: gpu.clone(),
            inflight: Vec::new(),
            completions: completion_qs.clone(),
            counters: counters[s * wps].clone(),
            busy_until: Time::ZERO,
        };
        let id = engine.add_idle(Box::new(entity));
        debug_assert_eq!(id, device_ids[s]);
    }

    // Traffic sources (offered-load statistics come from the port
    // counters: delivered + dropped).
    let horizon = cfg.warmup + cfg.measure;
    for (p, gen) in sources.into_iter().enumerate() {
        let socket = topo.ports[p].socket;
        let entity = SourceEntity {
            gen,
            port: ports[p].clone(),
            pool: pools[socket].clone(),
            window: cfg.gen_window,
            horizon,
        };
        engine.add(Box::new(entity), Time::ZERO);
    }

    // The supervisor: the same `Supervisor` the live runtime's supervisor
    // thread drives, always on (a clean run just produces an empty log).
    let scfg = &cfg.fault.supervisor;
    let supervisor = Rc::new(RefCell::new(Supervisor::new(
        scfg,
        health.clone(),
        hstats,
        rss_tables,
        vec![balancer.clone(); total_workers],
        flow_registry.clone(),
    )));
    engine.add(
        Box::new(SupervisorEntity {
            interval: Time::from_ns(scfg.check_interval.as_ns().max(1)),
            horizon,
            sup: supervisor.clone(),
            rx: rx_handles.clone(),
        }),
        Time::ZERO,
    );

    // The time-series sampler, added last: at equal timestamps it observes
    // the state *after* every worker/device/source has acted.
    if let Some(interval) = cfg.telemetry.sample_interval {
        let entity = SamplerEntity {
            interval,
            horizon,
            sampler: Sampler::new(slo_tracker.clone()),
            inspector: inspector.clone(),
            balancer: balancer.clone(),
            ports: ports.clone(),
            gpus: gpus.clone(),
            prev_gpu: vec![TimelineStats::default(); sockets],
            samples: samples.clone(),
        };
        engine.add(Box::new(entity), Time::ZERO);
    }

    // Warmup, snapshot, measure, snapshot.
    engine.run_until(cfg.warmup);
    let start = inspector.snapshot();
    let offered_so_far = || -> u64 {
        ports
            .iter()
            .map(|p| {
                let c = p.borrow().counters();
                c.rx_delivered + c.rx_dropped + c.rx_nombuf
            })
            .sum()
    };
    let offered_start = offered_so_far();
    engine.run_until(horizon);
    let end = inspector.snapshot();
    let offered_end = offered_so_far();
    let port_sum = |f: fn(&nba_io::port::PortCounters) -> u64| -> u64 {
        ports.iter().map(|p| f(&p.borrow().counters())).sum()
    };
    let rx_dropped = port_sum(|c| c.rx_dropped);
    let rx_nombuf = port_sum(|c| c.rx_nombuf);

    let window = end - start;
    let dur = cfg.measure;
    let mut latency = LatencyHistogram::new();
    for l in &latencies {
        latency.merge(&l.borrow());
    }
    let offered_packets = offered_end - offered_start;

    // Tear the engine down so worker entities flush their telemetry.
    drop(engine);
    let (elements, tx_capture) = merge_yields(unshare(sink, "telemetry sink"));
    let mut quarantines = Vec::new();
    for d in devices {
        quarantines.extend(unshare(d, "device core").finish());
    }
    let mut trace: Vec<TraceEvent> = match spans {
        Some(_) => flight.events(),
        None => Vec::new(),
    };
    trace.sort_by_key(|e| e.t);
    let samples = unshare(samples, "sample vector");
    quarantines.sort_by_key(|(start, _)| *start);

    // Self-healing loss accounting: whatever a crashed shard left behind —
    // packets still queued in its RX rings and completions it never
    // reaped — is attributed loss. The horizon is a measurement cut, not a
    // drain: what live shards still hold is unprocessed, not lost.
    let health = supervisor.borrow_mut().finish(false, 0, |w| {
        let ring = rx_handles[w].iter().map(|q| q.len() as u64).sum();
        let mut flight = 0;
        while let Some(done) = completion_qs[w].pop() {
            flight += done.batch.len() as u64;
        }
        (ring, flight)
    });

    let tx_mpps = window.tx_packets as f64 / dur.as_secs_f64() / 1e6;
    // Each `lock()` gets its own statement: temporaries in struct-literal
    // field initializers live until the end of the whole literal, so two
    // guards in one literal would deadlock the non-reentrant mutex.
    balancer.lock().flush_decision_clock(end.tx_packets);
    let final_w = balancer.lock().offload_fraction();
    let decisions = balancer.lock().take_audit_log();
    RunReport {
        duration: dur,
        tx_gbps: window.tx_frame_bits as f64 / dur.as_secs_f64() / 1e9,
        tx_packets: window.tx_packets,
        offered_packets,
        offered_gbps,
        rx_dropped,
        rx_nombuf,
        window,
        slo: slo_tracker.map(|tr| tr.lock().report(latency.percentile_ns(99.0), tx_mpps)),
        latency,
        final_w,
        gpu: gpus.iter().map(|g| g.borrow().stats()).collect(),
        elements,
        samples,
        trace,
        totals: end,
        faults: crate::fault::FaultReport {
            snapshot: fstats.snapshot(),
            quarantines,
        },
        tx_capture,
        stages: stages.map(|s| s.lock().clone()),
        drift: drift.map(|d| d.lock().report()),
        decisions,
        flight: flight.dumps(),
        health,
        flows: flow_registry.report(),
    }
}
