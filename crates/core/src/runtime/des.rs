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

use nba_gpu::Gpu;
use nba_io::{
    Mempool, Packet, PacketSource, Port, PortHandle, RssTable, TrafficConfig, TrafficGen,
};
use nba_sim::{Ctx, Engine, Entity, EntityId, SimQueue, Time, Wake};

use crate::audit::{DecisionContext, DriftDetector, OffloadStage, SloTracker, StageProfiles};
use crate::batch::{anno, Anno, PacketBatch};
use crate::element::{ComputeMode, KernelIo, OffloadSpec};
use crate::element::{DbInput, DbOutput, Postprocess};
use crate::fault::{
    Admission, CircuitBreaker, FaultConfig, FaultInjector, FaultKind, FaultPlan, FaultStats,
};
use crate::graph::{ElementGraph, NodeId, OutEdge};
use crate::introspect::FlightRecorder;
use crate::lb::SharedBalancer;
use crate::nls::NodeLocalStorage;
use crate::offload::{self, CompletedTask, OffloadTask};
use crate::runtime::worker::{
    merge_yields, wire_bits, Drill, Transport, WorkerCore, WorkerEnv, WorkerYield,
};
use crate::runtime::{BuildCtx, PipelineBuilder, RunReport, RuntimeConfig};
use crate::stats::{Counters, LatencyHistogram, Snapshot, SystemInspector};
use crate::supervise::{HealthStats, Supervisor, WorkerHealth};
use crate::telemetry::{SpanAlloc, TimeSample, TraceBuffer, TraceEvent, TraceEventKind};

use nba_gpu::TimelineStats;

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A traffic source feeding one port (synthetic generator or trace replay).
struct SourceEntity {
    gen: Box<dyn PacketSource>,
    port: PortHandle,
    pool: Mempool,
    window: Time,
    horizon: Time,
}

impl Entity for SourceEntity {
    fn step(&mut self, now: Time, _ctx: &mut Ctx) -> Wake {
        let port = Rc::clone(&self.port);
        self.gen.generate(now, &self.pool, &mut |p: Packet| {
            port.borrow_mut().deliver(p)
        });
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
/// per-element profiles, trace rings, and TX captures), so workers flush
/// here on `Drop`.
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
            self.core.on_batch(now, batch, 0, &mut tp);
        }
        self.busy_until = now + cfg.cost.cycles(tp.cycles);
        Wake::At(self.busy_until)
    }

    fn name(&self) -> &str {
        "worker"
    }
}

/// A task staged through the GPU whose postprocessing is pending.
struct InFlight {
    node: NodeId,
    /// First node of the (possibly fused) chain — where a CPU fallback
    /// re-enters the pipeline.
    entry: NodeId,
    batches: Vec<(usize, PacketBatch)>,
    output: Vec<u8>,
    items: usize,
    out_bytes: usize,
    /// When the result (or, for a failed task, the watchdog verdict)
    /// becomes visible to the device thread.
    d2h_done: Time,
    skipped_kernel: bool,
    /// The attempt failed on the device (timeout, death, or exhausted
    /// retries); the batches come back unprocessed.
    failed: bool,
    /// The kernel ran but its output block was injected as corrupt; the
    /// scatter-time length check is expected to reject it.
    corrupted: bool,
    /// Measured per-stage nanoseconds, indexed by [`OffloadStage::ALL`]
    /// (all-zero unless stage stats or drift detection is on).
    stage_ns: [u64; 7],
    /// Model-predicted per-stage nanoseconds for the same task.
    pred_ns: [u64; 7],
}

/// The device thread of one NUMA node (§3.2: one per node per device).
struct DeviceEntity {
    cfg: RuntimeConfig,
    tasks: SimQueue<OffloadTask>,
    /// Aggregation buffers per offloadable node id, with the arrival time
    /// of each buffer's oldest batch (the launch deadline anchor). Ordered:
    /// aggregates launch in node order, so a run with several offloadable
    /// nodes is a pure function of its seed.
    agg: BTreeMap<usize, (Time, Vec<OffloadTask>)>,
    specs: HashMap<usize, OffloadSpec>,
    /// Datablock-reuse chains: node -> immediately following offloadable
    /// node whose datablock is identical (empty unless enabled).
    fuse_next: HashMap<usize, usize>,
    gpu: Rc<RefCell<Gpu>>,
    inflight: Vec<InFlight>,
    /// Per-worker completion queues + entity ids for wake-ups.
    completions: Vec<(SimQueue<CompletedTask>, EntityId)>,
    counters: Arc<Counters>,
    /// The device-thread core is busy until this time.
    busy_until: Time,
    /// Batch-lifecycle trace ring shared with the run assembly (`None`
    /// unless tracing is enabled).
    trace: Option<Rc<RefCell<TraceBuffer>>>,
    /// The run-wide span allocator (shared with every worker graph; `None`
    /// unless tracing is enabled).
    spans: Option<SpanAlloc>,
    /// Degradation-ladder knobs (watchdog, retries, breaker).
    fault: FaultConfig,
    /// Seeded fault source; `None` when the plan is inactive, so the clean
    /// path makes no draws and stays bit-identical to a faultless build.
    injector: Option<FaultInjector>,
    /// This device's circuit breaker.
    breaker: CircuitBreaker,
    /// Shared fault accounting.
    fstats: Arc<FaultStats>,
    /// The run's balancer — told when the breaker trips or re-admits.
    balancer: SharedBalancer,
    /// Where the breaker's quarantine intervals go at engine teardown.
    quarantine_sink: QuarantineSink,
    /// Per-stage offload histograms shared with the run assembly (`None`
    /// unless [`crate::audit::AuditConfig::stage_stats`] is on).
    stages: Option<Rc<RefCell<StageProfiles>>>,
    /// Cost-model drift detector (`None` unless drift detection is on).
    drift: Option<Rc<RefCell<DriftDetector>>>,
    /// Flight recorder receiving drift-event dumps (`None` unless drift
    /// detection is on).
    flight: Option<Arc<FlightRecorder>>,
}

/// Shared collection point for the per-device quarantine intervals,
/// flushed by each [`DeviceEntity`]'s `Drop` at engine teardown.
type QuarantineSink = Rc<RefCell<Vec<(Time, Option<Time>)>>>;

impl Drop for DeviceEntity {
    fn drop(&mut self) {
        self.quarantine_sink
            .borrow_mut()
            .extend_from_slice(self.breaker.intervals());
    }
}

impl DeviceEntity {
    /// Batches currently buffered across aggregates.
    fn backlog(&self) -> usize {
        self.agg.values().map(|(_, v)| v.len()).sum()
    }
}

impl DeviceEntity {
    fn flush(
        &mut self,
        now: Time,
        cycles: &mut u64,
        node: usize,
        tasks: Vec<OffloadTask>,
        ctx: &mut Ctx,
    ) {
        // Circuit breaker first: a quarantined device gets no traffic at
        // all — the batches fall straight back to their workers' CPU paths
        // (breaker state only moves on real attempt outcomes, recorded at
        // postprocess time).
        let admission = if self.injector.is_some() {
            self.breaker.admit(now)
        } else {
            Admission::Normal
        };
        if admission == Admission::Blocked {
            let done_at = now + self.cfg.cost.cycles(*cycles);
            for t in tasks {
                FaultStats::add(&self.fstats.fell_back_batches, 1);
                FaultStats::add(&self.fstats.fell_back_packets, t.batch.len() as u64);
                let (q, eid) = &self.completions[t.worker];
                if let Err(lost) = q.push(CompletedTask {
                    node: NodeId(node),
                    worker: t.worker,
                    batch: t.batch,
                    done_at,
                    fallback: true,
                }) {
                    Counters::add(&self.counters.dropped, lost.batch.len() as u64);
                }
                ctx.wake(*eid, done_at);
            }
            return;
        }
        let mut tasks = tasks;
        // First launch span of this flush: the parent for retry events and
        // the flight-recorder trigger on a quarantine trip.
        let mut flush_span = 0;
        let first_worker = tasks.first().map_or(0, |t| t.worker);
        let first_batch = tasks
            .first()
            .map_or(0, |t| t.batch.banno().get(anno::TRACE_ID));
        if let Some(tr) = &self.trace {
            let mut tr = tr.borrow_mut();
            for t in &mut tasks {
                // Launch opens a device-side span under the worker's
                // enqueue span; the batch carries it on so the completion
                // links back here.
                let parent = t.span();
                let span = self.spans.as_ref().map_or(0, SpanAlloc::next);
                t.set_span(span);
                if flush_span == 0 {
                    flush_span = span;
                }
                let id = t.batch.banno().get(anno::TRACE_ID);
                let launch = TraceEventKind::OffloadLaunch;
                let ev = TraceEvent::point(now, t.worker, id, launch, t.batch.len());
                tr.push(ev.at_node(node).spans(span, parent));
            }
        }
        let cost = &self.cfg.cost;
        let spec = self
            .specs
            .get(&node)
            .expect("offloadable node spec")
            .clone();
        // Datablock reuse: a fused follower runs on the GPU-resident data
        // in the same round trip (one H2D, one D2H, two kernels).
        let fused = self
            .fuse_next
            .get(&node)
            .map(|&m| (m, self.specs.get(&m).expect("fused node spec").clone()));
        // Stage 1 (enqueue_wait): how long the oldest constituent batch sat
        // in the task queue plus the aggregation buffer before this launch.
        let enqueue_wait_ns = tasks
            .iter()
            .map(|t| now.saturating_sub(t.enqueued_at).as_ns())
            .max()
            .unwrap_or(0);
        let batches: Vec<(usize, PacketBatch)> =
            tasks.into_iter().map(|t| (t.worker, t.batch)).collect();
        let refs: Vec<&PacketBatch> = batches.iter().map(|(_, b)| b).collect();
        let staged = offload::stage(&spec, &refs);
        // Preprocessing cost: gather into the page-locked datablock (paid
        // once even for fused chains — the point of the optimization).
        let preproc_cycles = cost.device_task_fixed
            + cost.preproc_per_packet * staged.items as u64
            + (cost.preproc_per_byte * staged.in_bytes as f64) as u64;
        *cycles += preproc_cycles;
        let element_passes = 1 + u64::from(fused.is_some());

        let submit_at = now + cost.cycles(*cycles);
        let mut output = vec![0u8; staged.out_len];
        let skip = spec.heavy && self.cfg.compute == ComputeMode::HeadersOnly;
        let kernel = spec.kernel.clone();
        let fused_kernel = fused.as_ref().map(|(_, s)| s.kernel.clone());
        let lane_ns = staged.lane_ns
            + fused
                .as_ref()
                .map_or(0.0, |(_, s)| chained_lane_ns(s, &refs));
        // The batch resumes after the LAST element of a fused chain — and
        // falls back from the FIRST, so the CPU re-runs the whole chain.
        let resume_node = fused.as_ref().map_or(node, |(m, _)| *m);
        // Offsets header length: everything before the item bytes.
        let hdr_len = staged.input.len() - staged.in_bytes;
        let run_kernel = move |i: &[u8], o: &mut [u8], _n: usize| {
            if skip {
                return;
            }
            kernel(KernelIo::parse(i, o));
            if let Some(k2) = &fused_kernel {
                // Re-stage in place: same offsets, stage-1 output
                // as the next kernel's resident input.
                let mut chained = Vec::with_capacity(i.len());
                chained.extend_from_slice(&i[..hdr_len]);
                chained.extend_from_slice(o);
                k2(KernelIo::parse(&chained, o));
            }
        };

        // Attempt loop: each kernel attempt consumes one fault draw.
        // Transient errors (and allocation failures) retry with backoff up
        // to the configured bound; timeouts and device death abort the
        // task, charge only the wasted H2D copy, and surface at the
        // watchdog deadline; corrupt output completes normally and is
        // caught by the scatter-time length check.
        let mut failed = false;
        let mut corrupted = false;
        let mut attempt_at = submit_at;
        let mut retries_left = self.fault.max_retries;
        let mut detect_at = attempt_at;
        let timing = loop {
            let draw = self.injector.as_mut().and_then(|inj| inj.draw(attempt_at));
            match draw {
                Some(k @ (FaultKind::Timeout | FaultKind::DeviceDeath)) => {
                    let counter = if k == FaultKind::Timeout {
                        &self.fstats.injected_timeout
                    } else {
                        &self.fstats.injected_dead
                    };
                    FaultStats::add(counter, 1);
                    // The H2D copy went out before anything could fail.
                    let _ = self
                        .gpu
                        .borrow_mut()
                        .abort_task(attempt_at, staged.input.len());
                    failed = true;
                    detect_at = attempt_at + self.fault.watchdog;
                    break None;
                }
                Some(FaultKind::Transient) => {
                    FaultStats::add(&self.fstats.injected_transient, 1);
                }
                other => {
                    let res = self.gpu.borrow_mut().run_task(
                        attempt_at,
                        &staged.input,
                        staged.items,
                        lane_ns,
                        &mut output,
                        &run_kernel,
                    );
                    match res {
                        Ok(t) => {
                            if other == Some(FaultKind::CorruptOutput) {
                                FaultStats::add(&self.fstats.injected_corrupt, 1);
                                corrupted = true;
                                // Wrong-length output block: one byte short.
                                output.pop();
                            }
                            break Some(t);
                        }
                        // Device memory exhaustion is a real transient:
                        // same retry-then-fallback ladder, instead of the
                        // old panic.
                        Err(_oom) => {}
                    }
                }
            }
            // Falling out of the match means the attempt was retryable
            // (transient error or allocation failure): back off and redraw,
            // or — once the retry budget is spent — fail the task.
            if retries_left == 0 {
                failed = true;
                detect_at = attempt_at;
                break None;
            }
            retries_left -= 1;
            FaultStats::add(&self.fstats.retried, 1);
            if let Some(tr) = &self.trace {
                let retry = TraceEventKind::OffloadRetry;
                let ev =
                    TraceEvent::point(attempt_at, first_worker, first_batch, retry, staged.items);
                let span = self.spans.as_ref().map_or(0, SpanAlloc::next);
                tr.borrow_mut()
                    .push(ev.at_node(node).spans(span, flush_span));
            }
            attempt_at += self.fault.retry_backoff;
        };
        // Only attempts whose kernel results are actually used count as
        // GPU-processed; fallbacks are counted as CPU work in traversal.
        if timing.is_some() && (skip || !corrupted) {
            Counters::add(
                &self.counters.gpu_processed,
                staged.items as u64 * element_passes,
            );
        }
        let d2h_done = timing.map_or(detect_at, |t| t.d2h_done);

        // Offload stage decomposition: measured against model-predicted
        // time per sub-stage. Gather (and later scatter) are themselves
        // model-derived CPU charges, so their predictions mirror the
        // measurement and contribute no drift; the device-side stages
        // compare engine-timeline reality — including engine queueing and
        // retry backoff — against the per-task cost model.
        let audit_on =
            self.stages.is_some() || self.drift.is_some() || self.cfg.audit.decision_capacity > 0;
        let mut stage_ns = [0u64; 7];
        let mut pred_ns = [0u64; 7];
        if audit_on {
            let gather_ns = cost.cycles(preproc_cycles).as_ns();
            stage_ns[OffloadStage::EnqueueWait.index()] = enqueue_wait_ns;
            stage_ns[OffloadStage::Gather.index()] = gather_ns;
            pred_ns[OffloadStage::Gather.index()] = gather_ns;
            // Launch covers submit-to-final-attempt: retry backoff, and for
            // failed tasks the watchdog wait until the verdict surfaces.
            let launch_end = if failed { detect_at } else { attempt_at };
            stage_ns[OffloadStage::Launch.index()] = launch_end.saturating_sub(submit_at).as_ns();
            if let Some(t) = timing {
                stage_ns[OffloadStage::CopyIn.index()] =
                    t.h2d_done.saturating_sub(attempt_at).as_ns();
                stage_ns[OffloadStage::Compute.index()] =
                    t.kernel_done.saturating_sub(t.h2d_done).as_ns();
                stage_ns[OffloadStage::CopyOut.index()] =
                    t.d2h_done.saturating_sub(t.kernel_done).as_ns();
            }
            pred_ns[OffloadStage::CopyIn.index()] = cost.gpu.h2d_time(staged.input.len()).as_ns();
            pred_ns[OffloadStage::Compute.index()] = cost.gpu.kernel_time(lane_ns).as_ns();
            pred_ns[OffloadStage::CopyOut.index()] = cost.gpu.d2h_time(staged.out_len).as_ns();
        }

        // Publish the decision inputs the balancer cites in its next audit
        // record (reads only; skipped entirely when auditing is off, so
        // un-audited runs make no extra balancer calls).
        if self.cfg.audit.decision_capacity > 0 {
            let queue_depth = (self.tasks.len() + self.backlog()) as u64;
            let busy = self.gpu.borrow().stats().kernel_busy;
            let gpu_busy = if now.is_zero() {
                0.0
            } else {
                busy.as_secs_f64() / now.as_secs_f64()
            };
            let items = staged.items.max(1) as f64;
            self.balancer.lock().set_decision_context(DecisionContext {
                queue_depth,
                gpu_busy,
                // Serial single-lane kernel time per item: the CPU-side
                // cost proxy the GPU run amortizes away.
                predicted_cpu_ns_per_pkt: lane_ns / items,
                predicted_gpu_ns_per_pkt: (pred_ns[OffloadStage::CopyIn.index()]
                    + pred_ns[OffloadStage::Compute.index()]
                    + pred_ns[OffloadStage::CopyOut.index()])
                    as f64
                    / items,
            });
        }

        self.inflight.push(InFlight {
            node: NodeId(resume_node),
            entry: NodeId(node),
            batches,
            output,
            items: staged.items,
            out_bytes: staged.out_len,
            d2h_done,
            skipped_kernel: skip,
            failed,
            corrupted,
            stage_ns,
            pred_ns,
        });
    }
}

/// Single-lane kernel nanoseconds a chained element adds over the same
/// staged items.
fn chained_lane_ns(spec: &OffloadSpec, batches: &[&PacketBatch]) -> f64 {
    let mut ns = 0.0;
    for b in batches {
        for i in b.live_indices() {
            let len = b.packet(i).expect("live index").len();
            ns += spec.gpu.item_ns(len);
        }
    }
    ns
}

impl Entity for DeviceEntity {
    fn step(&mut self, now: Time, ctx: &mut Ctx) -> Wake {
        if now < self.busy_until {
            return Wake::At(self.busy_until);
        }
        let cost = self.cfg.cost.clone();
        let mut cycles: u64 = 0;

        // 1. Postprocess tasks whose D2H copy has landed.
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].d2h_done <= now {
                let mut t = self.inflight.swap_remove(i);
                let mut fallback = t.failed;
                if !t.failed {
                    let pp_cycles = cost.postproc_per_packet * t.items as u64
                        + (cost.postproc_per_byte * t.out_bytes as f64) as u64;
                    cycles += pp_cycles;
                    // Stage 7 (scatter): the postprocess copy back into the
                    // batches — like gather, a model-derived CPU charge, so
                    // its prediction mirrors the measurement.
                    let scatter_ns = cost.cycles(pp_cycles).as_ns();
                    t.stage_ns[OffloadStage::Scatter.index()] = scatter_ns;
                    t.pred_ns[OffloadStage::Scatter.index()] = scatter_ns;
                    if !t.skipped_kernel {
                        let spec = self.specs.get(&t.node.0).expect("spec").clone();
                        let mut only: Vec<PacketBatch> = t
                            .batches
                            .iter_mut()
                            .map(|(_, b)| std::mem::take(b))
                            .collect();
                        // The scatter length check is the corruption
                        // detector: a bad output block leaves every packet
                        // untouched and sends the task down the CPU path.
                        if let Err(e) = offload::scatter(&spec, &mut only, &t.output) {
                            debug_assert!(t.corrupted, "scatter misaligned with staging: {e}");
                            fallback = true;
                        }
                        for ((_, slot), b) in t.batches.iter_mut().zip(only) {
                            *slot = b;
                        }
                    }
                }
                if let Some(st) = &self.stages {
                    let mut st = st.borrow_mut();
                    for (stage, &ns) in OffloadStage::ALL.iter().zip(&t.stage_ns) {
                        st.record(*stage, ns);
                    }
                    st.tasks += 1;
                }
                // Feed the drift detector (successful attempts only: a
                // failed task has no device timeline to compare against
                // the model). The first threshold crossing snapshots the
                // flight recorder, naming the offending stage.
                if !t.failed {
                    if let Some(d) = &self.drift {
                        if let Some(stage) = d.borrow_mut().observe(&t.stage_ns, &t.pred_ns) {
                            if let Some(fl) = &self.flight {
                                fl.dump(
                                    &format!("cost_drift_{}", stage.as_str()),
                                    None,
                                    0,
                                    now,
                                    self.fstats.snapshot(),
                                );
                            }
                        }
                    }
                }
                // One breaker verdict per task, on the device clock.
                if self.injector.is_some() {
                    if fallback {
                        if self.breaker.record_failure(now) {
                            FaultStats::add(&self.fstats.quarantine_entered, 1);
                            self.balancer.lock().observe_device_health(false);
                        }
                    } else if self.breaker.record_success(now) {
                        FaultStats::add(&self.fstats.quarantine_exited, 1);
                        self.balancer.lock().observe_device_health(true);
                    }
                }
                let done_at = now + cost.cycles(cycles);
                let resume = if fallback { t.entry } else { t.node };
                for (worker, batch) in t.batches {
                    if fallback {
                        FaultStats::add(&self.fstats.fell_back_batches, 1);
                        FaultStats::add(&self.fstats.fell_back_packets, batch.len() as u64);
                    }
                    let (q, eid) = &self.completions[worker];
                    if let Err(lost) = q.push(CompletedTask {
                        node: resume,
                        worker,
                        batch,
                        done_at,
                        fallback,
                    }) {
                        Counters::add(&self.counters.dropped, lost.batch.len() as u64);
                    }
                    ctx.wake(*eid, done_at);
                }
            } else {
                i += 1;
            }
        }

        // 2. Drain newly arrived tasks into per-node aggregation buffers,
        // unless the buffered backlog already exceeds the cap (then tasks
        // stay in the bounded queue, which eventually overflows into drops
        // at the workers — overload backpressure).
        while self.backlog() < self.cfg.device_backlog_batches {
            let Some(task) = self.tasks.pop() else {
                break;
            };
            cycles += cost.offload_dequeue;
            let entry = self
                .agg
                .entry(task.node.0)
                .or_insert_with(|| (now, Vec::new()));
            if entry.1.is_empty() {
                entry.0 = now;
            }
            entry.1.push(task);
        }

        // 3. Launch aggregates: full ones immediately, partial ones once
        // their oldest batch has waited out the aggregation timeout — and
        // only while the GPU compute engine is not too far behind (§3.3
        // aggregation; the backlog cap turns saturation into queue growth
        // rather than unbounded in-flight work).
        let nodes: Vec<usize> = self.agg.keys().copied().collect();
        let mut next_deadline: Option<Time> = None;
        for node in nodes {
            loop {
                let gpu_behind = self.inflight.len() >= self.cfg.gpu_max_inflight;
                let (oldest, buf) = self.agg.get_mut(&node).expect("agg buffer");
                if buf.is_empty() {
                    break;
                }
                let full = buf.len() >= self.cfg.offload_aggregate;
                let expired = now >= *oldest + self.cfg.offload_agg_timeout;
                if gpu_behind || !(full || expired) {
                    if !gpu_behind {
                        let dl = *oldest + self.cfg.offload_agg_timeout;
                        next_deadline = Some(next_deadline.map_or(dl, |d: Time| d.min(dl)));
                    }
                    break;
                }
                let take = buf.len().min(self.cfg.offload_aggregate);
                let rest = buf.split_off(take);
                let chunk = std::mem::replace(buf, rest);
                *oldest = now;
                self.flush(now, &mut cycles, node, chunk, ctx);
            }
        }

        // 4. Sleep until the next D2H completion, aggregation deadline, or
        // GPU-backlog relief — whichever comes first.
        let next_pp = self.inflight.iter().map(|t| t.d2h_done).min();
        let busy_until = now + cost.cycles(cycles);
        let mut wake: Option<Time> = next_pp;
        if let Some(dl) = next_deadline {
            wake = Some(wake.map_or(dl, |w| w.min(dl)));
        }
        if (self.backlog() > 0 || !self.tasks.is_empty())
            && self.inflight.len() >= self.cfg.gpu_max_inflight
        {
            // Blocked on in-flight tasks: the next D2H completion (already
            // in `wake`) frees a slot. Nothing further to schedule.
        } else if self.backlog() > 0 || !self.tasks.is_empty() {
            // Work remains and slots are free: re-run shortly.
            let soon = now + Time::from_us(5);
            wake = Some(wake.map_or(soon, |w| w.min(soon)));
        }
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
/// traces). It is added after every other entity, so at equal timestamps it
/// runs last — and since it only reads counters, port statistics, GPU
/// timelines, and the balancer, it cannot perturb the simulation: a run
/// with the sampler produces bit-identical results to one without.
struct SamplerEntity {
    interval: Time,
    horizon: Time,
    inspector: SystemInspector,
    balancer: SharedBalancer,
    ports: Vec<PortHandle>,
    gpus: Vec<Rc<RefCell<Gpu>>>,
    prev: Snapshot,
    prev_gpu: Vec<TimelineStats>,
    last_t: Time,
    samples: Rc<RefCell<Vec<TimeSample>>>,
    /// SLO budget tracker, shared with the run assembly for the final
    /// verdict (`None` unless an SLO is configured).
    slo: Option<Rc<RefCell<SloTracker>>>,
}

impl Entity for SamplerEntity {
    fn step(&mut self, now: Time, _ctx: &mut Ctx) -> Wake {
        let snap = self.inspector.snapshot();
        let gpu_now: Vec<TimelineStats> = self.gpus.iter().map(|g| g.borrow().stats()).collect();
        if now > self.last_t {
            let win = now - self.last_t;
            let secs = win.as_secs_f64();
            let w = snap - self.prev;
            let rx_dropped: u64 = self
                .ports
                .iter()
                .map(|p| p.borrow().counters().rx_dropped)
                .sum();
            let gpu_busy: Vec<f64> = gpu_now
                .iter()
                .zip(&self.prev_gpu)
                .map(|(cur, prev)| cur.delta(prev).kernel_busy_fraction(win))
                .collect();
            let tx_mpps = w.tx_packets as f64 / secs / 1e6;
            let latency_ewma_ns = self.inspector.worst_latency_ewma_ns();
            let slo = self
                .slo
                .as_ref()
                .map(|tr| tr.borrow_mut().observe(latency_ewma_ns, tx_mpps));
            self.samples.borrow_mut().push(TimeSample {
                t: now,
                tx_packets: snap.tx_packets,
                tx_mpps,
                tx_gbps: w.tx_frame_bits as f64 / secs / 1e9,
                dropped: snap.dropped,
                rx_dropped,
                latency_ewma_ns,
                offloaded_batches: snap.offloaded_batches,
                offload_fraction: self.balancer.lock().offload_fraction(),
                gpu_busy,
                shards: Vec::new(),
                slo,
            });
        }
        self.prev = snap;
        self.prev_gpu = gpu_now;
        self.last_t = now;
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
            // Mandatory deep preflight on the first replica (all replicas
            // are clones of one pipeline): shallow lint plus the
            // path-sensitive pass and the static queue-law checks over
            // this run's capacity model. Warnings are logged; Error-
            // severity findings refuse to start.
            crate::verify::preflight(&g, &crate::verify::CapacityModel::from_runtime(cfg));
        }
        g.enable_trace(cfg.telemetry.trace_capacity);
        graphs.push(g);
    }
    // One span allocator for the whole run: every worker graph and the
    // device entities draw from it, so parent/child links are globally
    // unique across threads of the simulated system.
    let spans: Option<SpanAlloc> = (cfg.telemetry.trace_capacity > 0).then(SpanAlloc::new);
    if let Some(alloc) = &spans {
        for g in &mut graphs {
            g.share_spans(alloc.clone());
        }
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

    // Telemetry plumbing: the drop-time sink for worker-held state, the
    // device-side trace ring, and the sampler's output vector.
    let sink: TelemetrySink = Rc::default();
    let device_trace: Option<Rc<RefCell<TraceBuffer>>> = (cfg.telemetry.trace_capacity > 0)
        .then(|| Rc::new(RefCell::new(TraceBuffer::new(cfg.telemetry.trace_capacity))));
    let samples: Rc<RefCell<Vec<TimeSample>>> = Rc::new(RefCell::new(Vec::new()));

    // Fault machinery: shared accounting plus the sink device entities
    // flush their quarantine intervals into at teardown.
    let fstats: Arc<FaultStats> = Arc::new(FaultStats::default());
    let quarantine_sink: QuarantineSink = Rc::new(RefCell::new(Vec::new()));

    // Decision-audit plane: shared stage/drift/flight/SLO handles. All
    // `None` when the audit config is off, so un-audited runs leave the
    // device and sampler paths untouched.
    if cfg.audit.decision_capacity > 0 {
        balancer.lock().enable_audit(cfg.audit.decision_capacity);
    }
    let stages: Option<Rc<RefCell<StageProfiles>>> = cfg
        .audit
        .stage_stats
        .then(|| Rc::new(RefCell::new(StageProfiles::new())));
    let drift: Option<Rc<RefCell<DriftDetector>>> = cfg
        .audit
        .drift
        .clone()
        .map(|d| Rc::new(RefCell::new(DriftDetector::new(d))));
    let flight: Option<Arc<FlightRecorder>> = drift
        .is_some()
        .then(|| Arc::new(FlightRecorder::new(total_workers, cfg.flight.clone())));
    let slo_tracker: Option<Rc<RefCell<SloTracker>>> = cfg
        .slo
        .clone()
        .map(|s| Rc::new(RefCell::new(SloTracker::new(s))));

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
    for (s, gpu) in gpus.iter().enumerate() {
        let completions: Vec<(SimQueue<CompletedTask>, EntityId)> = (0..total_workers)
            .map(|w| (completion_qs[w].clone(), EntityId(w)))
            .collect();
        // Each device draws from its own deterministic stream, derived
        // from the one user-facing seed.
        // Worker-only fault plans leave the device injector off, so the
        // offload path of a kill/stall drill stays bit-identical to a
        // clean run.
        let injector = cfg.fault.plan.device_active().then(|| {
            let seed = cfg
                .fault
                .plan
                .seed
                .wrapping_add((s as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            FaultInjector::new(FaultPlan {
                seed,
                ..cfg.fault.plan.clone()
            })
        });
        let entity = DeviceEntity {
            cfg: cfg.clone(),
            tasks: offload_qs[s].clone(),
            agg: BTreeMap::new(),
            specs: specs.clone(),
            fuse_next: fuse_next.clone(),
            gpu: gpu.clone(),
            inflight: Vec::new(),
            completions,
            counters: counters[s * wps].clone(),
            busy_until: Time::ZERO,
            trace: device_trace.clone(),
            spans: spans.clone(),
            fault: cfg.fault.clone(),
            injector,
            breaker: CircuitBreaker::new(cfg.fault.breaker_threshold, cfg.fault.quarantine),
            fstats: fstats.clone(),
            balancer: balancer.clone(),
            quarantine_sink: quarantine_sink.clone(),
            stages: stages.clone(),
            drift: drift.clone(),
            flight: flight.clone(),
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
            inspector: inspector.clone(),
            balancer: balancer.clone(),
            ports: ports.clone(),
            gpus: gpus.clone(),
            prev: Snapshot::default(),
            prev_gpu: vec![TimelineStats::default(); sockets],
            last_t: Time::ZERO,
            samples: samples.clone(),
            slo: slo_tracker.clone(),
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
                c.rx_delivered + c.rx_dropped
            })
            .sum()
    };
    let offered_start = offered_so_far();
    engine.run_until(horizon);
    let end = inspector.snapshot();
    let offered_end = offered_so_far();
    let rx_dropped: u64 = ports.iter().map(|p| p.borrow().counters().rx_dropped).sum();

    let window = end - start;
    let dur = cfg.measure;
    let mut latency = LatencyHistogram::new();
    for l in &latencies {
        latency.merge(&l.borrow());
    }
    let offered_packets = offered_end - offered_start;

    // Tear the engine down so worker entities flush their telemetry.
    drop(engine);
    let mut trace: Vec<TraceEvent> = Vec::new();
    let (elements, tx_capture) = merge_yields(unshare(sink, "telemetry sink"), &mut trace);
    if let Some(dt) = device_trace {
        trace.extend(unshare(dt, "device trace").into_events());
    }
    trace.sort_by_key(|e| e.t);
    let samples = unshare(samples, "sample vector");
    let mut quarantines = unshare(quarantine_sink, "quarantine sink");
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
        window,
        slo: slo_tracker.map(|tr| tr.borrow().report(latency.percentile_ns(99.0), tx_mpps)),
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
        stages: stages.map(|s| unshare(s, "stage profiles")),
        drift: drift.map(|d| d.borrow().report()),
        decisions,
        flight: flight.map(|f| f.dumps()).unwrap_or_default(),
        health,
        flows: flow_registry.report(),
    }
}
