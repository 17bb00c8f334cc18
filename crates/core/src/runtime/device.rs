//! The device step (§3.2–3.3), written once: aggregate offload tasks per
//! node, gather the datablock, launch with the degradation ladder, scatter,
//! and hand every batch back to its worker.
//!
//! Both runtimes drive a [`DeviceCore`]. Everything a device thread
//! *decides* is here — the aggregation buffers, breaker admission, launch
//! span stamping, the attempt/retry loop over the seeded fault draws, panic
//! containment, the scatter-time corruption check, the breaker verdict and
//! its fan-out to the balancers, the seven-stage record, drift detection
//! and its flight dump, decision-context publication, fallback accounting,
//! and the rule that every accepted batch yields exactly one
//! [`CompletedTask`]. A driver supplies *when to launch* (its calls to
//! [`DeviceCore::launch`]), the clock (the `now` it passes in), and a
//! [`DeviceBackend`]: how one attempt executes and how time passes — a GPU
//! timeline with a watchdog in the DES, a synchronous host kernel timed
//! with `Instant` in live. A change to the ladder or to offload auditing is
//! an edit to this file, and DES↔live device conformance holds by
//! construction.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use nba_gpu::{KernelFn, TaskTiming};
use nba_io::Mempool;
use nba_sim::{CostModel, Time};
use parking_lot::Mutex;

use crate::audit::{DecisionContext, DriftDetector, DriftGauge, OffloadStage, StageProfiles};
use crate::batch::{anno, PacketBatch};
use crate::element::{ComputeMode, KernelIo, OffloadSpec};
use crate::fault::{
    Admission, CircuitBreaker, FaultConfig, FaultInjector, FaultKind, FaultPlan, FaultStats,
};
use crate::graph::NodeId;
use crate::introspect::FlightRecorder;
use crate::lb::SharedBalancer;
use crate::offload::{self, CompletedTask, OffloadTask, StagedTask};
use crate::runtime::worker::Homes;
use crate::stats::Counters;
use crate::telemetry::{SpanAlloc, TraceEvent, TraceEventKind};

/// How one attempt executes and how time passes. Generic (never `dyn`) so
/// each runtime's device step monomorphises around its own backend.
pub trait DeviceBackend {
    /// The device thread's clock right now: the step's virtual time plus
    /// the work charged so far in the DES, elapsed wall time in live.
    fn now(&self) -> Time;

    /// Accounts CPU-side work of the device thread (gather, scatter) that
    /// began at `began` and that the cost model prices at `cycles`; returns
    /// how long it took on this clock — the price itself in the DES (which
    /// also adds it to the device core's busy time), the wall time since
    /// `began` in live.
    fn charge(&mut self, cycles: u64, began: Time) -> Time;

    /// Model-predicted `[copy_in, compute, copy_out]` nanoseconds of one
    /// attempt. `None` when the backend has no device model: predictions
    /// then mirror the measurement, so those stages contribute no drift.
    fn predict(&self, staged: &StagedTask, lane_ns: f64) -> Option<[u64; 3]>;

    /// Runs `kernel` over the staged block into `output`, starting at
    /// `at`; returns when each device stage finished.
    fn attempt(
        &mut self,
        at: Time,
        staged: &StagedTask,
        lane_ns: f64,
        kernel: &KernelFn,
        output: &mut [u8],
    ) -> TaskTiming;

    /// An attempt doomed by a timeout or a dead device: charges what it
    /// wasted (the H2D copy went out before anything could fail) and
    /// returns when the failure becomes visible — the watchdog deadline on
    /// a timeline, at once on the wall clock.
    fn abort(&mut self, at: Time, h2d_bytes: usize) -> Time;

    /// Waits out a retry backoff starting at `at`; returns when the next
    /// attempt begins.
    fn backoff(&mut self, at: Time, dur: Time) -> Time;

    /// `(tasks queued behind the aggregation buffers, device busy fraction
    /// since run start)`: explanation payload of the decision audit, read
    /// only when it is on.
    fn gauges(&self, now: Time) -> (u64, f64);

    /// Hands a finished batch back to its worker.
    fn deliver(&mut self, done: CompletedTask);
}

/// The run-wide handles a device thread shares with the rest of its run.
#[derive(Clone)]
pub struct DeviceEnv {
    /// Cost constants pricing gather and scatter.
    pub cost: CostModel,
    /// Whether heavy payload kernels really execute.
    pub compute: ComputeMode,
    /// The fault plan and the degradation-ladder knobs.
    pub fault: FaultConfig,
    /// Shared fault accounting.
    pub fstats: Arc<FaultStats>,
    /// Where `gpu_processed` and packets lost to a contained scatter panic
    /// are counted.
    pub counters: Arc<Counters>,
    /// Every distinct balancer of the run ([`crate::lb::distinct`]): each
    /// hears a breaker transition and the decision context exactly once.
    pub balancers: Vec<SharedBalancer>,
    /// The run-wide span allocator (`None` unless tracing is enabled).
    pub spans: Option<SpanAlloc>,
    /// Takes the launch/retry events, each into the ring of the batch's
    /// worker, and the quarantine and drift dumps.
    pub flight: Arc<FlightRecorder>,
    /// Per-stage offload histograms (`None` unless stage stats are on).
    pub stages: Option<Arc<Mutex<StageProfiles>>>,
    /// Cost-model drift detector (`None` unless drift detection is on).
    pub drift: Option<Arc<Mutex<DriftDetector>>>,
    /// Lock-free copy of the detector's state for the stats endpoint.
    pub gauge: Arc<DriftGauge>,
    /// Publish a [`DecisionContext`] per launch (decision audit on). Off,
    /// the device makes no balancer calls outside breaker transitions.
    pub decision_audit: bool,
    /// The workers' home pools ([`crate::runtime::worker::WorkerEnv::homes`]),
    /// which write off the buffers a contained scatter panic loses.
    pub homes: Vec<Mempool>,
}

/// A launched task whose completion is pending: the DES keeps it in flight
/// until [`Launched::ready_at`], live completes it at once.
pub struct Launched {
    /// When the result (or, for a failed task, the failure verdict) becomes
    /// visible to the device thread.
    pub ready_at: Time,
    /// First node of the (possibly fused) chain — where a CPU fallback
    /// re-enters the pipeline.
    entry: NodeId,
    /// Last node of the chain — where a processed batch resumes.
    resume: NodeId,
    workers: Vec<usize>,
    batches: Vec<PacketBatch>,
    output: Vec<u8>,
    /// Modelled price of the scatter, in device-thread cycles.
    postproc: u64,
    skipped_kernel: bool,
    /// Timeout, death, exhausted retries or a contained kernel panic: the
    /// batches come back unprocessed.
    failed: bool,
    /// The output block was injected as corrupt; the scatter-time length
    /// check is expected to reject it.
    corrupted: bool,
    /// Measured and model-predicted nanoseconds per [`OffloadStage::ALL`].
    stage_ns: [u64; 7],
    pred_ns: [u64; 7],
    /// Evidence every dump about this task carries.
    first_worker: usize,
    flush_span: u64,
}

/// One device thread's state and the step logic around it.
pub struct DeviceCore {
    env: DeviceEnv,
    specs: HashMap<usize, OffloadSpec>,
    /// Datablock-reuse chains: node -> the directly following offloadable
    /// node that consumes the same device-resident block (empty unless the
    /// driver enables reuse).
    fuse_next: HashMap<usize, usize>,
    /// Aggregation buffers per offloadable node with the arrival time of
    /// each buffer's oldest batch. Ordered: aggregates are visited in node
    /// order, so a run with several offloadable nodes is a pure function
    /// of its seed.
    agg: BTreeMap<usize, (Time, Vec<OffloadTask>)>,
    /// `None` when the plan injects no device faults: the clean path makes
    /// no draws, keeps no breaker state, and stays bit-identical to a
    /// build without the fault machinery.
    injector: Option<FaultInjector>,
    breaker: CircuitBreaker,
}

impl DeviceCore {
    /// Device number `device` of the run, serving the offloadable nodes in
    /// `specs`.
    pub fn new(
        device: usize,
        specs: HashMap<usize, OffloadSpec>,
        fuse_next: HashMap<usize, usize>,
        env: DeviceEnv,
    ) -> DeviceCore {
        let plan = &env.fault.plan;
        // Each device draws from its own deterministic stream, derived from
        // the one user-facing seed. Worker-only plans (kill/stall drills)
        // leave the injector off, so their offload path stays bit-identical
        // to a clean run.
        let seed = plan
            .seed
            .wrapping_add((device as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let injector = plan.device_active().then(|| {
            FaultInjector::new(FaultPlan {
                seed,
                ..plan.clone()
            })
        });
        DeviceCore {
            specs,
            fuse_next,
            agg: BTreeMap::new(),
            injector,
            breaker: CircuitBreaker::new(env.fault.breaker_threshold, env.fault.quarantine),
            env,
        }
    }

    /// Buffers an accepted task; returns how many its node now holds.
    pub fn push(&mut self, now: Time, task: OffloadTask) -> usize {
        let (oldest, buf) = self.agg.entry(task.node.0).or_default();
        if buf.is_empty() {
            *oldest = now;
        }
        buf.push(task);
        buf.len()
    }

    /// Batches buffered across all aggregates.
    pub fn backlog(&self) -> usize {
        self.agg.values().map(|(_, v)| v.len()).sum()
    }

    /// The nodes that have (or had) an aggregate, in launch order.
    pub fn nodes(&self) -> Vec<usize> {
        self.agg.keys().copied().collect()
    }

    /// `(arrival of the oldest batch, batches held)` of a non-empty
    /// aggregate — what a launch policy decides on.
    pub fn pending(&self, node: usize) -> Option<(Time, usize)> {
        let (oldest, buf) = self.agg.get(&node)?;
        (!buf.is_empty()).then_some((*oldest, buf.len()))
    }

    /// Launches up to `max` buffered batches of `node` as one device task.
    /// `None` when nothing went in flight: the aggregate was empty, or
    /// every batch was already handed back for its worker's CPU path.
    pub fn launch<B: DeviceBackend>(
        &mut self,
        now: Time,
        node: usize,
        max: usize,
        be: &mut B,
    ) -> Option<Launched> {
        let (oldest, buf) = self.agg.get_mut(&node)?;
        if buf.is_empty() {
            return None;
        }
        let rest = buf.split_off(buf.len().min(max));
        let mut tasks = std::mem::replace(buf, rest);
        *oldest = now;
        // Circuit breaker first: a quarantined device gets no traffic at
        // all (breaker state moves only on real attempt outcomes, recorded
        // in `complete`). A node without a spec has no kernel to run and
        // takes the same way back.
        let blocked = self.injector.is_some() && self.breaker.admit(now) == Admission::Blocked;
        let Some(spec) = self.specs.get(&node).filter(|_| !blocked).cloned() else {
            for t in tasks {
                self.deliver(NodeId(node), t.worker, t.batch, true, be);
            }
            return None;
        };
        // First launch span of this task: the parent of retry events and
        // the trigger every flight dump about it names.
        let mut flush_span = 0;
        let first_worker = tasks[0].worker;
        let first_batch = tasks[0].batch.banno().get(anno::TRACE_ID);
        for t in &mut tasks {
            // Launch opens a device-side span under the worker's enqueue
            // span; the batch carries it on so the completion links back.
            let parent = t.span();
            let span = self.env.spans.as_ref().map_or(0, SpanAlloc::next);
            t.set_span(span);
            if flush_span == 0 {
                flush_span = span;
            }
            let id = t.batch.banno().get(anno::TRACE_ID);
            let launch = TraceEventKind::OffloadLaunch;
            let ev = TraceEvent::point(now, t.worker, id, launch, t.batch.len());
            self.env.flight.record(ev.at_node(node).spans(span, parent));
        }
        // Stage 1 (enqueue_wait): how long the oldest constituent batch sat
        // in the command queue plus the aggregation buffer.
        let enqueue_wait_ns = tasks
            .iter()
            .map(|t| now.saturating_sub(t.enqueued_at).as_ns())
            .max()
            .unwrap_or(0);
        let (workers, batches): (Vec<usize>, Vec<PacketBatch>) =
            tasks.into_iter().map(|t| (t.worker, t.batch)).unzip();
        let refs: Vec<&PacketBatch> = batches.iter().collect();
        // Datablock reuse: a fused follower runs on the device-resident
        // data in the same round trip (one H2D, one D2H, two kernels).
        let fused = self
            .fuse_next
            .get(&node)
            .map(|&m| (m, self.specs[&m].clone()));

        // Stage 2 (gather) into the page-locked datablock, paid once even
        // for a fused chain — the point of the optimization.
        let cost = &self.env.cost;
        let began = be.now();
        let staged = offload::stage(&spec, &refs);
        let mut output = vec![0u8; staged.out_len];
        let preproc = cost.device_task_fixed
            + cost.preproc_per_packet * staged.items as u64
            + (cost.preproc_per_byte * staged.in_bytes as f64) as u64;
        let gather_ns = be.charge(preproc, began).as_ns();
        let submit_at = be.now();

        let lane_ns = staged.lane_ns
            + fused
                .as_ref()
                .map_or(0.0, |(_, s)| chained_lane_ns(s, &refs));
        let skip = spec.heavy && self.env.compute == ComputeMode::HeadersOnly;
        // Offsets header length: everything before the item bytes.
        let hdr_len = staged.input.len() - staged.in_bytes;
        let kernel = spec.kernel.clone();
        let fused_kernel = fused.as_ref().map(|(_, s)| s.kernel.clone());
        let run_kernel = move |i: &[u8], o: &mut [u8], _n: usize| {
            if skip {
                return;
            }
            kernel(KernelIo::parse(i, o));
            if let Some(next) = &fused_kernel {
                // Re-stage in place: same offsets, stage-1 output as the
                // next kernel's resident input.
                let mut chained = Vec::with_capacity(i.len());
                chained.extend_from_slice(&i[..hdr_len]);
                chained.extend_from_slice(o);
                next(KernelIo::parse(&chained, o));
            }
        };

        // Attempt loop: each kernel attempt consumes one fault draw.
        // Transient errors retry with backoff up to the configured bound;
        // timeouts and device death abort the task; corrupt output
        // completes normally and is caught by the scatter-time length
        // check; a panicking kernel is contained so one poison batch
        // cannot take the device thread — and with it every offloading
        // worker — down.
        // `Err` carries when the failure becomes visible.
        let fs = Arc::clone(&self.env.fstats);
        let mut corrupted = false;
        let mut at = submit_at;
        let mut retries_left = self.env.fault.max_retries;
        let outcome: Result<TaskTiming, Time> = loop {
            match self.injector.as_mut().and_then(|inj| inj.draw(at)) {
                Some(k @ (FaultKind::Timeout | FaultKind::DeviceDeath)) => {
                    let counter = match k {
                        FaultKind::Timeout => &fs.injected_timeout,
                        _ => &fs.injected_dead,
                    };
                    FaultStats::add(counter, 1);
                    break Err(be.abort(at, staged.input.len()));
                }
                Some(FaultKind::Transient) => FaultStats::add(&fs.injected_transient, 1),
                other => {
                    let run = || be.attempt(at, &staged, lane_ns, &run_kernel, &mut output);
                    match catch_unwind(AssertUnwindSafe(run)) {
                        Ok(t) => {
                            if other == Some(FaultKind::CorruptOutput) {
                                FaultStats::add(&fs.injected_corrupt, 1);
                                corrupted = true;
                                // Wrong-length output block: one byte short.
                                output.pop();
                            }
                            break Ok(t);
                        }
                        Err(_) => {
                            FaultStats::add(&fs.panics_contained, 1);
                            break Err(at);
                        }
                    }
                }
            }
            // Falling out of the match means a transient error: back off
            // and redraw, or — the retry budget spent — fail.
            if retries_left == 0 {
                break Err(at);
            }
            retries_left -= 1;
            FaultStats::add(&fs.retried, 1);
            let retry = TraceEventKind::OffloadRetry;
            let ev = TraceEvent::point(at, first_worker, first_batch, retry, staged.items);
            let span = self.env.spans.as_ref().map_or(0, SpanAlloc::next);
            self.env
                .flight
                .record(ev.at_node(node).spans(span, flush_span));
            at = be.backoff(at, self.env.fault.retry_backoff);
        };
        // Only attempts whose kernel results are actually used count as
        // GPU-processed; fallbacks are counted as CPU work in traversal.
        if outcome.is_ok() && (skip || !corrupted) {
            let passes = 1 + u64::from(fused.is_some());
            let done = staged.items as u64 * passes;
            Counters::add(&self.env.counters.gpu_processed, done);
        }

        // Offload stage decomposition, measured against predicted time per
        // sub-stage. Gather (and later scatter) are CPU work priced by the
        // backend's own clock, so their predictions mirror the measurement
        // and contribute no drift; the device-side stages compare what the
        // backend observed — engine queueing and retry backoff included —
        // against its per-task model. Launch covers submit to final
        // attempt: retry backoff, and for a failed task the wait until the
        // verdict surfaces; the model predicts none of it.
        use OffloadStage::{Compute, CopyIn, CopyOut, EnqueueWait, Gather, Launch};
        let mut stage_ns = [0u64; 7];
        let mut pred_ns = [0u64; 7];
        let mut set = |stage: OffloadStage, measured: u64, predicted: u64| {
            stage_ns[stage.index()] = measured;
            pred_ns[stage.index()] = predicted;
        };
        let launch_ns = outcome.err().unwrap_or(at).saturating_sub(submit_at);
        set(EnqueueWait, enqueue_wait_ns, 0);
        set(Gather, gather_ns, gather_ns);
        set(Launch, launch_ns.as_ns(), 0);
        let edges = outcome.map_or([at; 4], |t| [at, t.h2d_done, t.kernel_done, t.d2h_done]);
        let model = be.predict(&staged, lane_ns);
        let mut device_ns = 0;
        for (k, stage) in [CopyIn, Compute, CopyOut].into_iter().enumerate() {
            let measured = edges[k + 1].saturating_sub(edges[k]).as_ns();
            let predicted = model.map_or(measured, |m| m[k]);
            device_ns += predicted;
            set(stage, measured, predicted);
        }

        // Publish the decision inputs the balancers cite in their next
        // audit records (reads only; un-audited runs make no such calls).
        if self.env.decision_audit {
            let (queued, gpu_busy) = be.gauges(now);
            let items = staged.items.max(1) as f64;
            let ctx = DecisionContext {
                queue_depth: queued + self.backlog() as u64,
                gpu_busy,
                // Serial single-lane kernel time per item: the CPU-side
                // cost proxy the device run amortizes away.
                predicted_cpu_ns_per_pkt: lane_ns / items,
                predicted_gpu_ns_per_pkt: device_ns as f64 / items,
            };
            for b in &self.env.balancers {
                b.lock().set_decision_context(ctx);
            }
        }

        Some(Launched {
            ready_at: outcome.map_or_else(|visible_at| visible_at, |t| t.d2h_done),
            entry: NodeId(node),
            // The batch resumes after the LAST element of a fused chain —
            // and falls back from the FIRST, so the CPU re-runs it all.
            resume: NodeId(fused.as_ref().map_or(node, |(m, _)| *m)),
            workers,
            batches,
            output,
            postproc: self.env.cost.postproc_per_packet * staged.items as u64
                + (self.env.cost.postproc_per_byte * staged.out_len as f64) as u64,
            skipped_kernel: skip,
            failed: outcome.is_err(),
            corrupted,
            stage_ns,
            pred_ns,
            first_worker,
            flush_span,
        })
    }

    /// Finishes a launched task at `now` (not before its `ready_at`):
    /// scatter, one breaker verdict, the stage/drift audit, and one
    /// completion per batch.
    pub fn complete<B: DeviceBackend>(&mut self, now: Time, mut l: Launched, be: &mut B) {
        let (fs, flight) = (&self.env.fstats, &self.env.flight);
        let mut fallback = l.failed;
        if !l.failed {
            // Stage 7 (scatter): the postprocess copy back into the batches.
            let began = be.now();
            let verdict = if l.skipped_kernel {
                Ok(Ok(()))
            } else {
                let spec = &self.specs[&l.resume.0];
                let scatter = || offload::scatter(spec, &mut l.batches, &l.output);
                catch_unwind(AssertUnwindSafe(scatter))
            };
            let scatter_ns = be.charge(l.postproc, began).as_ns();
            l.stage_ns[OffloadStage::Scatter.index()] = scatter_ns;
            l.pred_ns[OffloadStage::Scatter.index()] = scatter_ns;
            match verdict {
                Ok(Ok(())) => {}
                // The scatter length check is the corruption detector: a
                // bad output block leaves every packet untouched and sends
                // the task down the CPU path.
                Ok(Err(e)) => {
                    debug_assert!(l.corrupted, "scatter misaligned with staging: {e}");
                    fallback = true;
                }
                // A panic mid-scatter leaves the packets half-written:
                // neither resuming nor re-running them is sound. They are
                // dropped and counted, their homes write the buffers off,
                // and the workers get the shells back.
                Err(_) => {
                    fallback = true;
                    let lost: u64 = l.batches.iter().map(|b| b.len() as u64).sum();
                    Homes::new(self.env.homes.clone())
                        .write_off(l.batches.iter().flat_map(PacketBatch::packets));
                    FaultStats::add(&fs.panics_contained, 1);
                    FaultStats::add(&fs.dropped_batches, l.batches.len() as u64);
                    FaultStats::add(&fs.dropped_packets, lost);
                    Counters::add(&self.env.counters.dropped, lost);
                    l.batches.iter_mut().for_each(PacketBatch::reset);
                }
            }
        }
        if let Some(st) = &self.env.stages {
            let mut st = st.lock();
            for (stage, &ns) in OffloadStage::ALL.iter().zip(&l.stage_ns) {
                st.record(*stage, ns);
            }
            st.tasks += 1;
        }
        let trigger = Some(l.first_worker as u32);
        // Feed the drift detector (a failed task has no device timeline to
        // compare against the model). The first threshold crossing
        // snapshots the flight recorder, naming the offending stage.
        if let Some(d) = self.env.drift.as_ref().filter(|_| !l.failed) {
            let mut d = d.lock();
            if let Some(stage) = d.observe(&l.stage_ns, &l.pred_ns) {
                let reason = format!("cost_drift_{}", stage.as_str());
                flight.dump(&reason, trigger, l.flush_span, now, fs.snapshot());
            }
            self.env.gauge.publish(&d);
        }
        // One breaker verdict per task, on the device clock. A trip is a
        // containment event: snapshot the flight recorder with the span
        // whose failure tripped the breaker.
        if self.injector.is_some() {
            if fallback {
                if self.breaker.record_failure(now) {
                    FaultStats::add(&fs.quarantine_entered, 1);
                    self.notify_health(false);
                    flight.dump("quarantine", trigger, l.flush_span, now, fs.snapshot());
                }
            } else if self.breaker.record_success(now) {
                FaultStats::add(&fs.quarantine_exited, 1);
                self.notify_health(true);
            }
        }
        let node = if fallback { l.entry } else { l.resume };
        for (worker, batch) in l.workers.into_iter().zip(l.batches) {
            self.deliver(node, worker, batch, fallback, be);
        }
    }

    /// Ends the device's run: its quarantine intervals (an open `None`
    /// end = still quarantined at teardown).
    pub fn finish(self) -> Vec<(Time, Option<Time>)> {
        self.breaker.into_intervals()
    }

    /// Health transitions reach every balancer instance once.
    fn notify_health(&self, healthy: bool) {
        self.env.flight.set_quarantined(!healthy);
        for b in &self.env.balancers {
            b.lock().observe_device_health(healthy);
        }
    }

    /// The one exit of an accepted batch: back to its worker, resuming at
    /// `node`, or — `fallback` — re-running `node`'s CPU path.
    fn deliver<B: DeviceBackend>(
        &self,
        node: NodeId,
        worker: usize,
        batch: PacketBatch,
        fallback: bool,
        be: &mut B,
    ) {
        if fallback {
            FaultStats::add(&self.env.fstats.fell_back_batches, 1);
            FaultStats::add(&self.env.fstats.fell_back_packets, batch.len() as u64);
        }
        be.deliver(CompletedTask {
            node,
            worker,
            batch,
            done_at: be.now(),
            fallback,
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
