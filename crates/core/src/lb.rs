//! CPU/GPU load balancing (§3.4).
//!
//! Load balancers are *elements* "to allow application developers to easily
//! replace the load balancing algorithm as needed": a per-batch element
//! stamps the batch-level [`crate::batch::anno::LB_DEVICE`] annotation with
//! the chosen processor before the batch reaches an offloadable element.
//!
//! The adaptive balancer follows the paper: it observes the system
//! throughput (packets transmitted per unit time via the system inspector),
//! smooths it with a moving average, and every update interval moves the
//! offloading fraction `w` by `δ` in the direction that last increased
//! throughput — waiting longer between moves at high `w` where offloading
//! jitter persists longer, and never standing still (the built-in
//! perturbation that lets it re-converge when the workload shifts).

use nba_sim::Time;

use crate::audit::{DecisionClock, DecisionContext, DecisionKind, DecisionLog, DecisionRecord};
use crate::batch::{anno, PacketBatch};
use crate::element::{ElemCtx, Element, ElementKind};

/// A processor-selection policy.
pub trait LoadBalancer: Send {
    /// Chooses the processor of the next batch: `0` = CPU, `k > 0` =
    /// accelerator `k - 1`.
    fn decide(&mut self) -> u64;

    /// Feeds an observation of total transmitted packets at `now`.
    /// Implementations rate-limit internally.
    fn tick(&mut self, now: Time, total_tx_packets: u64);

    /// Feeds the latest system latency estimate (EWMA, nanoseconds).
    /// Most balancers ignore it; [`LatencyBounded`] acts on it.
    fn observe_latency(&mut self, _ewma_ns: u64) {}

    /// Tells the balancer the device's circuit breaker tripped (`false`)
    /// or re-admitted the device (`true`). Adaptive balancers drive `w`
    /// toward 0 while the device is quarantined instead of hill-climbing
    /// against a processor that cannot do work; fixed policies ignore it
    /// (the device thread falls their batches back regardless).
    fn observe_device_health(&mut self, _healthy: bool) {}

    /// Tells the balancer its shard just inherited `gained_buckets` RSS
    /// buckets from a dead peer (worker-plane re-steer). The offered load
    /// regime changed discontinuously, so adaptive balancers discard their
    /// observation window instead of comparing across the step; fixed
    /// policies ignore it.
    fn on_resteer(&mut self, _gained_buckets: usize) {}

    /// Enables the bounded decision audit log, keeping the first
    /// `capacity` records. Call **before** the first tick so the log's
    /// recorded `initial_w` anchors the replayed trajectory; stateless
    /// balancers ignore it.
    fn enable_audit(&mut self, _capacity: usize) {}

    /// Publishes device-side gauges (queue depth, busy fraction, predicted
    /// per-packet costs) that explain subsequent records. Observational
    /// only: no balancer branches on these values.
    fn set_decision_context(&mut self, _ctx: DecisionContext) {}

    /// Replaces the time-based update interval with a logical packet-count
    /// clock so the decision stream becomes a pure function of the packet
    /// set (cross-runtime determinism). Adaptive balancers only.
    fn set_decision_clock(&mut self, _clock: DecisionClock) {}

    /// Fires any decision-clock milestones still pending at `final_tx`
    /// transmitted packets. Runtimes call this once at teardown: the
    /// per-batch tick reads the tx counter *before* the batch transmits,
    /// so without a flush the trailing milestones — and how many a run
    /// records — would depend on tick cadence rather than the packet set.
    /// No-op for time-based balancers (an extra wall-clock update would
    /// perturb the hill climb).
    fn flush_decision_clock(&mut self, _final_tx: u64) {}

    /// The decision log recorded so far, when auditing is enabled.
    fn audit_log(&self) -> Option<&DecisionLog> {
        None
    }

    /// Takes ownership of the decision log (report assembly).
    fn take_audit_log(&mut self) -> Option<DecisionLog> {
        None
    }

    /// Current offloading fraction in `[0, 1]` (for reporting).
    fn offload_fraction(&self) -> f64;

    /// Balancer name (for reports).
    fn name(&self) -> &'static str;

    /// One-line JSON self-description served by the live stats endpoint
    /// (`/status`). The default covers every balancer: name plus the
    /// current `w`; adaptive implementations may override to expose
    /// internal state (step direction, probe phase, ...).
    fn status_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"w\":{}}}",
            crate::telemetry::json_escape(self.name()),
            crate::telemetry::json_f64(self.offload_fraction()),
        )
    }
}

/// Processes everything on the CPU.
#[derive(Debug, Default)]
pub struct CpuOnly;

impl LoadBalancer for CpuOnly {
    fn decide(&mut self) -> u64 {
        0
    }
    fn tick(&mut self, _now: Time, _tx: u64) {}
    fn offload_fraction(&self) -> f64 {
        0.0
    }
    fn name(&self) -> &'static str {
        "cpu-only"
    }
}

/// Offloads every batch to the accelerator.
#[derive(Debug, Default)]
pub struct GpuOnly;

impl LoadBalancer for GpuOnly {
    fn decide(&mut self) -> u64 {
        1
    }
    fn tick(&mut self, _now: Time, _tx: u64) {}
    fn offload_fraction(&self) -> f64 {
        1.0
    }
    fn name(&self) -> &'static str {
        "gpu-only"
    }
}

/// Offloads a fixed fraction of batches, spread evenly by error diffusion
/// (used for the Figure 2 offloading-fraction sweep and manual tuning).
#[derive(Debug)]
pub struct FixedFraction {
    w: f64,
    /// Error-diffusion accumulator in parts per million (exact arithmetic).
    acc_ppm: u64,
    w_ppm: u64,
}

impl FixedFraction {
    /// Creates a balancer offloading fraction `w` of batches.
    ///
    /// # Panics
    ///
    /// Panics if `w` is outside `[0, 1]`.
    pub fn new(w: f64) -> FixedFraction {
        assert!((0.0..=1.0).contains(&w), "fraction out of range: {w}");
        FixedFraction {
            w,
            acc_ppm: 0,
            w_ppm: (w * 1e6).round() as u64,
        }
    }
}

impl LoadBalancer for FixedFraction {
    fn decide(&mut self) -> u64 {
        self.acc_ppm += self.w_ppm;
        if self.acc_ppm >= 1_000_000 {
            self.acc_ppm -= 1_000_000;
            1
        } else {
            0
        }
    }
    fn tick(&mut self, _now: Time, _tx: u64) {}
    fn offload_fraction(&self) -> f64 {
        self.w
    }
    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// Tuning knobs of the adaptive balancer. Paper values are the defaults;
/// scaled-down variants keep the same proportions for shorter simulations.
#[derive(Debug, Clone)]
pub struct AlbConfig {
    /// Step size δ applied to `w` each move (paper: 4 %).
    pub delta: f64,
    /// Observation/update interval (paper: 0.2 s).
    pub update_interval: Time,
    /// Moving-average window in update intervals.
    pub avg_window: u32,
    /// Updates to wait after a move at `w = 0` (paper: 2).
    pub min_wait: u32,
    /// Updates to wait after a move at `w = 1` (paper: 32).
    pub max_wait: u32,
    /// Initial offloading fraction.
    pub initial_w: f64,
}

impl Default for AlbConfig {
    fn default() -> Self {
        AlbConfig {
            delta: 0.04,
            update_interval: Time::from_ms(200),
            avg_window: 4,
            min_wait: 2,
            max_wait: 32,
            initial_w: 0.5,
        }
    }
}

impl AlbConfig {
    /// A proportionally scaled configuration for short simulations: all
    /// time constants shrink by `factor`, the algorithm is unchanged.
    pub fn scaled_down(factor: u64) -> AlbConfig {
        let base = AlbConfig::default();
        AlbConfig {
            update_interval: base.update_interval / factor,
            ..base
        }
    }
}

/// The adaptive load balancer (§3.4).
#[derive(Debug)]
pub struct Adaptive {
    cfg: AlbConfig,
    w: f64,
    dir: f64,
    acc: f64,
    last_obs_time: Time,
    last_tx: u64,
    window: Vec<f64>,
    last_avg: Option<f64>,
    wait_remaining: u32,
    /// Breaker-fed device health; while `false` the balancer walks `w`
    /// toward 0 and sends only sparse probe batches device-ward.
    device_healthy: bool,
    /// Decisions since the last quarantine probe.
    probe_tick: u32,
    /// Latest latency EWMA fed via [`LoadBalancer::observe_latency`]
    /// (recorded in audit records; the plain adaptive walk ignores it).
    latest_latency_ns: u64,
    /// Device-side explanation gauges for the audit records.
    ctx: DecisionContext,
    /// Logical decision clock replacing the time interval when set.
    clock: Option<DecisionClock>,
    /// Bounded decision audit log (None until enabled).
    audit: Option<DecisionLog>,
    /// Trace of (time, w) after each move, for the convergence plots.
    pub trace: Vec<(Time, f64)>,
}

/// While quarantined, one decision in this many still picks the device —
/// the traffic that lets the breaker's half-open probe actually run (with
/// `w` at 0 no batch would ever reach the device and a revived device
/// could never be re-admitted). The breaker blocks these until the
/// quarantine interval elapses, so they cost one cheap CPU fallback each.
const QUARANTINE_PROBE_EVERY: u32 = 64;

impl Adaptive {
    /// Creates an adaptive balancer.
    pub fn new(cfg: AlbConfig) -> Adaptive {
        let w = cfg.initial_w.clamp(0.0, 1.0);
        Adaptive {
            cfg,
            w,
            dir: 1.0,
            acc: 0.0,
            last_obs_time: Time::ZERO,
            last_tx: 0,
            window: Vec::new(),
            last_avg: None,
            wait_remaining: 0,
            device_healthy: true,
            probe_tick: 0,
            latest_latency_ns: 0,
            ctx: DecisionContext::default(),
            clock: None,
            audit: None,
            trace: Vec::new(),
        }
    }

    /// Appends one audit record for a state transition that just happened
    /// (`w`/`dir` already hold their post-transition values).
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        t: Time,
        kind: DecisionKind,
        total_tx: u64,
        thr: f64,
        avg: f64,
        last_avg: f64,
        w_before: f64,
    ) {
        let latency = self.latest_latency_ns;
        let healthy = self.device_healthy;
        let ctx = self.ctx;
        let dir = self.dir;
        let w_after = self.w;
        let Some(log) = self.audit.as_mut() else {
            return;
        };
        let rec = DecisionRecord {
            seq: log.next_seq(),
            t,
            kind,
            total_tx,
            latency_ewma_ns: latency,
            healthy,
            queue_depth: ctx.queue_depth,
            gpu_busy: ctx.gpu_busy,
            predicted_cpu_ns_per_pkt: ctx.predicted_cpu_ns_per_pkt,
            predicted_gpu_ns_per_pkt: ctx.predicted_gpu_ns_per_pkt,
            thr_pps: thr,
            avg_pps: avg,
            last_avg_pps: last_avg,
            dir,
            w_before,
            w_after,
        };
        log.push(rec);
    }

    /// The un-clocked update step: every state mutation emits exactly one
    /// audit record, which is what makes the log replayable — feeding the
    /// recorded `(t, total_tx, latency, health)` stream back through a
    /// fresh balancer traverses the same branches bit-for-bit.
    fn tick_inner(&mut self, now: Time, total_tx_packets: u64) {
        if !self.device_healthy {
            // No hill-climbing against a dead device: walk `w` down one
            // δ per update interval so the trace records the fail-over.
            if now.saturating_sub(self.last_obs_time) >= self.cfg.update_interval {
                self.last_obs_time = now;
                self.last_tx = total_tx_packets;
                let w_before = self.w;
                if self.w > 0.0 {
                    self.w = (self.w - self.cfg.delta).max(0.0);
                    self.trace.push((now, self.w));
                }
                // Recorded even when `w` is already 0: the tick still moved
                // the observation anchor, and replay must reproduce that.
                self.record(
                    now,
                    DecisionKind::QuarantineStep,
                    total_tx_packets,
                    0.0,
                    0.0,
                    0.0,
                    w_before,
                );
            }
            return;
        }
        if self.last_obs_time == Time::ZERO {
            self.last_obs_time = now;
            self.last_tx = total_tx_packets;
            self.record(
                now,
                DecisionKind::Init,
                total_tx_packets,
                0.0,
                0.0,
                0.0,
                self.w,
            );
            return;
        }
        let elapsed = now.saturating_sub(self.last_obs_time);
        if elapsed < self.cfg.update_interval {
            return;
        }
        // Throughput in packets per second over the last interval.
        let tx = total_tx_packets.saturating_sub(self.last_tx);
        let thr = tx as f64 / elapsed.as_secs_f64();
        self.last_obs_time = now;
        self.last_tx = total_tx_packets;

        self.window.push(thr);
        if (self.window.len() as u32) < self.cfg.avg_window {
            self.record(
                now,
                DecisionKind::Observe,
                total_tx_packets,
                thr,
                0.0,
                0.0,
                self.w,
            );
            return;
        }
        let avg = self.window.iter().sum::<f64>() / self.window.len() as f64;
        self.window.clear();

        if self.wait_remaining > 0 {
            self.wait_remaining -= 1;
            let last = self.last_avg.unwrap_or(0.0);
            self.record(
                now,
                DecisionKind::Hold,
                total_tx_packets,
                thr,
                avg,
                last,
                self.w,
            );
            return;
        }

        // Move towards higher throughput; always move (perturbation).
        let prev_avg = self.last_avg.unwrap_or(0.0);
        if let Some(last) = self.last_avg {
            if avg < last {
                self.dir = -self.dir;
            }
        }
        self.last_avg = Some(avg);
        let w_before = self.w;
        self.w = (self.w + self.dir * self.cfg.delta).clamp(0.0, 1.0);
        if self.w == 0.0 {
            self.dir = 1.0;
        } else if self.w == 1.0 {
            self.dir = -1.0;
        }
        self.wait_remaining = self.wait_for(self.w);
        self.trace.push((now, self.w));
        self.record(
            now,
            DecisionKind::Move,
            total_tx_packets,
            thr,
            avg,
            prev_avg,
            w_before,
        );
    }

    fn wait_for(&self, w: f64) -> u32 {
        // "Gradually increase the waiting interval from 2 to 32 update
        // intervals when we increase w from 0 to 100%."
        let span = self.cfg.max_wait.saturating_sub(self.cfg.min_wait) as f64;
        self.cfg.min_wait + (span * w).round() as u32
    }
}

impl LoadBalancer for Adaptive {
    fn decide(&mut self) -> u64 {
        if !self.device_healthy {
            // Quarantine: keep the device path nearly dry, but emit a
            // sparse probe so the breaker's half-open check sees traffic.
            self.probe_tick += 1;
            if self.probe_tick >= QUARANTINE_PROBE_EVERY {
                self.probe_tick = 0;
                return 1;
            }
            return 0;
        }
        self.acc += self.w;
        if self.acc >= 1.0 {
            self.acc -= 1.0;
            1
        } else {
            0
        }
    }

    fn tick(&mut self, now: Time, total_tx_packets: u64) {
        match self.clock {
            None => self.tick_inner(now, total_tx_packets),
            Some(clock) => {
                // Logical clock: updates fire at packet-count milestones
                // with fully quantized (t, tx) inputs, so the record
                // stream is a pure function of the transmitted packet set
                // regardless of runtime timing or tick cadence.
                let milestone = (total_tx_packets / clock.pkts_per_update).min(clock.max_updates);
                while self.clock.map_or(0, |c| c.fired) < milestone {
                    let fired = {
                        let c = self.clock.as_mut().expect("clock set");
                        c.fired += 1;
                        c.fired
                    };
                    let t = Time::from_ps(self.cfg.update_interval.as_ps() * fired);
                    self.tick_inner(t, fired * clock.pkts_per_update);
                }
            }
        }
    }

    fn observe_latency(&mut self, ewma_ns: u64) {
        // Clock mode: runtime-published latency differs across runtimes —
        // keep it out of the deterministic record stream.
        if self.clock.is_none() {
            self.latest_latency_ns = ewma_ns;
        }
    }

    fn flush_decision_clock(&mut self, final_tx: u64) {
        if self.clock.is_some() {
            // The milestone loop in `tick` is already a catch-up loop; the
            // time argument is ignored in clock mode (quantized per fire).
            self.tick(Time::ZERO, final_tx);
        }
    }

    fn enable_audit(&mut self, capacity: usize) {
        let mut log = DecisionLog::new("adaptive", self.cfg.clone(), self.w, capacity);
        log.clock = self.clock.map(|c| (c.pkts_per_update, c.max_updates));
        self.audit = Some(log);
    }

    fn set_decision_context(&mut self, ctx: DecisionContext) {
        if self.clock.is_none() {
            self.ctx = ctx;
        }
    }

    fn set_decision_clock(&mut self, clock: DecisionClock) {
        self.clock = Some(clock);
        if let Some(log) = self.audit.as_mut() {
            log.clock = Some((clock.pkts_per_update, clock.max_updates));
        }
        // Quantized mode: zero any runtime-published gauges already fed.
        self.latest_latency_ns = 0;
        self.ctx = DecisionContext::default();
    }

    fn audit_log(&self) -> Option<&DecisionLog> {
        self.audit.as_ref()
    }

    fn take_audit_log(&mut self) -> Option<DecisionLog> {
        self.audit.take()
    }

    fn observe_device_health(&mut self, healthy: bool) {
        if self.device_healthy == healthy {
            return;
        }
        self.device_healthy = healthy;
        self.probe_tick = 0;
        if healthy {
            // Re-admitted: restart the hill-climb upward from wherever the
            // quarantine walk left `w`, with a clean observation window —
            // the throughput seen while degraded would poison the average.
            self.window.clear();
            self.last_avg = None;
            self.wait_remaining = 0;
            self.dir = 1.0;
        }
        let kind = if healthy {
            DecisionKind::HealthUp
        } else {
            DecisionKind::HealthDown
        };
        self.record(
            self.last_obs_time,
            kind,
            self.last_tx,
            0.0,
            0.0,
            0.0,
            self.w,
        );
    }

    fn on_resteer(&mut self, _gained_buckets: usize) {
        // Inherited buckets shift the throughput regime discontinuously;
        // comparing a pre-re-steer average against post-re-steer samples
        // would read as a phantom improvement (or regression) and steer
        // the hill-climb off a cliff. Start a fresh observation window.
        self.window.clear();
        self.last_avg = None;
        self.wait_remaining = 0;
    }

    fn offload_fraction(&self) -> f64 {
        self.w
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }
}

/// A throughput-maximizing balancer under a latency ceiling — the paper's
/// §7 future work ("throughput maximization with a bounded latency").
///
/// While the observed latency EWMA stays under the bound, the inner
/// adaptive balancer hill-climbs throughput as usual. When the bound is
/// violated, `w` is stepped towards the CPU (the low-latency processor,
/// §6) until the system is back under it.
pub struct LatencyBounded {
    inner: Adaptive,
    bound_ns: u64,
    latest_ns: u64,
    /// Times the bound forced a step down (reporting/diagnostics).
    pub violations: u64,
}

impl LatencyBounded {
    /// Wraps an adaptive balancer with a latency ceiling.
    pub fn new(inner: Adaptive, bound: Time) -> LatencyBounded {
        LatencyBounded {
            inner,
            bound_ns: bound.as_ns(),
            latest_ns: 0,
            violations: 0,
        }
    }
}

impl LoadBalancer for LatencyBounded {
    fn decide(&mut self) -> u64 {
        self.inner.decide()
    }

    fn tick(&mut self, now: Time, total_tx_packets: u64) {
        if self.latest_ns > self.bound_ns {
            // Over budget: step towards the CPU instead of hill-climbing,
            // and bias the inner walker downwards so it does not bounce
            // straight back.
            let step_due =
                now.saturating_sub(self.inner.last_obs_time) >= self.inner.cfg.update_interval;
            if step_due && self.inner.w > 0.0 {
                let w_before = self.inner.w;
                self.inner.w = (self.inner.w - self.inner.cfg.delta).max(0.0);
                self.inner.dir = -1.0;
                self.inner.last_obs_time = now;
                self.inner.last_tx = total_tx_packets;
                self.violations += 1;
                self.inner.trace.push((now, self.inner.w));
                self.inner.record(
                    now,
                    DecisionKind::ViolationStep,
                    total_tx_packets,
                    0.0,
                    0.0,
                    0.0,
                    w_before,
                );
            }
            return;
        }
        self.inner.tick(now, total_tx_packets);
    }

    fn observe_latency(&mut self, ewma_ns: u64) {
        if self.inner.clock.is_some() {
            // Clock mode: the deterministic stream never takes the
            // violation path, and the inner walker must not record
            // runtime-dependent latency.
            return;
        }
        self.latest_ns = ewma_ns;
        // Mirror into the inner walker so records emitted on the
        // hill-climb path carry the same latency the bound was checked
        // against — replay needs the two views to agree.
        self.inner.latest_latency_ns = ewma_ns;
    }

    fn enable_audit(&mut self, capacity: usize) {
        self.inner.enable_audit(capacity);
        if let Some(log) = self.inner.audit.as_mut() {
            log.balancer = "latency-bounded".to_owned();
            log.bound_ns = Some(self.bound_ns);
        }
    }

    fn set_decision_context(&mut self, ctx: DecisionContext) {
        self.inner.set_decision_context(ctx);
    }

    fn set_decision_clock(&mut self, clock: DecisionClock) {
        self.inner.set_decision_clock(clock);
        self.latest_ns = 0;
    }

    fn flush_decision_clock(&mut self, final_tx: u64) {
        self.inner.flush_decision_clock(final_tx);
    }

    fn audit_log(&self) -> Option<&DecisionLog> {
        self.inner.audit.as_ref()
    }

    fn take_audit_log(&mut self) -> Option<DecisionLog> {
        self.inner.audit.take()
    }

    fn on_resteer(&mut self, gained_buckets: usize) {
        self.inner.on_resteer(gained_buckets);
    }

    fn observe_device_health(&mut self, healthy: bool) {
        self.inner.observe_device_health(healthy);
    }

    fn offload_fraction(&self) -> f64 {
        self.inner.offload_fraction()
    }

    fn name(&self) -> &'static str {
        "latency-bounded"
    }
}

impl std::fmt::Debug for LatencyBounded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyBounded")
            .field("bound_ns", &self.bound_ns)
            .field("w", &self.inner.w)
            .field("violations", &self.violations)
            .finish()
    }
}

/// A balancer shared by every worker's pipeline replica: the paper's ALB
/// coordinates one global `w` ("wait for all worker threads to apply the
/// updated fraction values before next observation").
pub type SharedBalancer = std::sync::Arc<parking_lot::Mutex<Box<dyn LoadBalancer>>>;

/// Wraps a balancer into a [`SharedBalancer`].
pub fn shared(lb: Box<dyn LoadBalancer>) -> SharedBalancer {
    std::sync::Arc::new(parking_lot::Mutex::new(lb))
}

/// The distinct balancer instances behind per-worker handles, in first-
/// occurrence order: handles may all be clones of one shared instance
/// (global `w`) or one per worker, and run-wide notifications must reach
/// each instance exactly once.
pub fn distinct(handles: &[SharedBalancer]) -> Vec<SharedBalancer> {
    let mut out: Vec<SharedBalancer> = Vec::new();
    for b in handles {
        if !out.iter().any(|seen| std::sync::Arc::ptr_eq(seen, b)) {
            out.push(b.clone());
        }
    }
    out
}

/// Builds one balancer per worker, for runtimes that keep `w` per worker
/// instead of globally.
///
/// The sharded live runtime gives every RSS worker its own balancer
/// instance (its own `w`, its own observation window), matching NBA's
/// per-worker-thread ALB state; the factory receives the worker index so a
/// policy may differentiate if it wants to.
pub type BalancerFactory = std::sync::Arc<dyn Fn(usize) -> Box<dyn LoadBalancer> + Send + Sync>;

/// A factory cloning the same policy for every worker.
pub fn replicated<F>(make: F) -> BalancerFactory
where
    F: Fn() -> Box<dyn LoadBalancer> + Send + Sync + 'static,
{
    std::sync::Arc::new(move |_worker| make())
}

/// The per-batch element that stamps the load-balancing decision.
pub struct LoadBalanceElement {
    lb: SharedBalancer,
}

impl LoadBalanceElement {
    /// Wraps a (shared) balancing policy into an element.
    pub fn new(lb: SharedBalancer) -> LoadBalanceElement {
        LoadBalanceElement { lb }
    }

    /// The shared balancer handle (reports, tests).
    pub fn balancer(&self) -> SharedBalancer {
        self.lb.clone()
    }
}

impl Element for LoadBalanceElement {
    fn class_name(&self) -> &'static str {
        "LoadBalance"
    }

    // The device decision slot is deliberately element-writable: stamping
    // it is this element's whole job.
    fn slot_claims(&self) -> &'static [crate::element::SlotClaim] {
        const CLAIMS: &[crate::element::SlotClaim] =
            &[crate::element::SlotClaim::batch_writes(anno::LB_DEVICE)];
        CLAIMS
    }

    fn kind(&self) -> ElementKind {
        ElementKind::PerBatch
    }

    fn process_batch(&mut self, ctx: &mut ElemCtx<'_>, batch: &mut PacketBatch) {
        let mut lb = self.lb.lock();
        lb.observe_latency(ctx.inspector.worst_latency_ewma_ns());
        lb.tick(ctx.now, ctx.inspector.total_tx_packets());
        batch.banno_mut().set(anno::LB_DEVICE, lb.decide());
    }

    fn cpu_profile(&self) -> nba_sim::CpuProfile {
        // The lb_decide cost from the model: one coarse decision per batch.
        nba_sim::CpuProfile::fixed(30)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_fraction_diffuses_exactly() {
        let mut lb = FixedFraction::new(0.3);
        let gpu = (0..1000).filter(|_| lb.decide() == 1).count();
        assert_eq!(gpu, 300);
        let mut lb = FixedFraction::new(0.0);
        assert!((0..100).all(|_| lb.decide() == 0));
        let mut lb = FixedFraction::new(1.0);
        assert!((0..100).all(|_| lb.decide() == 1));
    }

    #[test]
    #[should_panic(expected = "fraction out of range")]
    fn fixed_fraction_validates() {
        let _ = FixedFraction::new(1.5);
    }

    /// Drives the ALB against a synthetic concave throughput curve with its
    /// maximum at `opt` and checks convergence into a neighbourhood.
    fn converge(opt: f64, start: f64) -> f64 {
        let cfg = AlbConfig {
            update_interval: Time::from_ms(10),
            avg_window: 2,
            min_wait: 0,
            max_wait: 2,
            initial_w: start,
            ..AlbConfig::default()
        };
        let mut alb = Adaptive::new(cfg);
        let mut now = Time::ZERO;
        let mut tx_total = 0u64;
        for _ in 0..3000 {
            now += Time::from_ms(10);
            // Throughput model: peak 10 Mpps at w = opt, quadratic falloff.
            let w = alb.offload_fraction();
            let thr = 10e6 * (1.0 - (w - opt) * (w - opt));
            tx_total += (thr * 0.010) as u64;
            alb.tick(now, tx_total);
        }
        alb.offload_fraction()
    }

    #[test]
    fn alb_converges_to_interior_optimum() {
        let w = converge(0.8, 0.2);
        assert!((w - 0.8).abs() <= 0.1, "converged to {w}");
    }

    #[test]
    fn alb_converges_to_cpu_heavy_optimum() {
        let w = converge(0.1, 0.9);
        assert!((w - 0.1).abs() <= 0.1, "converged to {w}");
    }

    #[test]
    fn alb_tracks_a_moving_optimum() {
        let cfg = AlbConfig {
            update_interval: Time::from_ms(10),
            avg_window: 2,
            min_wait: 0,
            max_wait: 2,
            initial_w: 0.5,
            ..AlbConfig::default()
        };
        let mut alb = Adaptive::new(cfg);
        let mut now = Time::ZERO;
        let mut tx_total = 0u64;
        let run = |alb: &mut Adaptive, opt: f64, now: &mut Time, tx: &mut u64| {
            for _ in 0..2000 {
                *now += Time::from_ms(10);
                let w = alb.offload_fraction();
                let thr = 10e6 * (1.0 - (w - opt) * (w - opt));
                *tx += (thr * 0.010) as u64;
                alb.tick(*now, *tx);
            }
        };
        run(&mut alb, 0.8, &mut now, &mut tx_total);
        let w1 = alb.offload_fraction();
        assert!((w1 - 0.8).abs() <= 0.12, "first optimum: {w1}");
        // Workload change: optimum moves to 0.3; perturbation re-converges.
        run(&mut alb, 0.3, &mut now, &mut tx_total);
        let w2 = alb.offload_fraction();
        assert!((w2 - 0.3).abs() <= 0.12, "second optimum: {w2}");
    }

    #[test]
    fn alb_never_leaves_bounds() {
        let mut alb = Adaptive::new(AlbConfig {
            update_interval: Time::from_ms(1),
            avg_window: 1,
            min_wait: 0,
            max_wait: 0,
            initial_w: 0.0,
            ..AlbConfig::default()
        });
        let mut now = Time::ZERO;
        for i in 0..10_000u64 {
            now += Time::from_ms(1);
            alb.tick(now, i * 1000);
            let w = alb.offload_fraction();
            assert!((0.0..=1.0).contains(&w));
        }
    }

    #[test]
    fn latency_bounded_steps_down_under_violation() {
        let cfg = AlbConfig {
            update_interval: Time::from_ms(1),
            avg_window: 1,
            min_wait: 0,
            max_wait: 0,
            initial_w: 0.8,
            ..AlbConfig::default()
        };
        let mut lb = LatencyBounded::new(Adaptive::new(cfg), Time::from_us(200));
        let mut now = Time::ZERO;
        // Latency way over the 200 us bound: w must walk to zero.
        for i in 0..200u64 {
            now += Time::from_ms(1);
            lb.observe_latency(900_000);
            lb.tick(now, i * 1000);
        }
        assert_eq!(lb.offload_fraction(), 0.0);
        assert!(lb.violations > 0);
    }

    #[test]
    fn latency_bounded_hill_climbs_when_under_bound() {
        let cfg = AlbConfig {
            update_interval: Time::from_ms(10),
            avg_window: 2,
            min_wait: 0,
            max_wait: 2,
            initial_w: 0.2,
            ..AlbConfig::default()
        };
        let mut lb = LatencyBounded::new(Adaptive::new(cfg), Time::from_ms(10));
        let mut now = Time::ZERO;
        let mut tx = 0u64;
        for _ in 0..3000 {
            now += Time::from_ms(10);
            let w = lb.offload_fraction();
            let thr = 10e6 * (1.0 - (w - 0.7) * (w - 0.7));
            tx += (thr * 0.010) as u64;
            lb.observe_latency(50_000); // Comfortably under the bound.
            lb.tick(now, tx);
        }
        let w = lb.offload_fraction();
        assert!((w - 0.7).abs() <= 0.12, "converged to {w}");
        assert_eq!(lb.violations, 0);
    }

    #[test]
    fn quarantine_walks_w_to_zero_then_reconverges() {
        let cfg = AlbConfig {
            update_interval: Time::from_ms(10),
            avg_window: 2,
            min_wait: 0,
            max_wait: 2,
            initial_w: 0.7,
            ..AlbConfig::default()
        };
        let mut alb = Adaptive::new(cfg);
        let mut now = Time::ZERO;
        let mut tx = 0u64;
        // Breaker trips: w must walk to zero, with only sparse probes.
        alb.observe_device_health(false);
        let mut probes = 0u64;
        for _ in 0..400 {
            now += Time::from_ms(10);
            tx += 10_000;
            alb.tick(now, tx);
            probes += alb.decide();
        }
        assert_eq!(alb.offload_fraction(), 0.0);
        assert!(probes > 0, "quarantine starves the half-open probe");
        assert!(
            probes <= 400 / u64::from(QUARANTINE_PROBE_EVERY) + 1,
            "quarantine leaks batches to the device: {probes}"
        );
        // Device recovers: the hill-climb resumes and re-converges.
        alb.observe_device_health(true);
        for _ in 0..3000 {
            now += Time::from_ms(10);
            let w = alb.offload_fraction();
            let thr = 10e6 * (1.0 - (w - 0.8) * (w - 0.8));
            tx += (thr * 0.010) as u64;
            alb.tick(now, tx);
        }
        let w = alb.offload_fraction();
        assert!((w - 0.8).abs() <= 0.12, "re-converged to {w}");
    }

    #[test]
    fn wait_grows_with_w() {
        let alb = Adaptive::new(AlbConfig::default());
        assert_eq!(alb.wait_for(0.0), 2);
        assert_eq!(alb.wait_for(1.0), 32);
        assert!(alb.wait_for(0.5) > 2 && alb.wait_for(0.5) < 32);
    }
}
