//! `runtime::device::DeviceCore` driven through a recording `DeviceBackend`
//! — no threads, no engine, no GPU timeline: the device step both runtimes
//! share, its launch policy included, on a clock the test sets by hand.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nba_core::batch::PacketBatch;
use nba_core::element::{ComputeMode, DbInput, DbOutput, KernelIo, OffloadSpec, Postprocess};
use nba_core::fault::{FaultConfig, FaultPlan, FaultStats};
use nba_core::graph::NodeId;
use nba_core::introspect::{FlightConfig, FlightRecorder};
use nba_core::lb::{self, LoadBalancer, SharedBalancer};
use nba_core::offload::{CompletedTask, OffloadTask, StagedTask};
use nba_core::runtime::device::{DeviceBackend, DeviceCore, DeviceEnv, LaunchPolicy};
use nba_core::stats::Counters;
use nba_core::telemetry::{SpanAlloc, TraceEventKind};
use nba_gpu::{KernelFn, TaskTiming};
use nba_io::Packet;
use nba_sim::{CostModel, GpuProfile, Time};

const NODE: usize = 3;

/// Upper-cases every item in place; panics on an item starting with 0xFF
/// (the poison batch).
fn upper_spec(postprocess: Postprocess) -> OffloadSpec {
    OffloadSpec {
        input: DbInput::WholePacket { offset: 0 },
        output: DbOutput::InPlace { extra: 0 },
        gpu: GpuProfile::default(),
        kernel: Arc::new(|io: KernelIo<'_>| {
            for i in 0..io.items {
                assert_ne!(io.item_in(i).first(), Some(&0xFF), "poison item");
                let (up, out) = (io.item_in(i).to_ascii_uppercase(), io.item_out_range(i));
                io.output[out].copy_from_slice(&up);
            }
        }),
        heavy: false,
        postprocess,
    }
}

/// Records what the core asks of its backend; the clock only moves when the
/// test moves it.
#[derive(Default)]
struct Recording {
    clock: Time,
    /// The command queue the step drains.
    queue: VecDeque<OffloadTask>,
    /// How long after its attempt a launch's result lands.
    latency: Time,
    attempts: usize,
    aborts: usize,
    backoffs: Vec<Time>,
    delivered: Vec<CompletedTask>,
}

impl DeviceBackend for Recording {
    fn now(&self) -> Time {
        self.clock
    }
    fn charge(&mut self, cycles: u64, _began: Time) -> Time {
        Time::from_ns(cycles)
    }
    fn predict(&self, _: &StagedTask, _: f64) -> Option<[u64; 3]> {
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
        self.attempts += 1;
        kernel(&staged.input, output, staged.items);
        TaskTiming {
            h2d_done: at,
            kernel_done: at,
            d2h_done: at + self.latency,
        }
    }
    fn abort(&mut self, at: Time, _h2d_bytes: usize) -> Time {
        self.aborts += 1;
        at
    }
    fn backoff(&mut self, at: Time, dur: Time) -> Time {
        self.backoffs.push(dur);
        at + dur
    }
    fn poll(&mut self) -> Option<OffloadTask> {
        self.queue.pop_front()
    }
    fn queued(&self) -> usize {
        self.queue.len()
    }
    fn busy_share(&self, _now: Time) -> f64 {
        0.0
    }
    fn deliver(&mut self, done: CompletedTask) {
        self.delivered.push(done);
    }
}

struct Rig {
    core: DeviceCore,
    be: Recording,
    fstats: Arc<FaultStats>,
    counters: Arc<Counters>,
    flight: Arc<FlightRecorder>,
}

/// Aggregates of 8, a 100 µs deadline, two launches in flight, 64 batches
/// buffered.
const POLICY: LaunchPolicy = LaunchPolicy {
    aggregate: 8,
    timeout: Time::from_us(100),
    max_inflight: 2,
    backlog: 64,
};

fn rig(fault: FaultConfig, spec: OffloadSpec, balancers: Vec<SharedBalancer>) -> Rig {
    policy_rig(POLICY, fault, spec, balancers)
}

fn policy_rig(
    policy: LaunchPolicy,
    fault: FaultConfig,
    spec: OffloadSpec,
    balancers: Vec<SharedBalancer>,
) -> Rig {
    let fstats = Arc::new(FaultStats::default());
    let counters = Arc::new(Counters::default());
    let flight = Arc::new(FlightRecorder::new(8, 64, FlightConfig::default(), None));
    let env = DeviceEnv {
        cost: CostModel::paper_default(),
        compute: ComputeMode::Full,
        fault,
        fstats: fstats.clone(),
        counters: counters.clone(),
        balancers,
        spans: Some(SpanAlloc::new()),
        flight: flight.clone(),
        stages: None,
        drift: None,
        gauge: Arc::default(),
        decision_audit: false,
        homes: Vec::new(),
    };
    Rig {
        core: DeviceCore::new(
            0,
            HashMap::from([(NODE, spec)]),
            HashMap::new(),
            policy,
            env,
        ),
        be: Recording::default(),
        fstats,
        counters,
        flight,
    }
}

fn faults(plan: FaultPlan) -> FaultConfig {
    FaultConfig {
        plan,
        max_retries: 2,
        breaker_threshold: 3,
        quarantine: Time::from_ms(5),
        ..FaultConfig::default()
    }
}

fn task(worker: usize, frames: &[&[u8]]) -> OffloadTask {
    let mut batch = PacketBatch::with_capacity(frames.len());
    for f in frames {
        batch.push(Packet::from_bytes(f));
    }
    OffloadTask {
        node: NodeId(NODE),
        worker,
        batch,
        enqueued_at: Time::ZERO,
    }
}

fn frames(done: &CompletedTask) -> Vec<Vec<u8>> {
    let b = &done.batch;
    b.live_indices()
        .map(|i| b.packet(i).expect("live").data().to_vec())
        .collect()
}

impl Rig {
    /// Pushes one task at the backend's clock and runs it to completion;
    /// returns whether it went in flight.
    fn serve(&mut self, t: OffloadTask) -> bool {
        let now = self.be.clock;
        self.core.push(now, t);
        let launched = self.core.launch(now, NODE, 8, &mut self.be);
        let in_flight = launched.is_some();
        if let Some(l) = launched {
            assert!(l.ready_at >= now);
            self.core.complete(now, l, &mut self.be);
        }
        assert_eq!(self.core.backlog(), 0);
        in_flight
    }
}

#[test]
fn transient_draws_retry_the_budget_then_fall_back_untouched() {
    let plan = FaultPlan {
        transient: 1.0,
        ..FaultPlan::default()
    };
    let mut r = rig(faults(plan), upper_spec(Postprocess::WriteBack), vec![]);
    assert!(r.serve(task(4, &[b"abc", b"de"])));

    assert_eq!(
        r.be.attempts, 0,
        "a transient draw never reaches the kernel"
    );
    assert_eq!(r.be.backoffs, vec![FaultConfig::default().retry_backoff; 2]);
    let [done] = &r.be.delivered[..] else {
        panic!("one batch in, {} completions out", r.be.delivered.len());
    };
    assert!(done.fallback);
    assert_eq!((done.node, done.worker), (NodeId(NODE), 4));
    assert_eq!(frames(done), [b"abc".to_vec(), b"de".to_vec()]);
    let f = r.fstats.snapshot();
    assert_eq!((f.injected_transient, f.retried), (3, 2));
    assert_eq!((f.fell_back_batches, f.fell_back_packets), (1, 2));
    assert_eq!(r.counters.snapshot().gpu_processed, 0);

    let events = r.flight.events();
    let of = |k| events.iter().filter(move |e| e.kind == k);
    let launch = of(TraceEventKind::OffloadLaunch).next().expect("launch");
    assert_eq!(of(TraceEventKind::OffloadRetry).count(), 2);
    assert!(of(TraceEventKind::OffloadRetry).all(|e| e.parent == launch.span && e.worker == 4));
}

#[test]
fn a_one_byte_short_output_is_caught_at_scatter() {
    // Control: the clean path applies the kernel's output.
    let clean = FaultConfig::default();
    let mut r = rig(clean, upper_spec(Postprocess::WriteBack), vec![]);
    assert!(r.serve(task(0, &[b"abc", b"de"])));
    assert!(!r.be.delivered[0].fallback);
    assert_eq!(
        frames(&r.be.delivered[0]),
        [b"ABC".to_vec(), b"DE".to_vec()]
    );
    assert_eq!(r.counters.snapshot().gpu_processed, 2);
    assert!(r.fstats.snapshot().is_clean());

    let plan = FaultPlan {
        corrupt: 1.0,
        ..FaultPlan::default()
    };
    let mut r = rig(faults(plan), upper_spec(Postprocess::WriteBack), vec![]);
    assert!(r.serve(task(0, &[b"abc", b"de"])));
    assert_eq!(
        r.be.attempts, 1,
        "the kernel ran; its block came back short"
    );
    let done = &r.be.delivered[0];
    assert!(done.fallback, "a short block must not be applied");
    assert_eq!(frames(done), [b"abc".to_vec(), b"de".to_vec()]);
    let f = r.fstats.snapshot();
    assert_eq!((f.injected_corrupt, f.fell_back_packets), (1, 2));
    assert_eq!(r.counters.snapshot().gpu_processed, 0, "results unused");
}

/// Counts the health edges a balancer hears.
struct Spy {
    down: Arc<AtomicUsize>,
    up: Arc<AtomicUsize>,
}

impl LoadBalancer for Spy {
    fn decide(&mut self) -> u64 {
        1
    }
    fn tick(&mut self, _: Time, _: u64) {}
    fn observe_device_health(&mut self, healthy: bool) {
        let edge = if healthy { &self.up } else { &self.down };
        edge.fetch_add(1, Ordering::Relaxed);
    }
    fn offload_fraction(&self) -> f64 {
        1.0
    }
    fn name(&self) -> &'static str {
        "spy"
    }
}

#[test]
fn the_breaker_trips_once_blocks_without_drawing_and_readmits_on_a_probe() {
    let (down, up) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let spy = || {
        lb::shared(Box::new(Spy {
            down: down.clone(),
            up: up.clone(),
        }))
    };
    // Three worker handles over two balancer instances.
    let (a, b) = (spy(), spy());
    let handles = [a.clone(), b, a];
    // The device is dead from 1 ms to 2 ms.
    let plan = FaultPlan {
        die_at: Some(Time::from_ms(1)),
        revive_at: Some(Time::from_ms(2)),
        ..FaultPlan::default()
    };
    let spec = upper_spec(Postprocess::WriteBack);
    let mut r = rig(faults(plan), spec, lb::distinct(&handles));

    for k in 0..3 {
        r.be.clock = Time::from_us(1000 + 100 * k);
        assert!(r.serve(task(7, &[b"abc"])), "a dead device still admits");
    }
    let tripped_at = r.be.clock;
    assert_eq!((r.be.attempts, r.be.aborts), (0, 3));
    let f = r.fstats.snapshot();
    assert_eq!((f.injected_dead, f.quarantine_entered), (3, 1));
    assert_eq!(
        down.load(Ordering::Relaxed),
        2,
        "once per distinct balancer"
    );
    let dumps = r.flight.dumps();
    let [dump] = &dumps[..] else {
        panic!("one trip, {} dumps", dumps.len());
    };
    assert_eq!(dump.reason, "quarantine");
    assert_eq!(dump.trigger_worker, Some(7));
    assert_ne!(dump.trigger_span, 0, "the dump names the launch span");
    assert!(dump.quarantined);

    // Quarantined: straight back to the CPU path, no draw, no device work.
    r.be.clock = Time::from_ms(3);
    assert!(
        !r.serve(task(7, &[b"abc"])),
        "a blocked task never launches"
    );
    assert_eq!((r.be.attempts, r.be.aborts), (0, 3));
    let blocked = r.be.delivered.last().expect("the batch still completes");
    assert!(blocked.fallback);
    assert_eq!(frames(blocked), [b"abc".to_vec()]);
    let f = r.fstats.snapshot();
    assert_eq!(f.injected(), 3, "a blocked admission made a draw");
    assert_eq!(f.fell_back_batches, 4);

    // The quarantine has elapsed and the device revived: the probe passes.
    r.be.clock = tripped_at + Time::from_ms(5);
    assert!(r.serve(task(7, &[b"abc"])));
    assert_eq!(r.be.attempts, 1);
    let probe = r.be.delivered.last().expect("probe completion");
    assert!(!probe.fallback);
    assert_eq!(frames(probe), [b"ABC".to_vec()]);
    let f = r.fstats.snapshot();
    assert_eq!((f.quarantine_entered, f.quarantine_exited), (1, 1));
    assert_eq!(up.load(Ordering::Relaxed), 2);
    assert_eq!(r.flight.dumps().len(), 1);
    assert_eq!(r.be.delivered.len(), 5, "one completion per batch");

    let probe_at = r.be.clock;
    let events = r.flight.events();
    let intervals = r.core.finish();
    // One outage, closed by the probe: blocked admissions left no mark.
    assert_eq!(intervals, [(tripped_at, Some(probe_at))]);
    assert!(events
        .iter()
        .any(|e| e.kind == TraceEventKind::OffloadLaunch && e.span == dump.trigger_span));
}

#[test]
fn a_panicking_kernel_is_contained_and_every_batch_completes() {
    let clean = FaultConfig::default();
    let mut r = rig(clean, upper_spec(Postprocess::WriteBack), vec![]);
    // One aggregate of two workers' batches; the second carries the poison.
    r.core.push(Time::ZERO, task(0, &[b"abc"]));
    assert!(r.serve(task(1, &[&[0xFF, b'x'], b"de"])));
    assert_eq!(r.be.delivered.len(), 2, "a contained panic lost a batch");
    assert!(r.be.delivered.iter().all(|d| d.fallback));
    assert_eq!(frames(&r.be.delivered[0]), [b"abc".to_vec()]);
    assert_eq!(
        frames(&r.be.delivered[1]),
        [vec![0xFF, b'x'], b"de".to_vec()]
    );
    let f = r.fstats.snapshot();
    assert_eq!((f.panics_contained, f.dropped_packets), (1, 0));
    assert_eq!((f.fell_back_batches, f.fell_back_packets), (2, 3));

    // The device thread survived: the next task is served.
    assert!(r.serve(task(0, &[b"xyz"])));
    let next = r.be.delivered.last().expect("served");
    assert!(!next.fallback);
    assert_eq!(frames(next), [b"XYZ".to_vec()]);
}

#[test]
fn a_panic_mid_scatter_returns_the_shells_and_counts_the_packets() {
    // An annotation slot past the end makes the write-back itself panic.
    let clean = FaultConfig::default();
    let mut r = rig(
        clean,
        upper_spec(Postprocess::Annotation(usize::MAX)),
        vec![],
    );
    r.core.push(Time::ZERO, task(0, &[b"abc"]));
    assert!(r.serve(task(1, &[b"de", b"f"])));
    assert_eq!(r.be.delivered.len(), 2, "every batch still completes");
    for d in &r.be.delivered {
        assert!(
            d.fallback && d.batch.is_empty(),
            "half-written packets leaked"
        );
    }
    let f = r.fstats.snapshot();
    assert_eq!((f.panics_contained, f.dropped_batches), (1, 2));
    assert_eq!(f.dropped_packets, 3);
    assert_eq!(r.counters.snapshot().dropped, 3, "rx = tx + dropped holds");
}

// ── The launch policy, driven through `DeviceCore::step` ───────────────

/// A clean rig under `policy` whose launches land `latency` after their
/// attempt, with `queued` one-packet tasks waiting in the command queue.
fn stepper(policy: LaunchPolicy, latency: Time, queued: usize) -> Rig {
    let spec = upper_spec(Postprocess::WriteBack);
    let mut r = policy_rig(policy, FaultConfig::default(), spec, vec![]);
    r.be.latency = latency;
    r.be.queue.extend((0..queued).map(|w| task(w, &[b"abc"])));
    r
}

impl Rig {
    /// Steps the core at `at` (the backend's clock moves there too).
    fn step_at(&mut self, at: Time) -> Option<Time> {
        self.be.clock = at;
        self.core.step(at, &mut self.be)
    }
}

#[test]
fn a_full_aggregate_launches_at_once() {
    let mut r = stepper(POLICY, Time::from_us(10), 8);
    assert_eq!(r.step_at(Time::ZERO), Some(Time::from_us(10)));
    assert_eq!(r.be.attempts, 1, "a full aggregate waited");
    assert_eq!(r.core.backlog(), 0);
    assert!(
        r.be.delivered.is_empty(),
        "completed before its result landed"
    );

    // The result lands: every batch comes back processed, and with nothing
    // left the step has no next time.
    assert_eq!(r.step_at(Time::from_us(10)), None);
    assert_eq!(r.be.delivered.len(), 8);
    assert!(r.be.delivered.iter().all(|d| !d.fallback));
    assert_eq!(frames(&r.be.delivered[0]), [b"ABC".to_vec()]);
}

#[test]
fn a_partial_aggregate_waits_for_its_deadline_then_launches() {
    let mut r = stepper(POLICY, Time::ZERO, 3);
    r.step_at(Time::ZERO);
    assert_eq!((r.be.attempts, r.core.backlog()), (0, 3));
    r.step_at(Time::from_us(99));
    assert_eq!(r.be.attempts, 0, "a partial launched before its deadline");

    r.step_at(Time::from_us(100));
    assert_eq!((r.be.attempts, r.core.backlog()), (1, 0));
    r.step_at(Time::from_us(100));
    assert_eq!(r.be.delivered.len(), 3, "one task carried all three");
}

#[test]
fn the_inflight_cap_defers_a_due_launch_until_a_completion() {
    let policy = LaunchPolicy {
        aggregate: 2,
        max_inflight: 1,
        ..POLICY
    };
    let mut r = stepper(policy, Time::from_us(10), 4);
    r.step_at(Time::ZERO);
    assert_eq!(r.be.attempts, 1);
    assert_eq!(r.core.backlog(), 2, "the second full aggregate is held");
    r.step_at(Time::from_us(5));
    assert_eq!(r.be.attempts, 1, "launched past the in-flight cap");

    // The completion frees the slot: the held aggregate launches in the
    // same step.
    r.step_at(Time::from_us(10));
    assert_eq!((r.be.attempts, r.be.delivered.len()), (2, 2));
    assert_eq!(r.core.backlog(), 0);
}

#[test]
fn the_backlog_cap_leaves_tasks_queued() {
    let policy = LaunchPolicy {
        aggregate: 3,
        max_inflight: 1,
        backlog: 3,
        ..POLICY
    };
    let mut r = stepper(policy, Time::from_us(10), 5);
    r.step_at(Time::ZERO);
    assert_eq!(r.be.attempts, 1, "the drained aggregate is full");
    assert_eq!(r.be.queue.len(), 2, "drained past the backlog cap");

    // Drained only after the launch made room: two batches, a partial.
    r.step_at(Time::from_us(10));
    assert_eq!((r.be.queue.len(), r.core.backlog()), (0, 2));
    assert_eq!(r.be.attempts, 1);
}

#[test]
fn the_step_returns_the_earliest_ready_time_or_deadline() {
    let idle = &mut stepper(POLICY, Time::ZERO, 0);
    assert_eq!(idle.step_at(Time::ZERO), None, "no work, no next time");

    // Two launches at the in-flight cap: the earlier result is next.
    let policy = LaunchPolicy {
        aggregate: 1,
        ..POLICY
    };
    let mut r = stepper(policy, Time::from_us(30), 1);
    r.step_at(Time::ZERO);
    r.be.queue.push_back(task(1, &[b"de"]));
    r.be.latency = Time::from_us(10);
    assert_eq!(r.step_at(Time::from_us(5)), Some(Time::from_us(15)));
    r.be.queue.push_back(task(2, &[b"f"]));
    assert_eq!(
        r.step_at(Time::from_us(6)),
        Some(Time::from_us(15)),
        "a queued task moved the wake ahead of a completion"
    );
    assert_eq!(r.be.attempts, 2, "launched past the in-flight cap");

    // A partial with an in-flight slot free: its deadline, or sooner the
    // step's short re-run while work is left.
    let mut r = stepper(POLICY, Time::ZERO, 1);
    assert_eq!(r.step_at(Time::ZERO), Some(Time::from_us(5)));
    assert_eq!(r.step_at(Time::from_us(98)), Some(Time::from_us(100)));
}

#[test]
fn stepping_at_each_returned_time_brings_every_batch_back() {
    let policy = LaunchPolicy {
        max_inflight: 1,
        backlog: 2,
        ..POLICY
    };
    let mut r = stepper(policy, Time::from_us(10), 5);
    let mut at = Time::ZERO;
    while let Some(next) = r.step_at(at) {
        assert!(next > at, "a step at {at:?} asked to run again at once");
        at = next;
    }
    assert_eq!(r.be.delivered.len(), 5, "a batch was left behind");
    assert!(r.be.delivered.iter().all(|d| !d.fallback));
    assert_eq!((r.be.queue.len(), r.core.backlog()), (0, 0));
    assert_eq!(r.be.attempts, 3, "two partials of two, then one");
}
