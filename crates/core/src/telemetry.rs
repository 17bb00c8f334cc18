//! Telemetry: per-element profiles, run time-series, batch-lifecycle
//! traces, and dependency-free exporters.
//!
//! Three observation layers, all designed to never perturb the simulation:
//!
//! * **Per-element profiles** — every [`crate::graph::ElementGraph`] node
//!   accumulates batches, packets, drops, and busy time as it processes
//!   (virtual time in the DES runtime, wall time in the live runtime).
//!   Always on; the accumulators are plain adds on the traversal path.
//! * **Run time-series** — a read-only sampler records a [`TimeSample`]
//!   every [`TelemetryConfig::sample_interval`]: windowed throughput, drop
//!   counts, the latency EWMA, per-GPU busy fractions, and the shared
//!   balancer's offloading fraction `w` (the Figure 12/13 traces).
//! * **Batch-lifecycle traces** — [`TraceEvent`]s following batches from
//!   RX through element hops, branch misses, and the offload round trip to
//!   TX, in the flight recorder's one ring per worker shard. With
//!   [`TelemetryConfig::trace_capacity`] at 0 no span ids are stamped and
//!   the rings keep only the recorder's sampled tail.
//!
//! Exporters are dependency-free: JSONL writers for each stream, and the
//! Prometheus text rendering — every metric family written once, shared by
//! the post-run export of a [`crate::runtime::RunReport`] and the live
//! `/metrics` endpoint ([`crate::introspect::StatsServer`]).
//! Determinism contract: a run with telemetry fully enabled produces a
//! bit-identical throughput report to the same run with it disabled —
//! observation only reads simulation state and writes side tables.

use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nba_sim::Time;
use parking_lot::Mutex;

use crate::audit::{OffloadStage, SloSample, SloTracker};
use crate::fault::FaultSnapshot;
use crate::flow::FlowReport;
use crate::runtime::RunReport;
use crate::stats::{LatencyHistogram, Snapshot, SystemInspector};
use crate::supervise::{HealthSnapshot, WorkerState};

/// Telemetry knobs of a run (part of [`crate::runtime::RuntimeConfig`]).
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Time-series sampling interval; `None` disables the sampler.
    pub sample_interval: Option<Time>,
    /// Capacity (events) of each worker shard's event ring while tracing;
    /// 0 disables tracing — no ids are stamped, and the rings keep the
    /// flight recorder's sampled tail only.
    pub trace_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            sample_interval: Some(Time::from_ms(2)),
            trace_capacity: 0,
        }
    }
}

impl TelemetryConfig {
    /// Everything off: no sampler, no tracing (profiles are always on).
    pub fn off() -> TelemetryConfig {
        TelemetryConfig {
            sample_interval: None,
            trace_capacity: 0,
        }
    }
}

/// Work accumulated by one element graph node (internal accumulator; the
/// exported form is [`ElementProfile`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct ProfileAcc {
    pub batches: u64,
    pub packets: u64,
    pub drops: u64,
    pub cycles: u64,
    pub busy_ns: u64,
    /// Per-visit service-time distribution in nanoseconds.
    pub service: LatencyHistogram,
}

/// Per-element work totals over a whole run (warmup included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementProfile {
    /// Node index in the element graph.
    pub node: usize,
    /// Element class name.
    pub element: &'static str,
    /// Batches the element processed (CPU-side visits).
    pub batches: u64,
    /// Packets presented to the element.
    pub packets: u64,
    /// Packets the element dropped.
    pub drops: u64,
    /// Modeled CPU cycles charged while the element held the batch.
    pub cycles: u64,
    /// Busy time: virtual (cycle-derived) in the DES runtime, wall-clock
    /// in the live runtime.
    pub busy: Time,
    /// Per-visit service-time distribution in nanoseconds (one sample per
    /// CPU-side batch visit; GPU-resumed visits are not sampled — their
    /// share lives on the GPU timeline). Mergeable across workers.
    pub latency: LatencyHistogram,
}

/// Merges per-worker profile lists into per-node totals (summed across
/// replicas, ordered by node index). Service-time histograms merge
/// losslessly: bucket counts add.
pub fn merge_profiles(
    per_worker: impl IntoIterator<Item = Vec<ElementProfile>>,
) -> Vec<ElementProfile> {
    let mut merged: Vec<ElementProfile> = Vec::new();
    for profiles in per_worker {
        for p in profiles {
            match merged.iter_mut().find(|m| m.node == p.node) {
                Some(m) => {
                    m.batches += p.batches;
                    m.packets += p.packets;
                    m.drops += p.drops;
                    m.cycles += p.cycles;
                    m.busy += p.busy;
                    m.latency.merge(&p.latency);
                }
                None => merged.push(p),
            }
        }
    }
    merged.sort_by_key(|p| p.node);
    merged
}

/// Merges per-worker latency-histogram shards into one distribution.
/// Lossless: bucket counts add, min/max/sum fold, so report-time merging of
/// shared-nothing shards loses nothing over a single global histogram.
pub fn merge_histograms(shards: impl IntoIterator<Item = LatencyHistogram>) -> LatencyHistogram {
    let mut merged = LatencyHistogram::new();
    for shard in shards {
        merged.merge(&shard);
    }
    merged
}

/// A run-wide causal span-id allocator. Span ids are unique across every
/// thread of one run (workers share the allocator through their graph
/// replicas), strictly positive, and dense — 0 is reserved for "no span"
/// so a zeroed [`TraceEvent`] means tracing was off.
///
/// Cloning shares the counter; `next()` is a single relaxed `fetch_add`,
/// cheap enough to sit on the traced hot path and absent from the untraced
/// one (a run allocates spans only while tracing).
#[derive(Debug, Clone, Default)]
pub struct SpanAlloc(Arc<AtomicU64>);

impl SpanAlloc {
    /// A fresh allocator starting at span id 1.
    pub fn new() -> SpanAlloc {
        SpanAlloc::default()
    }

    /// Allocates the next span id (never 0).
    pub fn next(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Per-shard gauges sampled alongside each [`TimeSample`]: the state of one
/// worker's RX ring and balancer at the sample instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardSample {
    /// Worker (shard) index the gauges belong to.
    pub shard: u32,
    /// Packets sitting in the shard's RX rings at the sample instant
    /// (summed over the IO threads feeding it).
    pub ring_occupancy: u64,
    /// Highest RX-ring occupancy observed so far (summed over rings).
    pub ring_high_water: u64,
    /// Cumulative enqueue failures (full-ring refusals) on the shard's RX
    /// rings.
    pub enqueue_failed: u64,
    /// Cumulative packets shed toward this shard by the IO threads'
    /// overload policy (drop-tail / priority / probabilistic).
    pub shed: u64,
    /// The shard balancer's offloading fraction `w` at the sample instant
    /// (equals the shared `w` under `lb::shared`).
    pub w: f64,
}

/// One point of the run time-series.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSample {
    /// Sample time: virtual in the DES runtime, elapsed wall time in the
    /// live runtime.
    pub t: Time,
    /// Cumulative packets transmitted at `t` (monotone).
    pub tx_packets: u64,
    /// Transmit rate over the window since the previous sample, in Mpps.
    pub tx_mpps: f64,
    /// Transmit rate over the window, in frame Gbps.
    pub tx_gbps: f64,
    /// Cumulative pipeline drops at `t`.
    pub dropped: u64,
    /// Cumulative RX-ring drops at `t`.
    pub rx_dropped: u64,
    /// Worst per-worker latency EWMA at `t`, nanoseconds.
    pub latency_ewma_ns: u64,
    /// Cumulative batches offloaded at `t`.
    pub offloaded_batches: u64,
    /// The shared balancer's offloading fraction `w` at `t`.
    pub offload_fraction: f64,
    /// Per-GPU compute-engine busy fraction over the window.
    pub gpu_busy: Vec<f64>,
    /// Per-shard ring/balancer gauges at `t` (live runtime only; empty in
    /// the DES runtime, whose rings are simulated).
    pub shards: Vec<ShardSample>,
    /// SLO burn accounting for this window (`None` unless an SLO is
    /// configured on the run).
    pub slo: Option<crate::audit::SloSample>,
}

/// Builds the run time-series, one [`TimeSample`] per call: both runtimes'
/// samplers are a timer around this. Read-only over the run's counters, so
/// sampling cannot perturb what it observes.
pub struct Sampler {
    prev: Snapshot,
    last_t: Time,
    /// Scores every window (`None` unless an SLO is configured); shared
    /// with the run assembly, which asks it for the final verdict.
    slo: Option<Arc<Mutex<SloTracker>>>,
}

impl Sampler {
    /// A sampler whose first window opens at time zero.
    pub fn new(slo: Option<Arc<Mutex<SloTracker>>>) -> Sampler {
        Sampler {
            prev: Snapshot::default(),
            last_t: Time::ZERO,
            slo,
        }
    }

    /// When the current window opened (the previous call's `t`).
    pub fn last_t(&self) -> Time {
        self.last_t
    }

    /// Closes the window at `t` and opens the next. `None` for an empty
    /// window (`t` not past the previous call's).
    pub fn sample(
        &mut self,
        t: Time,
        inspector: &SystemInspector,
        rx_dropped: u64,
        offload_fraction: f64,
        gpu_busy: Vec<f64>,
        shards: Vec<ShardSample>,
    ) -> Option<TimeSample> {
        let snap = inspector.snapshot();
        let sample = (t > self.last_t).then(|| {
            let secs = (t - self.last_t).as_secs_f64();
            let w = snap - self.prev;
            let tx_mpps = w.tx_packets as f64 / secs / 1e6;
            let latency_ewma_ns = inspector.worst_latency_ewma_ns();
            let slo = self.slo.as_ref();
            TimeSample {
                t,
                tx_packets: snap.tx_packets,
                tx_mpps,
                tx_gbps: w.tx_frame_bits as f64 / secs / 1e9,
                dropped: snap.dropped,
                rx_dropped,
                latency_ewma_ns,
                offloaded_batches: snap.offloaded_batches,
                offload_fraction,
                gpu_busy,
                shards,
                slo: slo.map(|tr| tr.lock().observe(latency_ewma_ns, tx_mpps)),
            }
        });
        self.prev = snap;
        self.last_t = t;
        sample
    }
}

/// What happened to a batch at one point of its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// An IO thread RSS-steered a burst of packets into a worker's
    /// SPSC ring (live runtime only; `worker` is the destination shard,
    /// `node` carries the IO thread index).
    Steer,
    /// Packets fetched from RX queues and wrapped into the batch.
    Rx,
    /// An element processed the batch.
    Element,
    /// The batch hit a real branch (packets split over several ports).
    Branch,
    /// Packets diverged from the predicted output port.
    BranchMiss,
    /// The batch suspended at an offloadable element and was shipped to
    /// the device thread.
    OffloadEnqueue,
    /// The device thread launched the batch (inside an aggregated task).
    OffloadLaunch,
    /// The device thread retried the task after a transient failure.
    OffloadRetry,
    /// The offload round trip completed; the pipeline resumes.
    OffloadComplete,
    /// The offload failed terminally and the batch fell back to the CPU
    /// path.
    OffloadFallback,
    /// Packets from the batch were transmitted.
    Tx,
    /// Packets from the batch were dropped.
    Drop,
}

impl TraceEventKind {
    /// Stable lowercase name used by the exporters.
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceEventKind::Steer => "steer",
            TraceEventKind::Rx => "rx",
            TraceEventKind::Element => "element",
            TraceEventKind::Branch => "branch",
            TraceEventKind::BranchMiss => "branch_miss",
            TraceEventKind::OffloadEnqueue => "offload_enqueue",
            TraceEventKind::OffloadLaunch => "offload_launch",
            TraceEventKind::OffloadRetry => "offload_retry",
            TraceEventKind::OffloadComplete => "offload_complete",
            TraceEventKind::OffloadFallback => "offload_fallback",
            TraceEventKind::Tx => "tx",
            TraceEventKind::Drop => "drop",
        }
    }
}

/// One batch-lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event time (virtual in DES, elapsed wall time in live).
    pub t: Time,
    /// Worker that owned the batch (or shipped it, for device events).
    pub worker: u32,
    /// The batch's trace id (stamped at RX; 0 for split offspring).
    pub batch: u64,
    /// Graph node involved, if any.
    pub node: Option<u32>,
    /// What happened.
    pub kind: TraceEventKind,
    /// Packets involved.
    pub packets: u32,
    /// How long the event's work took ([`TraceEventKind::Element`] visits:
    /// cycle-derived in DES, wall clock in live; zero for point events).
    pub dur: Time,
    /// This event's causal span id ([`SpanAlloc`]; 0 when span tracing is
    /// off — legacy traces stay valid with both fields zeroed).
    pub span: u64,
    /// Span id of the causal parent (0 for roots: an RX with no recorded
    /// steer, or any event with span tracing off).
    pub parent: u64,
}

impl TraceEvent {
    /// A zero-duration point event with no node and no spans; refine with
    /// [`TraceEvent::at_node`] and [`TraceEvent::spans`].
    pub fn point(
        t: Time,
        worker: usize,
        batch: u64,
        kind: TraceEventKind,
        packets: usize,
    ) -> TraceEvent {
        TraceEvent {
            t,
            worker: worker as u32,
            batch,
            node: None,
            kind,
            packets: packets as u32,
            dur: Time::ZERO,
            span: 0,
            parent: 0,
        }
    }

    /// The same event, attributed to graph node `node`.
    pub fn at_node(self, node: usize) -> TraceEvent {
        TraceEvent {
            node: Some(node as u32),
            ..self
        }
    }

    /// The same event, carrying causal span `span` under `parent`.
    pub fn spans(self, span: u64, parent: u64) -> TraceEvent {
        TraceEvent {
            span,
            parent,
            ..self
        }
    }
}

/// A bounded ring of [`TraceEvent`]s: pushes never allocate past capacity,
/// the oldest events are overwritten and counted. The flight recorder
/// keeps one per worker shard, a live IO thread one for its steer events.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    cap: usize,
    next: usize,
    overwritten: u64,
}

impl TraceBuffer {
    /// A ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 (callers gate on the config instead).
    pub fn new(capacity: usize) -> TraceBuffer {
        assert!(capacity > 0, "trace buffer needs nonzero capacity");
        TraceBuffer {
            events: Vec::with_capacity(capacity.min(4096)),
            cap: capacity,
            next: 0,
            overwritten: 0,
        }
    }

    /// Appends an event, overwriting the oldest once full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.events[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
            self.overwritten += 1;
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events are held.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events that were overwritten after the ring filled.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// The held events in arrival order (the oldest sits at `next` once
    /// the ring has wrapped).
    pub fn events(&self) -> Vec<TraceEvent> {
        let (newer, older) = self.events.split_at(self.next);
        older.iter().chain(newer).copied().collect()
    }
}

// ---------------------------------------------------------------------------
// Exporters: dependency-free JSONL and Prometheus text renderers.
// ---------------------------------------------------------------------------

/// Escapes a string for embedding inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Finite JSON number or `0` (JSON has no NaN/Infinity).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders per-element profiles as one JSON object per line. Latency
/// fields are nanoseconds (the `_ns` suffix convention, see DESIGN.md).
pub fn profiles_to_jsonl(profiles: &[ElementProfile]) -> String {
    let mut out = String::new();
    for p in profiles {
        out.push_str(&format!(
            "{{\"node\":{},\"element\":\"{}\",\"batches\":{},\"packets\":{},\"drops\":{},\"cycles\":{},\"busy_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}\n",
            p.node,
            json_escape(p.element),
            p.batches,
            p.packets,
            p.drops,
            p.cycles,
            p.busy.as_ns(),
            p.latency.percentile_ns(50.0),
            p.latency.percentile_ns(99.0),
        ));
    }
    out
}

/// Renders the time-series as one JSON object per line.
pub fn samples_to_jsonl(samples: &[TimeSample]) -> String {
    let mut out = String::new();
    for s in samples {
        let gpu: Vec<String> = s.gpu_busy.iter().map(|&g| json_f64(g)).collect();
        let shards: Vec<String> = s
            .shards
            .iter()
            .map(|sh| {
                format!(
                    "{{\"shard\":{},\"ring_occupancy\":{},\"ring_high_water\":{},\"enqueue_failed\":{},\"shed\":{},\"w\":{}}}",
                    sh.shard,
                    sh.ring_occupancy,
                    sh.ring_high_water,
                    sh.enqueue_failed,
                    sh.shed,
                    json_f64(sh.w),
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"t_us\":{},\"tx_packets\":{},\"tx_mpps\":{},\"tx_gbps\":{},\"dropped\":{},\"rx_dropped\":{},\"latency_ewma_ns\":{},\"offloaded_batches\":{},\"w\":{},\"gpu_busy\":[{}],\"shards\":[{}],\"slo\":{}}}\n",
            s.t.as_ns() / 1000,
            s.tx_packets,
            json_f64(s.tx_mpps),
            json_f64(s.tx_gbps),
            s.dropped,
            s.rx_dropped,
            s.latency_ewma_ns,
            s.offloaded_batches,
            json_f64(s.offload_fraction),
            gpu.join(","),
            shards.join(","),
            slo_json(s.slo),
        ));
    }
    out
}

/// One window's SLO verdict as a JSON object, `null` without one (the
/// time-series JSONL and `/status` both carry it).
pub(crate) fn slo_json(slo: Option<SloSample>) -> String {
    slo.map_or("null".to_string(), |s| {
        format!(
            "{{\"latency_ok\":{},\"throughput_ok\":{},\"latency_burn\":{},\"throughput_burn\":{}}}",
            s.latency_ok,
            s.throughput_ok,
            json_f64(s.latency_burn),
            json_f64(s.throughput_burn),
        )
    })
}

/// Renders a batch-lifecycle trace as one JSON object per line.
pub fn trace_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&trace_event_json(e));
        out.push('\n');
    }
    out
}

/// One [`TraceEvent`] as a standalone JSON object (the JSONL line without
/// its newline) — shared by the JSONL exporter and the flight recorder.
pub fn trace_event_json(e: &TraceEvent) -> String {
    let node = match e.node {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"t_ns\":{},\"worker\":{},\"batch\":{},\"node\":{},\"kind\":\"{}\",\"packets\":{},\"dur_ns\":{},\"span\":{},\"parent\":{}}}",
        e.t.as_ns(),
        e.worker,
        e.batch,
        node,
        e.kind.as_str(),
        e.packets,
        e.dur.as_ns(),
        e.span,
        e.parent,
    )
}

// ---------------------------------------------------------------------------
// Chrome Trace Event Format (Perfetto) exporter.
// ---------------------------------------------------------------------------

/// Pseudo thread id for the device thread's events (`OffloadLaunch` runs on
/// the device, not on the worker that shipped the batch).
const CHROME_DEVICE_TID: u32 = 10_000;

/// Base pseudo thread id for IO threads (`Steer` events render on
/// `CHROME_IO_TID_BASE + io_index`).
const CHROME_IO_TID_BASE: u32 = 20_000;

/// One emitted Chrome trace record under construction.
struct ChromeEvent {
    ph: char,
    ts_ns: u64,
    tid: u32,
    name: String,
    extra: String,
}

impl ChromeEvent {
    fn render(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"ph\":\"{}\",\"ts\":{}.{:03},\"pid\":0,\"tid\":{},\"name\":\"{}\"{}}}",
            self.ph,
            self.ts_ns / 1000,
            self.ts_ns % 1000,
            self.tid,
            json_escape(&self.name),
            self.extra,
        ));
    }
}

/// Renders a batch-lifecycle trace in the Chrome Trace Event Format
/// (loadable in Perfetto / `chrome://tracing`).
///
/// * [`TraceEventKind::Element`] visits become paired `B`/`E` duration
///   slices named after the element class (`elements` maps node index to
///   name; unknown nodes render as `node<N>`). Within one worker step the
///   DES stamps every hop at the same virtual instant, so slices are laid
///   out sequentially from a per-thread cursor — faithful to the
///   run-to-completion model, where a core executes its hops serially.
/// * RX/TX/branch/drop events become thread-scoped instants (`i`).
/// * The offload handoff becomes a flow arrow: flow-start `s` at
///   `OffloadEnqueue` on the worker thread, flow-step `t` at
///   `OffloadLaunch` (and any `OffloadRetry`) on the device pseudo-thread,
///   flow-finish `f` at `OffloadComplete`/`OffloadFallback` back on the
///   worker — each anchored in a zero-length `B`/`E` slice so Perfetto has
///   a slice to attach the arrow to. When the trace carries causal span
///   ids (any event with `span != 0`), arrows are bound by the enqueue
///   span resolved through parent links — exact even when a batch offloads
///   repeatedly; legacy traces fall back to the batch-id heuristic.
/// * With spans, IO→worker handoffs render too: `Steer` events become
///   flow-starts on per-IO pseudo-threads (`io <n>`) finished by the RX
///   that first drained the steered ring.
/// * `M` metadata records name the process and every thread.
///
/// Timestamps are microseconds with nanosecond precision (the format's
/// unit); all events share `pid` 0.
pub fn trace_to_chrome(events: &[TraceEvent], elements: &[ElementProfile]) -> String {
    let name_of = |node: u32| -> String {
        elements
            .iter()
            .find(|p| p.node == node as usize)
            .map(|p| p.element.to_string())
            .unwrap_or_else(|| format!("node{node}"))
    };
    // Stable sort by time: per-tid cursors need non-decreasing input, and
    // arrival order breaks ties the way the run actually interleaved.
    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.t);

    // Causal span index, used to key offload flow arrows when the trace
    // carries span ids: every arrow of one offload round trip binds to the
    // round trip's enqueue span, resolved by walking parent links.
    let spans_on = events.iter().any(|e| e.span != 0);
    let mut span_parent: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut enqueue_spans: std::collections::HashSet<u64> = std::collections::HashSet::new();
    if spans_on {
        for e in events {
            if e.span != 0 {
                span_parent.insert(e.span, e.parent);
                if e.kind == TraceEventKind::OffloadEnqueue {
                    enqueue_spans.insert(e.span);
                }
            }
        }
    }
    let offload_flow_id = |e: &TraceEvent| -> u64 {
        if !spans_on {
            return e.batch;
        }
        // Walk ancestors (complete → launch → enqueue) to the enqueue span.
        let mut p = if e.kind == TraceEventKind::OffloadEnqueue {
            e.span
        } else {
            e.parent
        };
        for _ in 0..4 {
            if p == 0 || enqueue_spans.contains(&p) {
                break;
            }
            p = span_parent.get(&p).copied().unwrap_or(0);
        }
        if p != 0 {
            p
        } else if e.span != 0 {
            e.span
        } else {
            e.batch
        }
    };

    // Emits a zero-length anchor slice plus the flow event it anchors (a
    // flow arrow must attach to a slice on its thread).
    #[allow(clippy::too_many_arguments)]
    fn push_flow(
        out: &mut Vec<ChromeEvent>,
        tid: u32,
        args: &str,
        name: &str,
        ph: char,
        id: u64,
        ts: u64,
        end: u64,
    ) {
        out.push(ChromeEvent {
            ph: 'B',
            ts_ns: ts,
            tid,
            name: name.into(),
            extra: format!(",\"cat\":\"offload\"{args}"),
        });
        out.push(ChromeEvent {
            ph,
            ts_ns: ts,
            tid,
            name: "offload".into(),
            extra: format!(",\"cat\":\"offload\",\"id\":{id},\"bp\":\"e\""),
        });
        out.push(ChromeEvent {
            ph: 'E',
            ts_ns: end,
            tid,
            name: name.into(),
            extra: ",\"cat\":\"offload\"".into(),
        });
    }

    let mut out_events: Vec<ChromeEvent> = Vec::new();
    // Per-tid layout cursor in nanoseconds (see the doc comment).
    let mut cursor: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    let mut tids: Vec<u32> = Vec::new();
    for e in &sorted {
        let tid = match e.kind {
            TraceEventKind::OffloadLaunch | TraceEventKind::OffloadRetry => CHROME_DEVICE_TID,
            TraceEventKind::Steer => CHROME_IO_TID_BASE + e.node.unwrap_or(0),
            _ => e.worker,
        };
        if !tids.contains(&tid) {
            tids.push(tid);
        }
        let cur = cursor.entry(tid).or_insert(0);
        let ts = (*cur).max(e.t.as_ns());
        let args = format!(
            ",\"args\":{{\"batch\":{},\"packets\":{},\"worker\":{},\"span\":{},\"parent\":{}}}",
            e.batch, e.packets, e.worker, e.span, e.parent
        );
        match e.kind {
            TraceEventKind::Element => {
                let name = e.node.map(name_of).unwrap_or_else(|| "element".into());
                let end = ts + e.dur.as_ns();
                out_events.push(ChromeEvent {
                    ph: 'B',
                    ts_ns: ts,
                    tid,
                    name: name.clone(),
                    extra: format!(",\"cat\":\"element\"{args}"),
                });
                out_events.push(ChromeEvent {
                    ph: 'E',
                    ts_ns: end,
                    tid,
                    name,
                    extra: ",\"cat\":\"element\"".into(),
                });
                *cur = end;
            }
            TraceEventKind::OffloadEnqueue
            | TraceEventKind::OffloadLaunch
            | TraceEventKind::OffloadRetry
            | TraceEventKind::OffloadComplete
            | TraceEventKind::OffloadFallback => {
                let (name, ph) = match e.kind {
                    TraceEventKind::OffloadEnqueue => ("offload enqueue", 's'),
                    TraceEventKind::OffloadLaunch => ("offload launch", 't'),
                    TraceEventKind::OffloadRetry => ("offload retry", 't'),
                    TraceEventKind::OffloadFallback => ("offload fallback", 'f'),
                    _ => ("offload complete", 'f'),
                };
                let end = ts + e.dur.as_ns();
                push_flow(
                    &mut out_events,
                    tid,
                    &args,
                    name,
                    ph,
                    offload_flow_id(e),
                    ts,
                    end,
                );
                *cur = end;
            }
            // IO→worker handoff arrows exist only in span mode: the steer
            // span starts the flow, the RX that drained the ring ends it.
            TraceEventKind::Steer if e.span != 0 => {
                push_flow(&mut out_events, tid, &args, "steer", 's', e.span, ts, ts);
                *cur = ts;
            }
            TraceEventKind::Rx if e.parent != 0 => {
                push_flow(&mut out_events, tid, &args, "rx", 'f', e.parent, ts, ts);
                *cur = ts;
            }
            _ => {
                out_events.push(ChromeEvent {
                    ph: 'i',
                    ts_ns: ts,
                    tid,
                    name: e.kind.as_str().into(),
                    extra: format!(",\"cat\":\"batch\",\"s\":\"t\"{args}"),
                });
                *cur = ts;
            }
        }
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    // Metadata: process and thread names.
    let mut meta = vec![
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"nba\"}}"
            .to_string(),
    ];
    for tid in &tids {
        let tname = if *tid == CHROME_DEVICE_TID {
            "device".to_string()
        } else if *tid >= CHROME_IO_TID_BASE {
            format!("io {}", tid - CHROME_IO_TID_BASE)
        } else {
            format!("worker {tid}")
        };
        meta.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(&tname)
        ));
    }
    for m in meta {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&m);
    }
    for e in &out_events {
        if !first {
            out.push(',');
        }
        first = false;
        e.render(&mut out);
    }
    out.push_str("]}");
    out
}

/// Renders per-element profiles as an aligned text table.
pub fn profile_table(profiles: &[ElementProfile]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>4}  {:<20} {:>12} {:>14} {:>10} {:>14} {:>12} {:>10} {:>10}\n",
        "node", "element", "batches", "packets", "drops", "cycles", "busy", "p50", "p99"
    ));
    for p in profiles {
        out.push_str(&format!(
            "{:>4}  {:<20} {:>12} {:>14} {:>10} {:>14} {:>12} {:>10} {:>10}\n",
            p.node,
            p.element,
            p.batches,
            p.packets,
            p.drops,
            p.cycles,
            format!("{:.3}ms", p.busy.as_ns() as f64 / 1e6),
            format!("{}ns", p.latency.percentile_ns(50.0)),
            format!("{}ns", p.latency.percentile_ns(99.0)),
        ));
    }
    out
}

/// Escapes a label value for the Prometheus text exposition format
/// (backslash, double quote, and line feed must be escaped inside the
/// quoted value).
pub fn prom_label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a Prometheus label set, `{key="value",…}`, every value escaped
/// with [`prom_label_escape`].
fn prom_labels(pairs: &[(&str, &dyn Display)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_label_escape(&v.to_string())))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Writes one metric family: its `# HELP` and `# TYPE` headers, then one
/// sample line per `(labels, value)` (labels from [`prom_labels`], empty
/// for an unlabelled sample). `spec` is the family's whole definition,
/// `"<name> <type> <help>"`. Each family is written by exactly one of the
/// section writers below, which both the post-run export
/// ([`report_to_prometheus`]) and the live `/metrics` endpoint call, so a
/// family has one name, type and help text wherever it appears.
fn family<V: Display>(
    out: &mut String,
    spec: &str,
    samples: impl IntoIterator<Item = (String, V)>,
) {
    let mut parts = spec.splitn(3, ' ');
    let (Some(name), Some(kind), Some(help)) = (parts.next(), parts.next(), parts.next()) else {
        panic!("family spec {spec:?} is not `<name> <type> <help>`");
    };
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    for (labels, value) in samples {
        out.push_str(&format!("{name}{labels} {value}\n"));
    }
}

/// [`family`] with one unlabelled sample.
fn scalar(out: &mut String, spec: &str, value: impl Display) {
    family(out, spec, [(String::new(), value)]);
}

/// Packets transmitted, dropped at full RX rings, and dropped inside the
/// pipeline.
pub(crate) fn prom_packets(out: &mut String, tx: u64, rx_dropped: u64, dropped: u64) {
    for (spec, v) in [
        (
            "nba_tx_packets_total counter Packets transmitted in the measurement window",
            tx,
        ),
        (
            "nba_rx_dropped_total counter RX-ring drops in the measurement window",
            rx_dropped,
        ),
        (
            "nba_pipeline_dropped_total counter \
             Packets dropped inside the pipeline in the measurement window",
            dropped,
        ),
    ] {
        scalar(out, spec, v);
    }
}

/// Per-shard RX-ring and balancer gauges.
pub(crate) fn prom_shards(out: &mut String, shards: &[ShardSample]) {
    let per_shard = |out: &mut String, spec: &str, value: fn(&ShardSample) -> String| {
        let samples = shards
            .iter()
            .map(|sh| (prom_labels(&[("shard", &sh.shard)]), value(sh)));
        family(out, spec, samples);
    };
    per_shard(
        out,
        "nba_ring_occupancy gauge Packets queued in the shard's RX rings at the last sample",
        |sh| sh.ring_occupancy.to_string(),
    );
    per_shard(
        out,
        "nba_ring_high_water gauge Highest RX-ring occupancy observed by the shard",
        |sh| sh.ring_high_water.to_string(),
    );
    per_shard(
        out,
        "nba_ring_enqueue_failed_total counter \
         Full-ring enqueue refusals on the shard's RX rings",
        |sh| sh.enqueue_failed.to_string(),
    );
    per_shard(
        out,
        "nba_shed_total counter Packets shed toward the shard by the IO overload policy",
        |sh| sh.shed.to_string(),
    );
    per_shard(
        out,
        "nba_shard_offload_fraction gauge \
         The shard balancer's offloading fraction w at the last sample",
        |sh| json_f64(sh.w),
    );
}

/// The supervisor state of each shard (none when the run had no
/// supervisor) and the shed/loss/recovery ledger.
pub(crate) fn prom_health(out: &mut String, states: &[WorkerState], h: &HealthSnapshot) {
    if !states.is_empty() {
        let samples = states.iter().enumerate().map(|(w, st)| {
            let labels = prom_labels(&[("shard", &w), ("state", &st.as_str())]);
            (labels, st.as_u8())
        });
        family(
            out,
            "nba_worker_state gauge \
             Final supervisor state per shard (0=healthy 1=suspect 2=dead 3=recovering)",
            samples,
        );
    }
    let shed = [
        ("drop_tail", h.shed_drop_tail),
        ("priority", h.shed_priority),
        ("probabilistic", h.shed_probabilistic),
    ];
    family(
        out,
        "nba_shed_packets_total counter Packets shed by the IO overload policy",
        shed.map(|(policy, n)| (prom_labels(&[("policy", &policy)]), n)),
    );
    for (spec, v) in [
        (
            "nba_lost_in_ring_packets_total counter Packets stranded in RX rings of dead workers",
            h.lost_in_ring,
        ),
        (
            "nba_lost_in_flight_packets_total counter \
             Offload completions stranded when their worker died",
            h.lost_in_flight,
        ),
        (
            "nba_resteers_total counter RSS re-steer operations performed by the supervisor",
            h.resteers,
        ),
        (
            "nba_resteer_buckets_moved_total counter \
             RSS indirection buckets moved across all re-steers",
            h.buckets_moved,
        ),
        (
            "nba_worker_respawns_total counter Crashed workers respawned by the supervisor",
            h.respawns,
        ),
        (
            "nba_ring_disconnects_total counter Dead worker rings observed by IO threads",
            h.ring_disconnects,
        ),
    ] {
        scalar(out, spec, v);
    }
}

/// The stateful flow plane: live entries per shard, evictions by reason,
/// and the table-wide totals.
pub(crate) fn prom_flows(out: &mut String, fl: &FlowReport) {
    family(
        out,
        "nba_flows_live gauge Live flow-table entries per worker shard",
        fl.shards
            .iter()
            .map(|(w, s)| (prom_labels(&[("shard", w)]), s.live)),
    );
    let t = fl.totals();
    let evictions = [
        ("idle", t.evict_idle),
        ("embryonic", t.evict_embryonic),
        ("closed", t.evict_closed),
        ("worker_death", t.evict_death),
    ];
    family(
        out,
        "nba_flow_evictions_total counter Flow-table evictions by reason",
        evictions.map(|(reason, n)| (prom_labels(&[("reason", &reason)]), n)),
    );
    for (spec, v) in [
        (
            "nba_flow_inserts_total counter Flow-table insertions across all shards",
            t.inserts,
        ),
        (
            "nba_flow_table_full_drops_total counter \
             Packets dropped because a flow-table shard was full",
            t.table_full_drops,
        ),
        (
            "nba_flow_migrations_total counter \
             Foreign-bucket flows adopted by survivors after a re-steer",
            t.migrated_in,
        ),
        (
            "nba_nat_ports_in_use gauge NAT external ports currently bound",
            t.nat_ports_in_use,
        ),
    ] {
        scalar(out, spec, v);
    }
}

/// Fault-tolerance accounting (all zero on a clean run).
pub(crate) fn prom_faults(out: &mut String, f: &FaultSnapshot) {
    let injected = [
        ("timeout", f.injected_timeout),
        ("transient", f.injected_transient),
        ("corrupt", f.injected_corrupt),
        ("device_death", f.injected_dead),
    ];
    family(
        out,
        "nba_fault_injected_total counter Device faults injected, by kind",
        injected.map(|(kind, n)| (prom_labels(&[("kind", &kind)]), n)),
    );
    for (spec, v) in [
        (
            "nba_fault_retried_total counter Device task attempts retried after a transient error",
            f.retried,
        ),
        (
            "nba_fault_fell_back_packets_total counter \
             Packets re-executed on the CPU path after a device failure",
            f.fell_back_packets,
        ),
        (
            "nba_fault_dropped_packets_total counter \
             Packets lost with poison batches dropped by panic containment",
            f.dropped_packets,
        ),
        (
            "nba_fault_panics_contained_total counter \
             Panics caught by worker/device panic containment",
            f.panics_contained,
        ),
        (
            "nba_fault_quarantines_total counter \
             Times a device circuit breaker tripped into quarantine",
            f.quarantine_entered,
        ),
        (
            "nba_fault_readmissions_total counter \
             Times a half-open probe re-admitted a quarantined device",
            f.quarantine_exited,
        ),
    ] {
        scalar(out, spec, v);
    }
}

/// Cost-model drift accounting.
pub(crate) fn prom_drift(out: &mut String, events: u64, rel_err: f64) {
    scalar(
        out,
        "nba_cost_drift_events_total counter \
         Cost-model drift events raised (the detector latches at 1)",
        events,
    );
    scalar(
        out,
        "nba_cost_drift_rel_err gauge \
         Smoothed relative error between predicted and measured offload cost",
        json_f64(rel_err),
    );
}

/// SLO error-budget burn rates.
pub(crate) fn prom_slo_burn(out: &mut String, latency_burn: f64, throughput_burn: f64) {
    scalar(
        out,
        "nba_slo_latency_burn gauge \
         Fraction of the latency error budget burned (>1 = budget blown)",
        json_f64(latency_burn),
    );
    scalar(
        out,
        "nba_slo_throughput_burn gauge \
         Fraction of the throughput error budget burned (>1 = budget blown)",
        json_f64(throughput_burn),
    );
}

/// The families only a run in progress has: liveness, batches offloaded so
/// far, the device breaker, and whether the latest sample window met each
/// SLO budget (when an SLO is configured).
pub(crate) fn prom_live(
    out: &mut String,
    offloaded_batches: u64,
    quarantined: bool,
    slo: Option<SloSample>,
) {
    scalar(out, "nba_up gauge 1 while the run is live", 1);
    scalar(
        out,
        "nba_offloaded_batches_total counter Batches sent to the device thread",
        offloaded_batches,
    );
    scalar(
        out,
        "nba_quarantined gauge 1 while the device circuit breaker is open",
        u8::from(quarantined),
    );
    if let Some(s) = slo {
        scalar(
            out,
            "nba_slo_latency_ok gauge 1 while the latest window met the latency budget",
            u8::from(s.latency_ok),
        );
        scalar(
            out,
            "nba_slo_throughput_ok gauge 1 while the latest window met the throughput floor",
            u8::from(s.throughput_ok),
        );
    }
}

/// Renders a [`RunReport`] in the Prometheus text exposition format.
pub fn report_to_prometheus(r: &RunReport) -> String {
    let mut out = String::new();
    let o = &mut out;
    for (spec, v) in [
        (
            "nba_tx_gbps gauge \
             Transmitted frame gigabits per second over the measurement window",
            json_f64(r.tx_gbps),
        ),
        (
            "nba_tx_mpps gauge \
             Transmitted packets per second (millions) over the measurement window",
            json_f64(r.tx_mpps()),
        ),
        (
            "nba_offered_gbps gauge Offered load in gigabits per second",
            json_f64(r.offered_gbps),
        ),
    ] {
        scalar(o, spec, v);
    }
    prom_packets(o, r.tx_packets, r.rx_dropped, r.window.dropped);
    for (spec, v) in [
        (
            "nba_offload_fraction gauge Final offloading fraction w of the shared balancer",
            json_f64(r.final_w),
        ),
        (
            "nba_latency_p50_ns gauge Median round-trip latency in nanoseconds",
            r.latency.percentile(50.0).as_ns().to_string(),
        ),
        (
            "nba_latency_p99_ns gauge 99th-percentile round-trip latency in nanoseconds",
            r.latency.percentile(99.0).as_ns().to_string(),
        ),
    ] {
        scalar(o, spec, v);
    }

    let gpus = || {
        r.gpu
            .iter()
            .enumerate()
            .map(|(i, g)| (prom_labels(&[("gpu", &i)]), g))
    };
    family(
        o,
        "nba_gpu_tasks_total counter Offload tasks completed per device",
        gpus().map(|(l, g)| (l, g.tasks)),
    );
    family(
        o,
        "nba_gpu_kernel_busy_seconds counter Compute-engine busy time per device",
        gpus().map(|(l, g)| (l, json_f64(g.kernel_busy.as_secs_f64()))),
    );
    let elements = || {
        r.elements.iter().map(|p| {
            (
                prom_labels(&[("node", &p.node), ("element", &p.element)]),
                p,
            )
        })
    };
    family(
        o,
        "nba_element_packets_total counter Packets presented to each element",
        elements().map(|(l, p)| (l, p.packets)),
    );
    family(
        o,
        "nba_element_busy_seconds counter Busy time accumulated by each element",
        elements().map(|(l, p)| (l, json_f64(p.busy.as_secs_f64()))),
    );

    // Per-shard gauges at the final sample that has them (live runtime
    // only; the DES runtime leaves `shards` empty).
    if let Some(last) = r.samples.iter().rev().find(|s| !s.shards.is_empty()) {
        prom_shards(o, &last.shards);
    }
    prom_health(o, &r.health.states, &r.health.stats);
    // Absent unless a stateful element ran, so flow-free runs keep their
    // exact exposition bytes.
    if let Some(fl) = &r.flows {
        prom_flows(o, fl);
    }
    prom_faults(o, &r.faults.snapshot);

    // Offload stage decomposition (absent unless stage stats were on).
    if let Some(st) = &r.stages {
        scalar(
            o,
            "nba_offload_stage_tasks_total counter Offload tasks decomposed into per-stage timings",
            st.tasks,
        );
        let per_stage = |o: &mut String, spec: &str, value: &dyn Fn(OffloadStage) -> String| {
            let samples = OffloadStage::ALL
                .iter()
                .map(|&s| (prom_labels(&[("stage", &s.as_str())]), value(s)));
            family(o, spec, samples);
        };
        per_stage(
            o,
            "nba_offload_stage_mean_ns gauge Mean time an offload task spent in each sub-stage",
            &|s| json_f64(st.mean_ns(s)),
        );
        per_stage(
            o,
            "nba_offload_stage_p99_ns gauge \
             99th-percentile time an offload task spent in each sub-stage",
            &|s| st.hist[s.index()].percentile_ns(99.0).to_string(),
        );
        per_stage(
            o,
            "nba_offload_stage_seconds_total gauge \
             Total time accumulated in each offload sub-stage",
            &|s| json_f64(st.total_ns[s.index()] as f64 / 1e9),
        );
    }

    if let Some(d) = &r.drift {
        prom_drift(o, d.events, d.rel_err);
    }
    if let Some(s) = &r.slo {
        prom_slo_burn(o, s.latency_burn, s.throughput_burn);
        for (spec, v) in [
            (
                "nba_slo_windows_total counter Sample windows scored against the SLO budgets",
                s.windows,
            ),
            (
                "nba_slo_latency_violations_total counter \
                 Sample windows that violated the latency budget",
                s.latency_violations,
            ),
            (
                "nba_slo_throughput_violations_total counter \
                 Sample windows that violated the throughput floor",
                s.throughput_violations,
            ),
            (
                "nba_slo_met gauge 1 when every SLO budget held over the run, else 0",
                u64::from(s.met),
            ),
        ] {
            scalar(o, spec, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ns: u64, batch: u64) -> TraceEvent {
        TraceEvent {
            t: Time::from_ns(t_ns),
            worker: 0,
            batch,
            node: None,
            kind: TraceEventKind::Rx,
            packets: 1,
            dur: Time::ZERO,
            span: 0,
            parent: 0,
        }
    }

    fn span_ev(t_ns: u64, kind: TraceEventKind, span: u64, parent: u64) -> TraceEvent {
        TraceEvent {
            kind,
            span,
            parent,
            ..ev(t_ns, 1)
        }
    }

    fn profile(node: usize, element: &'static str) -> ElementProfile {
        ElementProfile {
            node,
            element,
            batches: 0,
            packets: 0,
            drops: 0,
            cycles: 0,
            busy: Time::ZERO,
            latency: LatencyHistogram::new(),
        }
    }

    #[test]
    fn trace_ring_overwrites_oldest() {
        let mut tb = TraceBuffer::new(4);
        for i in 0..6 {
            tb.push(ev(i, i));
        }
        assert_eq!(tb.len(), 4);
        assert_eq!(tb.overwritten(), 2);
        let ids: Vec<u64> = tb.events().iter().map(|e| e.batch).collect();
        assert_eq!(ids, vec![2, 3, 4, 5]);
    }

    #[test]
    fn trace_ring_preserves_order_when_not_full() {
        let mut tb = TraceBuffer::new(10);
        for i in 0..3 {
            tb.push(ev(i, i));
        }
        assert_eq!(tb.overwritten(), 0);
        let ids: Vec<u64> = tb.events().iter().map(|e| e.batch).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn merge_sums_by_node() {
        let a = vec![ElementProfile {
            batches: 1,
            packets: 10,
            drops: 1,
            cycles: 100,
            busy: Time::from_us(1),
            ..profile(0, "A")
        }];
        let b = vec![
            ElementProfile {
                batches: 2,
                packets: 20,
                drops: 0,
                cycles: 50,
                busy: Time::from_us(2),
                ..profile(1, "B")
            },
            ElementProfile {
                batches: 3,
                packets: 30,
                drops: 2,
                cycles: 300,
                busy: Time::from_us(3),
                ..profile(0, "A")
            },
        ];
        let m = merge_profiles([a, b]);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].node, 0);
        assert_eq!(m[0].packets, 40);
        assert_eq!(m[0].drops, 3);
        assert_eq!(m[0].busy, Time::from_us(4));
        assert_eq!(m[1].packets, 20);
    }

    #[test]
    fn jsonl_lines_parse_as_flat_objects() {
        let profiles = vec![ElementProfile {
            batches: 7,
            packets: 448,
            drops: 0,
            cycles: 12345,
            busy: Time::from_us(9),
            ..profile(3, "IPLookup\"quoted\"")
        }];
        let s = profiles_to_jsonl(&profiles);
        assert_eq!(s.lines().count(), 1);
        assert!(s.contains("\\\"quoted\\\""));
        assert!(s.starts_with('{') && s.trim_end().ends_with('}'));

        let samples = vec![TimeSample {
            t: Time::from_ms(2),
            tx_packets: 100,
            tx_mpps: 0.05,
            tx_gbps: f64::NAN, // must not leak NaN into JSON
            dropped: 0,
            rx_dropped: 0,
            latency_ewma_ns: 1500,
            offloaded_batches: 4,
            offload_fraction: 0.5,
            gpu_busy: vec![0.25],
            shards: vec![ShardSample {
                shard: 2,
                ring_occupancy: 17,
                ring_high_water: 64,
                enqueue_failed: 3,
                shed: 5,
                w: 0.75,
            }],
            slo: Some(crate::audit::SloSample {
                latency_ok: true,
                throughput_ok: false,
                latency_burn: 0.5,
                throughput_burn: 2.0,
            }),
        }];
        let s = samples_to_jsonl(&samples);
        assert!(!s.contains("NaN"));
        assert!(s.contains("\"slo\":{\"latency_ok\":true,\"throughput_ok\":false,"));
        assert!(s.contains("\"gpu_busy\":[0.25]"));
        assert!(s.contains("\"shards\":[{\"shard\":2,\"ring_occupancy\":17,"));
        assert!(s.contains("\"enqueue_failed\":3,\"shed\":5,\"w\":0.75}"));

        let s = trace_to_jsonl(&[ev(1000, 42)]);
        assert!(s.contains("\"kind\":\"rx\""));
        assert!(s.contains("\"node\":null"));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(TraceEventKind::OffloadEnqueue.as_str(), "offload_enqueue");
        assert_eq!(TraceEventKind::BranchMiss.as_str(), "branch_miss");
        assert_eq!(TraceEventKind::Steer.as_str(), "steer");
        assert_eq!(TraceEventKind::OffloadRetry.as_str(), "offload_retry");
        assert_eq!(TraceEventKind::OffloadFallback.as_str(), "offload_fallback");
    }

    #[test]
    fn span_alloc_is_dense_positive_and_shared() {
        let a = SpanAlloc::new();
        let b = a.clone();
        assert_eq!(a.next(), 1, "ids start at 1; 0 means no span");
        assert_eq!(b.next(), 2, "clones share the counter");
        assert_eq!(a.next(), 3);
    }

    #[test]
    fn trace_ring_wraps_repeatedly_with_exact_overwrite_count() {
        // Satellite coverage: wraparound semantics after multiple full
        // laps of the ring, not just one.
        let mut tb = TraceBuffer::new(4);
        for i in 0..11 {
            tb.push(ev(i, i));
        }
        assert_eq!(tb.len(), 4, "len saturates at capacity");
        assert_eq!(tb.overwritten(), 7, "11 pushes into 4 slots lose 7");
        let ids: Vec<u64> = tb.events().iter().map(|e| e.batch).collect();
        assert_eq!(ids, vec![7, 8, 9, 10], "survivors in arrival order");
    }

    #[test]
    fn trace_ring_exactly_full_counts_nothing_overwritten() {
        let mut tb = TraceBuffer::new(3);
        for i in 0..3 {
            tb.push(ev(i, i));
        }
        assert_eq!(tb.overwritten(), 0);
        let ids: Vec<u64> = tb.events().iter().map(|e| e.batch).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn merge_histograms_handles_unequal_shard_counts() {
        // Two workers vs four workers vs zero: merging shard lists of any
        // length must equal one histogram fed every sample.
        let samples: [&[u64]; 4] = [&[100, 900, 5_000], &[250], &[], &[70_000, 70_000]];
        let mut reference = LatencyHistogram::new();
        let mut shards = Vec::new();
        for shard_samples in samples {
            let mut h = LatencyHistogram::new();
            for &ns in shard_samples {
                h.record_ns(ns);
                reference.record_ns(ns);
            }
            shards.push(h);
        }
        // Unequal counts: merge all four, then a prefix of two, then none.
        let all = merge_histograms(shards.clone());
        for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(all.percentile_ns(p), reference.percentile_ns(p));
        }
        let mut two_ref = LatencyHistogram::new();
        for &ns in samples[0].iter().chain(samples[1]) {
            two_ref.record_ns(ns);
        }
        let two = merge_histograms(shards[..2].to_vec());
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(two.percentile_ns(p), two_ref.percentile_ns(p));
        }
        let none = merge_histograms(Vec::<LatencyHistogram>::new());
        assert_eq!(none.percentile_ns(99.0), 0, "empty merge stays empty");
    }

    #[test]
    fn chrome_spans_key_offload_flows_and_render_io_threads() {
        // A full causal chain: steer(1) → rx(2←1) → enqueue(3←2) →
        // launch(4←3) → retry(5←4) → complete(6←4). Offload arrows must
        // all bind to the enqueue span (3); the steer/rx pair binds to the
        // steer span (1) on an IO pseudo-thread.
        let events = vec![
            span_ev(100, TraceEventKind::Steer, 1, 0),
            span_ev(200, TraceEventKind::Rx, 2, 1),
            span_ev(300, TraceEventKind::OffloadEnqueue, 3, 2),
            span_ev(400, TraceEventKind::OffloadLaunch, 4, 3),
            span_ev(500, TraceEventKind::OffloadRetry, 5, 4),
            span_ev(600, TraceEventKind::OffloadComplete, 6, 4),
            span_ev(700, TraceEventKind::Tx, 6, 0),
        ];
        let mut with_io = events.clone();
        with_io[0].node = Some(1); // steer came from IO thread 1
        let out = trace_to_chrome(&with_io, &[]);
        let doc = crate::json::parse(&out).expect("valid JSON");
        let evs = doc
            .get("traceEvents")
            .and_then(crate::json::Value::as_arr)
            .unwrap()
            .to_vec();
        let flows: Vec<(String, u64, u64)> = evs
            .iter()
            .filter(|e| {
                matches!(
                    e.get("ph").and_then(crate::json::Value::as_str),
                    Some("s") | Some("t") | Some("f")
                )
            })
            .map(|e| {
                (
                    e.get("ph")
                        .and_then(crate::json::Value::as_str)
                        .unwrap()
                        .to_string(),
                    e.get("id").and_then(crate::json::Value::as_u64).unwrap(),
                    e.get("tid").and_then(crate::json::Value::as_u64).unwrap(),
                )
            })
            .collect();
        // Offload round trip: s/t/t/f all keyed by the enqueue span 3,
        // with launch and retry on the device pseudo-thread.
        assert!(flows.contains(&("s".into(), 3, 0)), "{flows:?}");
        assert!(
            flows.contains(&("t".into(), 3, u64::from(CHROME_DEVICE_TID))),
            "{flows:?}"
        );
        assert_eq!(
            flows.iter().filter(|f| f.0 == "t" && f.1 == 3).count(),
            2,
            "launch and retry both step the flow: {flows:?}"
        );
        assert!(flows.contains(&("f".into(), 3, 0)), "{flows:?}");
        // IO handoff: steer starts flow 1 on io tid base+1, rx finishes it.
        let io_tid = u64::from(CHROME_IO_TID_BASE + 1);
        assert!(flows.contains(&("s".into(), 1, io_tid)), "{flows:?}");
        assert!(flows.contains(&("f".into(), 1, 0)), "{flows:?}");
        // The IO pseudo-thread is named.
        assert!(out.contains("\"name\":\"io 1\""));
        // Tx stays an instant so timelines keep their point events.
        assert!(evs.iter().any(|e| {
            e.get("ph").and_then(crate::json::Value::as_str) == Some("i")
                && e.get("name").and_then(crate::json::Value::as_str) == Some("tx")
        }));
    }

    #[test]
    fn chrome_without_spans_keeps_batch_id_flows() {
        // Legacy traces (all spans zero) must render exactly as before:
        // arrows keyed by the batch trace id.
        let mk = |t_ns: u64, kind| TraceEvent {
            kind,
            ..ev(t_ns, 42)
        };
        let events = vec![
            mk(100, TraceEventKind::OffloadEnqueue),
            mk(200, TraceEventKind::OffloadLaunch),
            mk(300, TraceEventKind::OffloadComplete),
        ];
        let out = trace_to_chrome(&events, &[]);
        let doc = crate::json::parse(&out).unwrap();
        let evs = doc
            .get("traceEvents")
            .and_then(crate::json::Value::as_arr)
            .unwrap()
            .to_vec();
        for ph in ["s", "t", "f"] {
            assert!(
                evs.iter().any(|e| {
                    e.get("ph").and_then(crate::json::Value::as_str) == Some(ph)
                        && e.get("id").and_then(crate::json::Value::as_u64) == Some(42)
                }),
                "missing {ph} keyed by batch id"
            );
        }
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        assert_eq!(
            prom_label_escape("a\\b\"c\nd"),
            "a\\\\b\\\"c\\nd",
            "backslash, quote, and newline must escape"
        );
        assert_eq!(prom_label_escape("plain"), "plain");
    }
}
