//! The decision-audit & SLO plane: explainable balancer decisions, offload
//! stage decomposition, cost-model drift detection, and SLO budget
//! tracking.
//!
//! Three cooperating pieces:
//!
//! * **Decision audit** — every state-mutating balancer update appends a
//!   [`DecisionRecord`] to a bounded [`DecisionLog`]: the observation that
//!   drove it (throughput, latency EWMA, device health, queue depth,
//!   predicted per-packet costs) and the resulting `w` transition. The log
//!   serializes to JSONL with `f64` values encoded as IEEE-754 bit
//!   patterns (hex strings), so [`replay`] can feed the recorded inputs
//!   back through a fresh balancer and reproduce the `w` trajectory
//!   **bit-exactly** — any divergence means the balancer is reading state
//!   the log does not capture.
//! * **Stage decomposition** — the offload span split into the seven
//!   [`OffloadStage`]s with per-stage histograms ([`StageProfiles`],
//!   merged like element histograms) and a [`DriftDetector`] comparing
//!   the cost model's per-stage predictions against measurements; when
//!   the EWMA of the relative error crosses the threshold it names the
//!   stage with the largest accumulated excess so a flight dump can point
//!   at the model term that drifted.
//! * **SLO budget tracker** — declarative latency/throughput budgets
//!   ([`SloConfig`]) burned down window-by-window ([`SloTracker`]); burn
//!   rate 1.0 means the error budget is consumed exactly at the end of
//!   the run, above 1.0 the budget is exhausted early.
//!
//! Everything here is off by default ([`AuditConfig::default`]) so runs
//! that do not opt in are bit-identical to runs before this module
//! existed.

use std::sync::atomic::{AtomicU64, Ordering};

use nba_sim::Time;

use crate::json::{self, bool_field, f64_bits_field, f64_to_bits_hex, str_field, u64_field, Value};
use crate::lb::AlbConfig;
use crate::stats::LatencyHistogram;
use crate::telemetry::{json_escape, json_f64};

// ---------------------------------------------------------------------------
// Decision audit
// ---------------------------------------------------------------------------

/// What kind of balancer state transition a [`DecisionRecord`] captures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionKind {
    /// First observation: the balancer anchored its observation window.
    Init,
    /// An interval elapsed; the throughput sample joined the window.
    Observe,
    /// Window full but the post-move cooldown swallowed the update.
    Hold,
    /// A hill-climb step: `w` moved by ±δ.
    Move,
    /// Quarantine walk-down while the device breaker is open.
    QuarantineStep,
    /// Latency-bound violation forced a step toward the CPU.
    ViolationStep,
    /// The circuit breaker reported the device unhealthy.
    HealthDown,
    /// The circuit breaker re-admitted the device.
    HealthUp,
}

impl DecisionKind {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionKind::Init => "init",
            DecisionKind::Observe => "observe",
            DecisionKind::Hold => "hold",
            DecisionKind::Move => "move",
            DecisionKind::QuarantineStep => "quarantine_step",
            DecisionKind::ViolationStep => "violation_step",
            DecisionKind::HealthDown => "health_down",
            DecisionKind::HealthUp => "health_up",
        }
    }

    fn parse(s: &str) -> Result<DecisionKind, String> {
        Ok(match s {
            "init" => DecisionKind::Init,
            "observe" => DecisionKind::Observe,
            "hold" => DecisionKind::Hold,
            "move" => DecisionKind::Move,
            "quarantine_step" => DecisionKind::QuarantineStep,
            "violation_step" => DecisionKind::ViolationStep,
            "health_down" => DecisionKind::HealthDown,
            "health_up" => DecisionKind::HealthUp,
            other => return Err(format!("unknown decision kind {other:?}")),
        })
    }
}

/// Device-side gauges published to the balancer so its records can say
/// *why* a move was justified, not just that it happened. Purely
/// observational: the balancer never branches on these values.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DecisionContext {
    /// Offload batches queued (pending aggregates + device backlog).
    pub queue_depth: u64,
    /// Device busy fraction in `[0, 1]` since the run started.
    pub gpu_busy: f64,
    /// Predicted CPU cost of the last flushed aggregate, ns per packet.
    pub predicted_cpu_ns_per_pkt: f64,
    /// Predicted device cost of the last flushed aggregate, ns per packet.
    pub predicted_gpu_ns_per_pkt: f64,
}

/// One balancer state transition: the full input vector and the resulting
/// `w` movement. Replay feeds `t`, `total_tx`, `latency_ewma_ns`, and the
/// health transitions back; everything else is explanation payload.
#[derive(Clone, Copy, Debug)]
pub struct DecisionRecord {
    /// Position in the stream (monotonic, including dropped records).
    pub seq: u64,
    /// Balancer-visible time of the update.
    pub t: Time,
    /// Transition kind.
    pub kind: DecisionKind,
    /// Total transmitted packets observed at the tick.
    pub total_tx: u64,
    /// Latency EWMA the balancer held when it updated (ns).
    pub latency_ewma_ns: u64,
    /// Device health the balancer believed at the time.
    pub healthy: bool,
    /// [`DecisionContext`] gauge: offload queue depth.
    pub queue_depth: u64,
    /// [`DecisionContext`] gauge: device busy fraction.
    pub gpu_busy: f64,
    /// [`DecisionContext`] gauge: predicted CPU ns/packet.
    pub predicted_cpu_ns_per_pkt: f64,
    /// [`DecisionContext`] gauge: predicted device ns/packet.
    pub predicted_gpu_ns_per_pkt: f64,
    /// Instantaneous throughput over the elapsed interval (pps; 0 when
    /// the transition did not sample throughput).
    pub thr_pps: f64,
    /// Window average that drove a move (0 when not applicable).
    pub avg_pps: f64,
    /// Previous window average compared against (0 when none).
    pub last_avg_pps: f64,
    /// Hill-climb direction after the transition.
    pub dir: f64,
    /// `w` before the transition.
    pub w_before: f64,
    /// `w` after the transition.
    pub w_after: f64,
}

impl DecisionRecord {
    /// Bit-exact equality: integers compared directly, floats via
    /// [`f64::to_bits`] so `-0.0 != 0.0` and NaNs compare by payload.
    pub fn bit_eq(&self, other: &DecisionRecord) -> bool {
        self.seq == other.seq
            && self.t == other.t
            && self.kind == other.kind
            && self.total_tx == other.total_tx
            && self.latency_ewma_ns == other.latency_ewma_ns
            && self.healthy == other.healthy
            && self.queue_depth == other.queue_depth
            && self.gpu_busy.to_bits() == other.gpu_busy.to_bits()
            && self.predicted_cpu_ns_per_pkt.to_bits() == other.predicted_cpu_ns_per_pkt.to_bits()
            && self.predicted_gpu_ns_per_pkt.to_bits() == other.predicted_gpu_ns_per_pkt.to_bits()
            && self.thr_pps.to_bits() == other.thr_pps.to_bits()
            && self.avg_pps.to_bits() == other.avg_pps.to_bits()
            && self.last_avg_pps.to_bits() == other.last_avg_pps.to_bits()
            && self.dir.to_bits() == other.dir.to_bits()
            && self.w_before.to_bits() == other.w_before.to_bits()
            && self.w_after.to_bits() == other.w_after.to_bits()
    }

    fn to_json_line(self) -> String {
        format!(
            "{{\"seq\":{},\"t_ps\":\"{}\",\"kind\":\"{}\",\"total_tx\":{},\
             \"latency_ewma_ns\":{},\"healthy\":{},\"queue_depth\":{},\
             \"gpu_busy\":\"{}\",\"pred_cpu\":\"{}\",\"pred_gpu\":\"{}\",\
             \"thr\":\"{}\",\"avg\":\"{}\",\"last_avg\":\"{}\",\"dir\":\"{}\",\
             \"w_before\":\"{}\",\"w_after\":\"{}\"}}",
            self.seq,
            self.t.as_ps(),
            self.kind.as_str(),
            self.total_tx,
            self.latency_ewma_ns,
            self.healthy,
            self.queue_depth,
            f64_to_bits_hex(self.gpu_busy),
            f64_to_bits_hex(self.predicted_cpu_ns_per_pkt),
            f64_to_bits_hex(self.predicted_gpu_ns_per_pkt),
            f64_to_bits_hex(self.thr_pps),
            f64_to_bits_hex(self.avg_pps),
            f64_to_bits_hex(self.last_avg_pps),
            f64_to_bits_hex(self.dir),
            f64_to_bits_hex(self.w_before),
            f64_to_bits_hex(self.w_after),
        )
    }

    fn from_json(v: &Value) -> Result<DecisionRecord, String> {
        Ok(DecisionRecord {
            seq: u64_field(v, "seq")?,
            t: Time::from_ps(u64_field(v, "t_ps")?),
            kind: DecisionKind::parse(str_field(v, "kind")?)?,
            total_tx: u64_field(v, "total_tx")?,
            latency_ewma_ns: u64_field(v, "latency_ewma_ns")?,
            healthy: bool_field(v, "healthy")?,
            queue_depth: u64_field(v, "queue_depth")?,
            gpu_busy: f64_bits_field(v, "gpu_busy")?,
            predicted_cpu_ns_per_pkt: f64_bits_field(v, "pred_cpu")?,
            predicted_gpu_ns_per_pkt: f64_bits_field(v, "pred_gpu")?,
            thr_pps: f64_bits_field(v, "thr")?,
            avg_pps: f64_bits_field(v, "avg")?,
            last_avg_pps: f64_bits_field(v, "last_avg")?,
            dir: f64_bits_field(v, "dir")?,
            w_before: f64_bits_field(v, "w_before")?,
            w_after: f64_bits_field(v, "w_after")?,
        })
    }
}

/// A logical decision clock: instead of wall/sim time, updates fire at
/// packet-count milestones (`pkts_per_update` transmitted packets each,
/// capped at `max_updates`). Because both runtimes transmit the same
/// packets under a bounded drain run, the resulting record stream is a
/// pure function of the packet set — the cross-runtime determinism the
/// decision-log conformance tests pin down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecisionClock {
    /// Packets per logical update interval.
    pub pkts_per_update: u64,
    /// Total updates to fire over the run (absorbs end-of-run raggedness).
    pub max_updates: u64,
    /// Updates fired so far.
    pub fired: u64,
}

impl DecisionClock {
    /// A clock firing every `pkts_per_update` packets, `max_updates` times.
    ///
    /// # Panics
    ///
    /// Panics if `pkts_per_update` is zero.
    pub fn new(pkts_per_update: u64, max_updates: u64) -> DecisionClock {
        assert!(pkts_per_update > 0, "pkts_per_update must be positive");
        DecisionClock {
            pkts_per_update,
            max_updates,
            fired: 0,
        }
    }
}

/// A bounded, replayable stream of [`DecisionRecord`]s plus the header
/// needed to reconstruct the balancer that produced it. Bounded by keeping
/// the **first** `capacity` records — replay needs a contiguous prefix, so
/// overflow drops the tail (counted in `dropped`), never the head.
#[derive(Clone, Debug)]
pub struct DecisionLog {
    /// Balancer name (`adaptive`, `latency-bounded`).
    pub balancer: String,
    /// The configuration the balancer ran with.
    pub cfg: AlbConfig,
    /// `w` at the moment auditing was enabled.
    pub initial_w: f64,
    /// Latency ceiling when the balancer was latency-bounded.
    pub bound_ns: Option<u64>,
    /// Logical decision clock `(pkts_per_update, max_updates)` if one
    /// replaced the time-based interval.
    pub clock: Option<(u64, u64)>,
    /// Record capacity (0 disables recording).
    pub capacity: usize,
    /// The recorded transitions, oldest first.
    pub records: Vec<DecisionRecord>,
    /// Records dropped after `capacity` was reached.
    pub dropped: u64,
}

/// The `schema` of a [`DecisionLog`]'s JSONL header.
const LOG_SCHEMA: &str = "nba-decision-log";

impl DecisionLog {
    /// An empty log for a balancer with the given header.
    pub fn new(balancer: &str, cfg: AlbConfig, initial_w: f64, capacity: usize) -> DecisionLog {
        DecisionLog {
            balancer: balancer.to_owned(),
            cfg,
            initial_w,
            bound_ns: None,
            clock: None,
            capacity,
            records: Vec::new(),
            dropped: 0,
        }
    }

    /// The sequence number the next pushed record will carry.
    pub fn next_seq(&self) -> u64 {
        self.records.len() as u64 + self.dropped
    }

    /// Appends a record, dropping it (but counting) past capacity.
    pub fn push(&mut self, rec: DecisionRecord) {
        if self.records.len() < self.capacity {
            self.records.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// Bit-exact stream equality (header fields ignored).
    pub fn bit_eq(&self, other: &DecisionLog) -> bool {
        self.records.len() == other.records.len()
            && self
                .records
                .iter()
                .zip(&other.records)
                .all(|(a, b)| a.bit_eq(b))
    }

    /// Serializes the log as JSONL: one header line (the record count
    /// included, so a truncated file is refused), one line per record.
    pub fn to_jsonl(&self) -> String {
        let header = format!(
            ",\"balancer\":\"{}\",\"capacity\":{},\
             \"dropped\":{},\"initial_w\":\"{}\",\"bound_ns\":{},\
             \"clock_pkts\":{},\"clock_max\":{},\"cfg\":{{\"delta\":\"{}\",\
             \"update_interval_ps\":\"{}\",\"avg_window\":{},\"min_wait\":{},\
             \"max_wait\":{},\"initial_w\":\"{}\"}}",
            json_escape(&self.balancer),
            self.capacity,
            self.dropped,
            f64_to_bits_hex(self.initial_w),
            self.bound_ns.map_or("null".to_owned(), |b| b.to_string()),
            self.clock.map_or("null".to_owned(), |c| c.0.to_string()),
            self.clock.map_or("null".to_owned(), |c| c.1.to_string()),
            f64_to_bits_hex(self.cfg.delta),
            self.cfg.update_interval.as_ps(),
            self.cfg.avg_window,
            self.cfg.min_wait,
            self.cfg.max_wait,
            f64_to_bits_hex(self.cfg.initial_w),
        );
        json::write_log(LOG_SCHEMA, "records", &header, &self.records, |r| {
            r.to_json_line()
        })
    }

    /// Parses [`DecisionLog::to_jsonl`] output.
    pub fn from_jsonl(s: &str) -> Result<DecisionLog, String> {
        let (h, records) = json::read_log(s, LOG_SCHEMA, "records", DecisionRecord::from_json)?;
        let cfg_v = h.get("cfg").ok_or("missing cfg")?;
        let cfg = AlbConfig {
            delta: f64_bits_field(cfg_v, "delta")?,
            update_interval: Time::from_ps(u64_field(cfg_v, "update_interval_ps")?),
            avg_window: u64_field(cfg_v, "avg_window")? as u32,
            min_wait: u64_field(cfg_v, "min_wait")? as u32,
            max_wait: u64_field(cfg_v, "max_wait")? as u32,
            initial_w: f64_bits_field(cfg_v, "initial_w")?,
        };
        let clock = match (u64_field(&h, "clock_pkts"), u64_field(&h, "clock_max")) {
            (Ok(p), Ok(m)) => Some((p, m)),
            _ => None,
        };
        Ok(DecisionLog {
            balancer: str_field(&h, "balancer")?.to_owned(),
            cfg,
            initial_w: f64_bits_field(&h, "initial_w")?,
            bound_ns: u64_field(&h, "bound_ns").ok(),
            clock,
            capacity: u64_field(&h, "capacity")? as usize,
            records,
            dropped: u64_field(&h, "dropped")?,
        })
    }

    /// Renders the log as a human-readable timeline, one line per record:
    /// what moved, and the observation that justified it.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "decision log: balancer={} records={} dropped={}",
            self.balancer,
            self.records.len(),
            self.dropped
        ));
        if let Some((pkts, max)) = self.clock {
            out.push_str(&format!(" clock={pkts}pkts x{max}"));
        }
        if let Some(bound) = self.bound_ns {
            out.push_str(&format!(" latency_bound={}", fmt_ns(bound as f64)));
        }
        out.push('\n');
        for r in &self.records {
            out.push_str(&explain_record(r));
            out.push('\n');
        }
        out
    }
}

fn fmt_mpps(pps: f64) -> String {
    format!("{:.3} Mpps", pps / 1e6)
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn explain_record(r: &DecisionRecord) -> String {
    let t = format!("t={:.4}s", r.t.as_secs_f64());
    let ctx = if r.predicted_cpu_ns_per_pkt > 0.0 || r.predicted_gpu_ns_per_pkt > 0.0 {
        let (cheaper, by) = if r.predicted_gpu_ns_per_pkt <= r.predicted_cpu_ns_per_pkt {
            (
                "gpu",
                r.predicted_cpu_ns_per_pkt - r.predicted_gpu_ns_per_pkt,
            )
        } else {
            (
                "cpu",
                r.predicted_gpu_ns_per_pkt - r.predicted_cpu_ns_per_pkt,
            )
        };
        format!(
            "; gpu_busy={:.0}% queue={} predicted {} cheaper by {}/pkt",
            r.gpu_busy * 100.0,
            r.queue_depth,
            cheaper,
            fmt_ns(by),
        )
    } else {
        String::new()
    };
    match r.kind {
        DecisionKind::Init => format!(
            "{t}: init at w={:.3} — first observation anchored (tx={})",
            r.w_after, r.total_tx
        ),
        DecisionKind::Observe => format!(
            "{t}: observe thr {} (window filling, w={:.3}){ctx}",
            fmt_mpps(r.thr_pps),
            r.w_after
        ),
        DecisionKind::Hold => format!(
            "{t}: hold at w={:.3} — avg {} inside post-move cooldown{ctx}",
            r.w_after,
            fmt_mpps(r.avg_pps)
        ),
        DecisionKind::Move => {
            let why = if r.last_avg_pps == 0.0 {
                format!("first window avg {}", fmt_mpps(r.avg_pps))
            } else if r.avg_pps < r.last_avg_pps {
                format!(
                    "avg {} < last {} — direction flipped",
                    fmt_mpps(r.avg_pps),
                    fmt_mpps(r.last_avg_pps)
                )
            } else {
                format!(
                    "avg {} >= last {} — kept direction",
                    fmt_mpps(r.avg_pps),
                    fmt_mpps(r.last_avg_pps)
                )
            };
            format!(
                "{t}: w {:.3}->{:.3} because {} (dir {}, latency {}){ctx}",
                r.w_before,
                r.w_after,
                why,
                if r.dir > 0.0 { "+" } else { "-" },
                fmt_ns(r.latency_ewma_ns as f64),
            )
        }
        DecisionKind::QuarantineStep => format!(
            "{t}: quarantine walk-down w {:.3}->{:.3} (device unhealthy)",
            r.w_before, r.w_after
        ),
        DecisionKind::ViolationStep => format!(
            "{t}: latency {} over bound — forced step w {:.3}->{:.3}",
            fmt_ns(r.latency_ewma_ns as f64),
            r.w_before,
            r.w_after
        ),
        DecisionKind::HealthDown => format!("{t}: device breaker OPEN — quarantine begins"),
        DecisionKind::HealthUp => format!("{t}: device breaker re-admitted the device"),
    }
}

/// Replays a decision log through a freshly constructed balancer and
/// returns the log the replayed balancer produced. Bit-exact replay means
/// `log.bit_eq(&replay(log)?)`.
pub fn replay(log: &DecisionLog) -> Result<DecisionLog, String> {
    use crate::lb::{Adaptive, LatencyBounded, LoadBalancer};
    let cfg = AlbConfig {
        initial_w: log.initial_w,
        ..log.cfg.clone()
    };
    let mut lb: Box<dyn LoadBalancer> = match log.bound_ns {
        Some(bound) => Box::new(LatencyBounded::new(
            Adaptive::new(cfg),
            Time::from_ns(bound),
        )),
        None => Box::new(Adaptive::new(cfg)),
    };
    lb.enable_audit(log.records.len().max(1));
    for rec in &log.records {
        match rec.kind {
            // A health edge is injected asynchronously (the device breaker
            // or the worker supervisor), so the observation fields it
            // snapshots did not come from a prior recorded tick — restore
            // them from the record itself before replaying the edge.
            DecisionKind::HealthDown | DecisionKind::HealthUp => {
                lb.set_decision_context(DecisionContext {
                    queue_depth: rec.queue_depth,
                    gpu_busy: rec.gpu_busy,
                    predicted_cpu_ns_per_pkt: rec.predicted_cpu_ns_per_pkt,
                    predicted_gpu_ns_per_pkt: rec.predicted_gpu_ns_per_pkt,
                });
                lb.observe_latency(rec.latency_ewma_ns);
                lb.observe_device_health(rec.kind == DecisionKind::HealthUp);
            }
            _ => {
                lb.set_decision_context(DecisionContext {
                    queue_depth: rec.queue_depth,
                    gpu_busy: rec.gpu_busy,
                    predicted_cpu_ns_per_pkt: rec.predicted_cpu_ns_per_pkt,
                    predicted_gpu_ns_per_pkt: rec.predicted_gpu_ns_per_pkt,
                });
                lb.observe_latency(rec.latency_ewma_ns);
                lb.tick(rec.t, rec.total_tx);
            }
        }
    }
    lb.take_audit_log()
        .ok_or_else(|| "balancer does not support audit".to_owned())
}

// ---------------------------------------------------------------------------
// Offload stage decomposition
// ---------------------------------------------------------------------------

/// The seven sub-stages of one offloaded aggregate, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OffloadStage {
    /// Batch sat in the device command queue before its aggregate flushed.
    EnqueueWait,
    /// Datablock gather (preprocessing) into the contiguous input buffer.
    Gather,
    /// Host-to-device copy.
    CopyIn,
    /// Submission overhead: admission, retry backoff, watchdog waits.
    Launch,
    /// Kernel execution.
    Compute,
    /// Device-to-host copy.
    CopyOut,
    /// Datablock scatter (postprocessing) back into the batches.
    Scatter,
}

impl OffloadStage {
    /// All stages in pipeline order (index = array position).
    pub const ALL: [OffloadStage; 7] = [
        OffloadStage::EnqueueWait,
        OffloadStage::Gather,
        OffloadStage::CopyIn,
        OffloadStage::Launch,
        OffloadStage::Compute,
        OffloadStage::CopyOut,
        OffloadStage::Scatter,
    ];

    /// Stable wire/metric name.
    pub fn as_str(self) -> &'static str {
        match self {
            OffloadStage::EnqueueWait => "enqueue_wait",
            OffloadStage::Gather => "gather",
            OffloadStage::CopyIn => "copy_in",
            OffloadStage::Launch => "launch",
            OffloadStage::Compute => "compute",
            OffloadStage::CopyOut => "copy_out",
            OffloadStage::Scatter => "scatter",
        }
    }

    /// Index into per-stage arrays.
    pub fn index(self) -> usize {
        OffloadStage::ALL.iter().position(|s| *s == self).unwrap()
    }
}

/// Per-stage latency histograms plus exact totals, merged across shards
/// exactly like per-element histograms.
#[derive(Clone, Debug)]
pub struct StageProfiles {
    /// One histogram per [`OffloadStage::ALL`] entry.
    pub hist: [LatencyHistogram; 7],
    /// Exact per-stage nanosecond totals (histograms bucket-quantize).
    pub total_ns: [u64; 7],
    /// Offload tasks observed (aggregates, not batches).
    pub tasks: u64,
}

impl Default for StageProfiles {
    fn default() -> Self {
        StageProfiles::new()
    }
}

impl StageProfiles {
    /// Empty profiles.
    pub fn new() -> StageProfiles {
        StageProfiles {
            hist: std::array::from_fn(|_| LatencyHistogram::new()),
            total_ns: [0; 7],
            tasks: 0,
        }
    }

    /// Records one stage sample.
    pub fn record(&mut self, stage: OffloadStage, ns: u64) {
        let i = stage.index();
        self.hist[i].record_ns(ns);
        self.total_ns[i] = self.total_ns[i].saturating_add(ns);
    }

    /// Merges another shard's profiles into this one.
    pub fn merge(&mut self, other: &StageProfiles) {
        for i in 0..7 {
            self.hist[i].merge(&other.hist[i]);
            self.total_ns[i] = self.total_ns[i].saturating_add(other.total_ns[i]);
        }
        self.tasks += other.tasks;
    }

    /// Mean nanoseconds per sample for one stage (0 when unsampled).
    pub fn mean_ns(&self, stage: OffloadStage) -> f64 {
        let i = stage.index();
        let n = self.hist[i].count();
        if n == 0 {
            0.0
        } else {
            self.total_ns[i] as f64 / n as f64
        }
    }

    /// True when no stage recorded anything.
    pub fn is_empty(&self) -> bool {
        self.hist.iter().all(|h| h.count() == 0)
    }
}

// ---------------------------------------------------------------------------
// Cost-model drift detection
// ---------------------------------------------------------------------------

/// Drift detector tuning.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftConfig {
    /// Relative-error EWMA level that raises the drift event. The default
    /// leaves headroom for engine queueing (measured stage times include
    /// copy/kernel engine contention the per-task prediction does not).
    pub threshold: f64,
    /// Tasks to observe before the detector may fire (EWMA warm-up).
    pub min_tasks: u64,
    /// EWMA smoothing factor for the relative error.
    pub alpha: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            threshold: 0.5,
            min_tasks: 16,
            alpha: 0.2,
        }
    }
}

/// Compares the cost model's per-stage predictions against measured stage
/// times, task by task, and fires once when the smoothed relative error
/// crosses the threshold — naming the stage that accumulated the most
/// unpredicted time.
#[derive(Clone, Debug)]
pub struct DriftDetector {
    cfg: DriftConfig,
    tasks: u64,
    ewma: f64,
    /// Cumulative positive excess (measured − predicted) per stage, ns.
    excess_ns: [f64; 7],
    fired: bool,
    events: u64,
}

impl DriftDetector {
    /// A fresh detector.
    pub fn new(cfg: DriftConfig) -> DriftDetector {
        DriftDetector {
            cfg,
            tasks: 0,
            ewma: 0.0,
            excess_ns: [0.0; 7],
            fired: false,
            events: 0,
        }
    }

    /// Feeds one task's measured and predicted per-stage times (ns,
    /// indexed by [`OffloadStage::ALL`]). `EnqueueWait` is excluded from
    /// the error — queueing is load, not model error. Returns the named
    /// offending stage the first time the threshold is crossed.
    pub fn observe(
        &mut self,
        measured_ns: &[u64; 7],
        predicted_ns: &[u64; 7],
    ) -> Option<OffloadStage> {
        let skip = OffloadStage::EnqueueWait.index();
        let mut m_sum = 0u64;
        let mut p_sum = 0u64;
        for i in 0..7 {
            if i == skip {
                continue;
            }
            m_sum += measured_ns[i];
            p_sum += predicted_ns[i];
            let excess = measured_ns[i].saturating_sub(predicted_ns[i]);
            self.excess_ns[i] += excess as f64;
        }
        if p_sum == 0 {
            return None;
        }
        self.tasks += 1;
        let rel = (m_sum as f64 - p_sum as f64).abs() / p_sum as f64;
        self.ewma = if self.tasks == 1 {
            rel
        } else {
            self.cfg.alpha * rel + (1.0 - self.cfg.alpha) * self.ewma
        };
        if !self.fired && self.tasks >= self.cfg.min_tasks && self.ewma > self.cfg.threshold {
            self.fired = true;
            self.events += 1;
            return Some(self.worst_stage().map_or(OffloadStage::Compute, |(s, _)| s));
        }
        None
    }

    /// Current smoothed relative error.
    pub fn rel_err(&self) -> f64 {
        self.ewma
    }

    /// Tasks observed.
    pub fn tasks(&self) -> u64 {
        self.tasks
    }

    /// Drift events raised.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The stage with the largest accumulated unpredicted time.
    pub fn worst_stage(&self) -> Option<(OffloadStage, f64)> {
        let (mut best, mut best_ns) = (None, 0.0f64);
        for (i, &ns) in self.excess_ns.iter().enumerate() {
            if ns > best_ns {
                best_ns = ns;
                best = Some(OffloadStage::ALL[i]);
            }
        }
        best.map(|s| (s, best_ns))
    }

    /// Summarizes the detector for reports.
    pub fn report(&self) -> DriftReport {
        DriftReport {
            tasks: self.tasks,
            rel_err: self.ewma,
            events: self.events,
            worst_stage: self.worst_stage().map(|(s, _)| s.as_str().to_owned()),
            worst_excess_ns: self.worst_stage().map_or(0.0, |(_, ns)| ns),
        }
    }
}

/// Drift summary carried on run reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DriftReport {
    /// Tasks the detector scored.
    pub tasks: u64,
    /// Final smoothed relative error.
    pub rel_err: f64,
    /// Drift events raised (0 or 1 per run: the detector latches).
    pub events: u64,
    /// Stage with the largest accumulated excess, if any.
    pub worst_stage: Option<String>,
    /// That stage's accumulated unpredicted nanoseconds.
    pub worst_excess_ns: f64,
}

/// Lock-free drift gauges for the live stats endpoint: the device thread
/// publishes, `/status` and `/metrics` read.
#[derive(Debug, Default)]
pub struct DriftGauge {
    /// Drift events raised so far.
    pub events: AtomicU64,
    /// Bit pattern of the latest smoothed relative error.
    pub rel_err_bits: AtomicU64,
    /// `OffloadStage` index + 1 of the worst stage (0 = none yet).
    pub stage_plus_one: AtomicU64,
}

impl DriftGauge {
    /// Publishes the detector's current state.
    pub fn publish(&self, det: &DriftDetector) {
        self.events.store(det.events(), Ordering::Relaxed);
        self.rel_err_bits
            .store(det.rel_err().to_bits(), Ordering::Relaxed);
        if let Some((s, _)) = det.worst_stage() {
            self.stage_plus_one
                .store(s.index() as u64 + 1, Ordering::Relaxed);
        }
    }

    /// Reads `(events, rel_err, worst_stage)`.
    pub fn snapshot(&self) -> (u64, f64, Option<OffloadStage>) {
        let events = self.events.load(Ordering::Relaxed);
        let rel = f64::from_bits(self.rel_err_bits.load(Ordering::Relaxed));
        let stage = match self.stage_plus_one.load(Ordering::Relaxed) {
            0 => None,
            i => Some(OffloadStage::ALL[(i - 1) as usize % 7]),
        };
        (events, rel, stage)
    }
}

// ---------------------------------------------------------------------------
// SLO budget tracking
// ---------------------------------------------------------------------------

/// Declarative per-run service-level objectives.
#[derive(Clone, Debug, PartialEq)]
pub struct SloConfig {
    /// Latency budget in nanoseconds (per sample window the latency EWMA
    /// is checked; the final report checks the histogram p99).
    pub latency_ns: Option<u64>,
    /// Throughput floor in millions of packets per second.
    pub min_mpps: Option<f64>,
    /// Fraction of sample windows allowed to violate before the budget
    /// is burned (burn rate 1.0 = budget exactly consumed).
    pub error_budget: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            latency_ns: None,
            min_mpps: None,
            error_budget: 0.05,
        }
    }
}

impl SloConfig {
    /// Parses `p99=500us,mpps=1.5,budget=0.05` (any subset, any order;
    /// latency units: `ns`, `us`, `ms`, `s`).
    pub fn parse(s: &str) -> Result<SloConfig, String> {
        let mut cfg = SloConfig::default();
        for part in s.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            match key.trim() {
                "p99" | "latency" => cfg.latency_ns = Some(parse_duration_ns(val.trim())?),
                "mpps" => {
                    cfg.min_mpps = Some(
                        val.trim()
                            .parse()
                            .map_err(|e| format!("bad mpps {val:?}: {e}"))?,
                    );
                }
                "budget" => {
                    let b: f64 = val
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad budget {val:?}: {e}"))?;
                    if !(b > 0.0 && b <= 1.0) {
                        return Err(format!("budget must be in (0, 1], got {b}"));
                    }
                    cfg.error_budget = b;
                }
                other => return Err(format!("unknown SLO key {other:?}")),
            }
        }
        if cfg.latency_ns.is_none() && cfg.min_mpps.is_none() {
            return Err("SLO needs at least one of p99=<dur> or mpps=<rate>".to_owned());
        }
        Ok(cfg)
    }
}

fn parse_duration_ns(s: &str) -> Result<u64, String> {
    let (num, mult) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1e6)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1e9)
    } else {
        (s, 1.0)
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|e| format!("bad duration {s:?}: {e}"))?;
    Ok((v * mult) as u64)
}

/// One sample window's SLO verdict, carried on
/// [`crate::telemetry::TimeSample`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloSample {
    /// Latency under budget this window (true when no latency SLO).
    pub latency_ok: bool,
    /// Throughput at or above the floor (true when no throughput SLO).
    pub throughput_ok: bool,
    /// Latency burn rate so far: violating-window fraction ÷ error budget.
    pub latency_burn: f64,
    /// Throughput burn rate so far.
    pub throughput_burn: f64,
}

/// Window-by-window SLO budget accounting.
#[derive(Clone, Debug)]
pub struct SloTracker {
    cfg: SloConfig,
    windows: u64,
    latency_violations: u64,
    throughput_violations: u64,
}

impl SloTracker {
    /// A tracker for the given objectives.
    pub fn new(cfg: SloConfig) -> SloTracker {
        SloTracker {
            cfg,
            windows: 0,
            latency_violations: 0,
            throughput_violations: 0,
        }
    }

    fn burn(&self, violations: u64) -> f64 {
        if self.windows == 0 {
            return 0.0;
        }
        (violations as f64 / self.windows as f64) / self.cfg.error_budget
    }

    /// Scores one sample window and returns its verdict.
    pub fn observe(&mut self, latency_ns: u64, mpps: f64) -> SloSample {
        self.windows += 1;
        let latency_ok = self.cfg.latency_ns.is_none_or(|b| latency_ns <= b);
        let throughput_ok = self.cfg.min_mpps.is_none_or(|floor| mpps >= floor);
        if !latency_ok {
            self.latency_violations += 1;
        }
        if !throughput_ok {
            self.throughput_violations += 1;
        }
        SloSample {
            latency_ok,
            throughput_ok,
            latency_burn: self.burn(self.latency_violations),
            throughput_burn: self.burn(self.throughput_violations),
        }
    }

    /// Final accounting: window burn rates plus the end-of-run check
    /// against the whole-run p99 and mean throughput.
    pub fn report(&self, final_p99_ns: u64, final_mpps: f64) -> SloReport {
        let latency_burn = self.burn(self.latency_violations);
        let throughput_burn = self.burn(self.throughput_violations);
        let final_latency_ok = self.cfg.latency_ns.is_none_or(|b| final_p99_ns <= b);
        let final_throughput_ok = self.cfg.min_mpps.is_none_or(|f| final_mpps >= f);
        SloReport {
            cfg: self.cfg.clone(),
            windows: self.windows,
            latency_violations: self.latency_violations,
            throughput_violations: self.throughput_violations,
            latency_burn,
            throughput_burn,
            final_p99_ns,
            final_mpps,
            met: latency_burn <= 1.0
                && throughput_burn <= 1.0
                && final_latency_ok
                && final_throughput_ok,
        }
    }
}

/// End-of-run SLO verdict carried on run reports.
#[derive(Clone, Debug, PartialEq)]
pub struct SloReport {
    /// The objectives that were tracked.
    pub cfg: SloConfig,
    /// Sample windows scored.
    pub windows: u64,
    /// Windows that violated the latency budget.
    pub latency_violations: u64,
    /// Windows that violated the throughput floor.
    pub throughput_violations: u64,
    /// Latency burn rate over the run.
    pub latency_burn: f64,
    /// Throughput burn rate over the run.
    pub throughput_burn: f64,
    /// Whole-run p99 latency (ns).
    pub final_p99_ns: u64,
    /// Whole-run mean throughput (Mpps).
    pub final_mpps: f64,
    /// Every budget held: burns ≤ 1 and the final aggregates in bounds.
    pub met: bool,
}

impl SloReport {
    /// JSON object for `/status` and report embedding.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"windows\":{},\"latency_violations\":{},\"throughput_violations\":{},\
             \"latency_burn\":{},\"throughput_burn\":{},\"final_p99_ns\":{},\
             \"final_mpps\":{},\"met\":{}}}",
            self.windows,
            self.latency_violations,
            self.throughput_violations,
            json_f64(self.latency_burn),
            json_f64(self.throughput_burn),
            self.final_p99_ns,
            json_f64(self.final_mpps),
            self.met,
        )
    }
}

// ---------------------------------------------------------------------------
// Run-level configuration
// ---------------------------------------------------------------------------

/// Opt-in switches for the audit plane. Everything defaults to off so
/// un-audited runs stay bit-identical to the pre-audit runtime.
#[derive(Clone, Debug, Default)]
pub struct AuditConfig {
    /// Decision records to keep (0 disables the decision log).
    pub decision_capacity: usize,
    /// Record per-stage offload histograms.
    pub stage_stats: bool,
    /// Run the cost-model drift detector.
    pub drift: Option<DriftConfig>,
}

impl AuditConfig {
    /// True when any piece of the plane is on.
    pub fn enabled(&self) -> bool {
        self.decision_capacity > 0 || self.stage_stats || self.drift.is_some()
    }

    /// Everything on: decision log of `capacity`, stage stats, drift
    /// detection at defaults.
    pub fn full(capacity: usize) -> AuditConfig {
        AuditConfig {
            decision_capacity: capacity,
            stage_stats: true,
            drift: Some(DriftConfig::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lb::{Adaptive, LoadBalancer};

    fn drive(lb: &mut dyn LoadBalancer, ticks: u64) {
        let mut tx = 0u64;
        for i in 1..=ticks {
            let t = Time::from_ms(10 * i);
            let w = lb.offload_fraction();
            tx += (1e6 * (1.0 - (w - 0.6) * (w - 0.6)) * 0.01) as u64;
            lb.observe_latency(40_000 + i * 13);
            lb.set_decision_context(DecisionContext {
                queue_depth: i % 7,
                gpu_busy: (i % 10) as f64 / 10.0,
                predicted_cpu_ns_per_pkt: 600.0,
                predicted_gpu_ns_per_pkt: 300.0 + i as f64,
            });
            lb.tick(t, tx);
            if i == 40 {
                lb.observe_device_health(false);
            }
            if i == 60 {
                lb.observe_device_health(true);
            }
        }
    }

    fn audited_run() -> DecisionLog {
        let cfg = AlbConfig {
            update_interval: Time::from_ms(10),
            avg_window: 2,
            min_wait: 0,
            max_wait: 2,
            initial_w: 0.3,
            ..AlbConfig::default()
        };
        let mut lb = Adaptive::new(cfg);
        lb.enable_audit(4096);
        drive(&mut lb, 200);
        lb.take_audit_log().expect("audit enabled")
    }

    #[test]
    fn replay_reproduces_w_bit_exactly() {
        let log = audited_run();
        assert!(
            log.records.len() > 20,
            "run too short: {}",
            log.records.len()
        );
        assert!(log
            .records
            .iter()
            .any(|r| r.kind == DecisionKind::Move && r.w_before != r.w_after));
        assert!(log
            .records
            .iter()
            .any(|r| r.kind == DecisionKind::HealthDown));
        let replayed = replay(&log).expect("replay");
        assert!(
            log.bit_eq(&replayed),
            "replay diverged:\n{:#?}\nvs\n{:#?}",
            log.records
                .iter()
                .zip(&replayed.records)
                .find(|(a, b)| !a.bit_eq(b)),
            log.records.len() as i64 - replayed.records.len() as i64,
        );
    }

    #[test]
    fn jsonl_round_trip_is_bit_exact() {
        let log = audited_run();
        let text = log.to_jsonl();
        let parsed = DecisionLog::from_jsonl(&text).expect("parse");
        assert_eq!(parsed.balancer, log.balancer);
        assert_eq!(parsed.records.len(), log.records.len());
        assert!(log.bit_eq(&parsed), "JSONL round trip lost bits");
        let replayed = replay(&parsed).expect("replay parsed");
        assert!(parsed.bit_eq(&replayed));
    }

    #[test]
    fn latency_bounded_replay_is_bit_exact() {
        use crate::lb::LatencyBounded;
        let cfg = AlbConfig {
            update_interval: Time::from_ms(10),
            avg_window: 2,
            min_wait: 0,
            max_wait: 2,
            initial_w: 0.8,
            ..AlbConfig::default()
        };
        let mut lb = LatencyBounded::new(Adaptive::new(cfg), Time::from_us(100));
        lb.enable_audit(4096);
        let mut tx = 0u64;
        for i in 1..=120u64 {
            tx += 9_000;
            // Over the bound for a stretch, then back under.
            let lat = if (30..70).contains(&i) {
                900_000
            } else {
                40_000
            };
            lb.observe_latency(lat);
            lb.tick(Time::from_ms(10 * i), tx);
        }
        let log = lb.take_audit_log().expect("audit");
        assert!(log
            .records
            .iter()
            .any(|r| r.kind == DecisionKind::ViolationStep));
        assert_eq!(log.bound_ns, Some(100_000));
        let replayed = replay(&log).expect("replay");
        assert!(log.bit_eq(&replayed), "latency-bounded replay diverged");
    }

    #[test]
    fn log_keeps_prefix_and_counts_drops() {
        let mut log = DecisionLog::new("adaptive", AlbConfig::default(), 0.5, 2);
        for i in 0..5 {
            let seq = log.next_seq();
            assert_eq!(seq, i);
            log.push(DecisionRecord {
                seq,
                t: Time::from_ms(i),
                kind: DecisionKind::Observe,
                total_tx: i,
                latency_ewma_ns: 0,
                healthy: true,
                queue_depth: 0,
                gpu_busy: 0.0,
                predicted_cpu_ns_per_pkt: 0.0,
                predicted_gpu_ns_per_pkt: 0.0,
                thr_pps: 0.0,
                avg_pps: 0.0,
                last_avg_pps: 0.0,
                dir: 1.0,
                w_before: 0.5,
                w_after: 0.5,
            });
        }
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.dropped, 3);
        assert_eq!(log.records[0].seq, 0);
        assert_eq!(log.records[1].seq, 1);
    }

    #[test]
    fn decision_clock_quantizes_ticks() {
        let cfg = AlbConfig {
            avg_window: 2,
            min_wait: 0,
            max_wait: 2,
            initial_w: 0.5,
            ..AlbConfig::default()
        };
        let mk = || {
            let mut lb = Adaptive::new(cfg.clone());
            lb.enable_audit(1024);
            lb.set_decision_clock(DecisionClock::new(1_000, 6));
            lb
        };
        // Two runs seeing the same packet totals at completely different
        // wall times and tick cadences must produce identical streams.
        let mut a = mk();
        for i in 1..=50u64 {
            a.observe_latency(i * 777); // ignored in clock mode
            a.tick(Time::from_us(i * 37), i * 160);
        }
        let mut b = mk();
        for i in 1..=8u64 {
            b.tick(Time::from_ms(i * 91), i * 1_000);
        }
        let la = a.take_audit_log().unwrap();
        let lb_ = b.take_audit_log().unwrap();
        assert!(la.records.len() >= 6);
        assert!(la.bit_eq(&lb_), "clocked streams diverged");
        assert_eq!(la.clock, Some((1_000, 6)));
        // And the clocked stream replays bit-exactly through a clockless
        // balancer fed the recorded quantized inputs.
        let replayed = replay(&la).expect("replay clocked log");
        assert!(la.bit_eq(&replayed));
    }

    #[test]
    fn explain_renders_moves() {
        let log = audited_run();
        let text = log.explain();
        assert!(text.contains("w 0."), "no move line:\n{text}");
        assert!(text.contains("because"), "no justification:\n{text}");
        assert!(
            text.contains("quarantine") || text.contains("OPEN"),
            "{text}"
        );
    }

    #[test]
    fn stage_profiles_merge_like_histograms() {
        let mut a = StageProfiles::new();
        let mut b = StageProfiles::new();
        a.record(OffloadStage::Compute, 10_000);
        a.tasks = 1;
        b.record(OffloadStage::Compute, 30_000);
        b.record(OffloadStage::Gather, 2_000);
        b.tasks = 1;
        a.merge(&b);
        assert_eq!(a.tasks, 2);
        assert_eq!(a.hist[OffloadStage::Compute.index()].count(), 2);
        assert_eq!(a.total_ns[OffloadStage::Compute.index()], 40_000);
        assert!((a.mean_ns(OffloadStage::Compute) - 20_000.0).abs() < 1e-9);
        assert!(!a.is_empty());
        assert!(StageProfiles::new().is_empty());
    }

    #[test]
    fn drift_detector_fires_on_launch_excess_and_names_the_stage() {
        let mut det = DriftDetector::new(DriftConfig {
            threshold: 0.5,
            min_tasks: 4,
            alpha: 0.5,
        });
        let li = OffloadStage::Launch.index();
        let ci = OffloadStage::Compute.index();
        let mut predicted = [0u64; 7];
        predicted[ci] = 100_000;
        // Clean tasks: no event.
        let mut clean = predicted;
        clean[ci] = 110_000; // 10% queueing noise
        for _ in 0..8 {
            assert_eq!(det.observe(&clean, &predicted), None);
        }
        assert!(det.rel_err() < 0.2);
        // Perturbed tasks: retry backoff lands in Launch.
        let mut hot = predicted;
        hot[li] = 400_000;
        let mut fired = None;
        for _ in 0..16 {
            if let Some(stage) = det.observe(&hot, &predicted) {
                fired = Some(stage);
                break;
            }
        }
        assert_eq!(fired, Some(OffloadStage::Launch));
        assert_eq!(det.events(), 1);
        // Latched: keeps accounting but never re-fires.
        assert_eq!(det.observe(&hot, &predicted), None);
        let rep = det.report();
        assert_eq!(rep.worst_stage.as_deref(), Some("launch"));
        assert!(rep.rel_err > 0.5);
    }

    #[test]
    fn slo_parse_and_burn_accounting() {
        let cfg = SloConfig::parse("p99=500us,mpps=1.5,budget=0.1").unwrap();
        assert_eq!(cfg.latency_ns, Some(500_000));
        assert_eq!(cfg.min_mpps, Some(1.5));
        assert!((cfg.error_budget - 0.1).abs() < 1e-12);
        assert!(SloConfig::parse("").is_err());
        assert!(SloConfig::parse("p99=abc").is_err());
        assert!(SloConfig::parse("nope=1").is_err());
        assert_eq!(
            SloConfig::parse("latency=2ms").unwrap().latency_ns,
            Some(2_000_000)
        );

        let mut tr = SloTracker::new(cfg);
        // 10 windows, 2 latency violations, 0 throughput violations.
        for i in 0..10u64 {
            let lat = if i < 2 { 900_000 } else { 100_000 };
            let s = tr.observe(lat, 2.0);
            assert_eq!(s.latency_ok, i >= 2);
            assert!(s.throughput_ok);
        }
        let rep = tr.report(400_000, 2.0);
        assert_eq!(rep.windows, 10);
        assert_eq!(rep.latency_violations, 2);
        // 2/10 violating ÷ 0.1 budget = burn 2.0 — budget blown.
        assert!((rep.latency_burn - 2.0).abs() < 1e-9);
        assert!((rep.throughput_burn - 0.0).abs() < 1e-12);
        assert!(!rep.met);
        // A clean tracker meets the SLO.
        let mut ok = SloTracker::new(SloConfig::parse("p99=1ms,mpps=1").unwrap());
        for _ in 0..10 {
            ok.observe(100_000, 2.0);
        }
        assert!(ok.report(500_000, 2.0).met);
        let js = ok.report(500_000, 2.0).to_json();
        assert!(js.contains("\"met\":true"), "{js}");
    }
}
