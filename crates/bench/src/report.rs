//! Versioned benchmark artifacts (`BENCH_<app>.json`) and the regression
//! gate.
//!
//! A [`BenchReport`] captures one app run as a machine-readable record:
//! provenance (git SHA, rustc version, config digest), headline throughput
//! (Gbps/Mpps), end-to-end latency percentiles, per-element attribution,
//! and balancer convergence (final `w`, settle time, the whole `w`
//! trajectory). Reports serialize to JSON with our own writer and parse
//! back with [`nba_core::json`], so the artifact pipeline stays
//! dependency-free.
//!
//! [`compare`] diffs two reports under per-metric [`Tolerances`]. The gate
//! is one-sided — improvements never fail — and deliberately generous by
//! default: the DES runtime is deterministic, so only real cliffs should
//! trip CI, not noise.
//!
//! All latency fields are nanoseconds with the `_ns` suffix (see
//! DESIGN.md, "Units").

use nba_core::json::{self, bool_field, f64_field, str_field, u64_field, Value};
use nba_core::runtime::{RunReport, RuntimeConfig};
use nba_core::stats::LatencyHistogram;
use nba_core::telemetry::{json_escape, json_f64, TimeSample};

use crate::table::Table;

/// Version of the `BENCH_*.json` schema this code writes. Version 2 added
/// the `faults` section; version 3 added the optional `scaling` section
/// (throughput-vs-workers series); version 4 added the optional audit
/// sections (`offload_stages`, `drift`, `slo`); version 5 added the
/// optional `flows` section (stateful flow-table accounting).
/// [`BenchReport::parse`] reads exactly this version: every checked-in
/// baseline is blessed at it.
pub const SCHEMA_VERSION: u64 = 5;

/// End-to-end latency percentile summary, nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Mean.
    pub mean_ns: u64,
    /// Maximum observed.
    pub max_ns: u64,
    /// Sample count.
    pub count: u64,
}

impl LatencySummary {
    /// Summarizes a recorded histogram.
    pub fn from_histogram(h: &LatencyHistogram) -> LatencySummary {
        if h.count() == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            p50_ns: h.percentile_ns(50.0),
            p90_ns: h.percentile_ns(90.0),
            p99_ns: h.percentile_ns(99.0),
            p999_ns: h.percentile_ns(99.9),
            mean_ns: h.mean_ns(),
            max_ns: h.max_ns(),
            count: h.count(),
        }
    }
}

/// Per-element attribution: work totals plus service-time percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementReport {
    /// Node index in the element graph.
    pub node: u64,
    /// Element class name.
    pub element: String,
    /// Batches processed.
    pub batches: u64,
    /// Packets processed.
    pub packets: u64,
    /// Packets dropped here.
    pub drops: u64,
    /// Busy time, nanoseconds.
    pub busy_ns: u64,
    /// Median per-visit service time, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile per-visit service time, nanoseconds.
    pub p99_ns: u64,
}

/// One point of the balancer's `w` trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WPoint {
    /// Run time of the sample, nanoseconds.
    pub t_ns: u64,
    /// Offloading fraction at that time.
    pub w: f64,
}

/// Balancer convergence statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BalancerReport {
    /// Final offloading fraction.
    pub final_w: f64,
    /// Time after which `w` stayed within the settle band around
    /// `final_w`, nanoseconds; `None` when it never settled or the run
    /// produced no samples.
    pub settle_ns: Option<u64>,
    /// The sampled `w` trajectory (empty when sampling was off).
    pub trajectory: Vec<WPoint>,
}

/// One device-quarantine interval, run time in nanoseconds. `end_ns` is
/// `None` when the device was still quarantined at the end of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineSpan {
    /// When the circuit breaker tripped.
    pub start_ns: u64,
    /// When the device was re-admitted, if it was.
    pub end_ns: Option<u64>,
}

/// Fault-injection and recovery accounting (schema v2). All counts are
/// zero and `quarantines` empty on a clean run, which is what the
/// regression gate asserts when comparing against a clean baseline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultsSection {
    /// Total faults injected (all kinds).
    pub injected: u64,
    /// Device-side retries before giving up on a task.
    pub retried: u64,
    /// Packets re-executed on the CPU path after a device failure.
    pub fell_back_packets: u64,
    /// Packets dropped because a poisoned batch was discarded.
    pub dropped_packets: u64,
    /// Worker/device panics contained by the runtime.
    pub panics_contained: u64,
    /// Device quarantine intervals, in run order.
    pub quarantines: Vec<QuarantineSpan>,
}

/// One point of a throughput-vs-workers scaling sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePoint {
    /// Worker (RX queue) count of this run.
    pub workers: u64,
    /// Transmitted throughput at that count, Mpps.
    pub tx_mpps: f64,
    /// Transmitted throughput at that count, Gbps.
    pub tx_gbps: f64,
}

/// A per-core scaling sweep (the paper's Figure 8 axis), schema v3. Each
/// point is one full run of the same app and traffic at a different worker
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingSection {
    /// Which runtime ran the sweep: `"des"` (simulated workers, the
    /// deterministic CI artifact) or `"live"` (real threads).
    pub runtime: String,
    /// Points in ascending worker order.
    pub series: Vec<ScalePoint>,
}

/// One offload sub-stage's timing summary (schema v4).
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Stage name (`enqueue_wait` / `gather` / `copy_in` / `launch` /
    /// `compute` / `copy_out` / `scatter`).
    pub stage: String,
    /// Mean nanoseconds per offload task.
    pub mean_ns: f64,
    /// 99th-percentile nanoseconds per offload task.
    pub p99_ns: u64,
    /// Total nanoseconds accumulated over the run.
    pub total_ns: u64,
}

/// Offload stage decomposition (schema v4): where device round-trip time
/// actually went, one row per sub-stage.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadStagesSection {
    /// Offload tasks decomposed.
    pub tasks: u64,
    /// Per-stage rows in pipeline order.
    pub stages: Vec<StageRow>,
}

/// Cost-model drift accounting (schema v4).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSection {
    /// Tasks the detector scored.
    pub tasks: u64,
    /// Final smoothed relative error between predicted and measured cost.
    pub rel_err: f64,
    /// Drift events raised (the detector latches at 1).
    pub events: u64,
    /// Stage with the largest accumulated unpredicted time, if any.
    pub worst_stage: Option<String>,
    /// That stage's accumulated unpredicted nanoseconds.
    pub worst_excess_ns: f64,
}

/// SLO budget verdict (schema v4): the declared objectives plus burn-rate
/// accounting over the run's sample windows.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSection {
    /// Latency budget, nanoseconds (None = not tracked).
    pub latency_ns: Option<u64>,
    /// Throughput floor, Mpps (None = not tracked).
    pub min_mpps: Option<f64>,
    /// Fraction of sample windows allowed to violate.
    pub error_budget: f64,
    /// Sample windows scored.
    pub windows: u64,
    /// Windows that violated the latency budget.
    pub latency_violations: u64,
    /// Windows that violated the throughput floor.
    pub throughput_violations: u64,
    /// Latency burn rate (>1 = budget blown).
    pub latency_burn: f64,
    /// Throughput burn rate (>1 = budget blown).
    pub throughput_burn: f64,
    /// Every budget held over the run.
    pub met: bool,
}

/// Stateful flow-table accounting (schema v5): run-wide totals across
/// every worker shard, straight from the [`nba_core::flow::FlowRegistry`]
/// report. Present only when the app carries stateful elements (NAT,
/// conntrack, Maglev) — plain forwarding apps have no flow plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowsSection {
    /// Flows resident in the tables at the end of the run.
    pub live: u64,
    /// New flow entries created.
    pub inserts: u64,
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries reaped after the idle TTL.
    pub evict_idle: u64,
    /// Embryonic (half-open) entries reaped early.
    pub evict_embryonic: u64,
    /// Entries removed by protocol close (FIN/RST).
    pub evict_closed: u64,
    /// Entries invalidated by worker death.
    pub evict_death: u64,
    /// Foreign-bucket entries adopted after a re-steer.
    pub migrated_in: u64,
    /// Packets dropped because a table was full.
    pub table_full_drops: u64,
    /// Packets dropped for lacking a conntrack entry.
    pub out_of_state_drops: u64,
    /// NAT ports held at the end of the run.
    pub nat_ports_in_use: u64,
}

impl FlowsSection {
    /// Evictions across every reason.
    pub fn evictions_total(&self) -> u64 {
        self.evict_idle + self.evict_embryonic + self.evict_closed + self.evict_death
    }
}

/// Band half-width around `final_w` used for settle-time detection.
const SETTLE_BAND: f64 = 0.05;

/// Settle time from a sampled trajectory: the time of the first sample
/// after which every later sample stays within [`SETTLE_BAND`] of the
/// final fraction.
pub fn settle_time_ns(samples: &[TimeSample], final_w: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut settled_at = None;
    for s in samples {
        if (s.offload_fraction - final_w).abs() <= SETTLE_BAND {
            settled_at.get_or_insert(s.t.as_ns());
        } else {
            settled_at = None;
        }
    }
    settled_at
}

/// One benchmark run as a versioned, machine-readable artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// App name (`ipv4` / `ipv6` / `ipsec` / `ids`).
    pub app: String,
    /// `git rev-parse HEAD` of the working tree, or `"unknown"`.
    pub git_sha: String,
    /// `rustc --version`, or `"unknown"`.
    pub rustc: String,
    /// FNV-1a digest over the run configuration (hex). Comparing reports
    /// with different digests still works but warns: the numbers describe
    /// different experiments.
    pub config_digest: String,
    /// Whether the run used the shortened `NBA_QUICK` windows.
    pub quick: bool,
    /// Measurement window length, nanoseconds.
    pub duration_ns: u64,
    /// Offered load over the window, Gbps.
    pub offered_gbps: f64,
    /// Transmitted throughput, Gbps (the paper's headline metric).
    pub tx_gbps: f64,
    /// Transmitted throughput, Mpps.
    pub tx_mpps: f64,
    /// RX-ring drops in the window.
    pub rx_dropped: u64,
    /// End-to-end round-trip latency summary.
    pub latency: LatencySummary,
    /// Balancer convergence.
    pub balancer: BalancerReport,
    /// Fault-injection and recovery accounting (all-zero on clean runs).
    pub faults: FaultsSection,
    /// Per-element attribution, sorted by node.
    pub elements: Vec<ElementReport>,
    /// Throughput-vs-workers sweep, when the run was a scaling sweep
    /// (`None` for single-configuration runs).
    pub scaling: Option<ScalingSection>,
    /// Offload stage decomposition (`None` unless stage stats were on).
    pub offload_stages: Option<OffloadStagesSection>,
    /// Cost-model drift accounting (`None` unless drift detection was on).
    pub drift: Option<DriftSection>,
    /// SLO budget verdict (`None` unless an SLO was configured).
    pub slo: Option<SloSection>,
    /// Stateful flow-table totals (`None` for stateless apps).
    pub flows: Option<FlowsSection>,
}

/// FNV-1a over the configuration knobs that define the experiment. Not a
/// cryptographic identity — a cheap "same experiment?" check.
pub fn config_digest(cfg: &RuntimeConfig) -> String {
    let canon = format!(
        "sockets={} ports={} wps={} io={} comp={} agg={} aggto={} inflight={} backlog={} reuse={} policy={:?} compute={:?} warmup={} measure={}",
        cfg.topology.sockets.len(),
        cfg.topology.ports.len(),
        cfg.workers_per_socket,
        cfg.io_batch,
        cfg.comp_batch,
        cfg.offload_aggregate,
        cfg.offload_agg_timeout.as_ns(),
        cfg.gpu_max_inflight,
        cfg.device_backlog_batches,
        cfg.datablock_reuse,
        cfg.branch_policy,
        cfg.compute,
        cfg.warmup.as_ns(),
        cfg.measure.as_ns(),
    );
    // Only an *active* fault plan changes the experiment; keeping the canon
    // string unchanged otherwise means clean digests still match artifacts
    // written before faults existed.
    let canon = if cfg.fault.plan.is_active() {
        format!("{canon} faults={}", cfg.fault.plan.render())
    } else {
        canon
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canon.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// `git rev-parse HEAD`, or `"unknown"` outside a repository.
pub fn git_sha() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

/// `rustc --version`, or `"unknown"`.
pub fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

/// The trimmed stdout of a successful `cmd args`, or `"unknown"`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl BenchReport {
    /// Builds a report from a finished run. Provenance fields (`git_sha`,
    /// `rustc`) are captured from the environment here.
    pub fn from_run(app: &str, cfg: &RuntimeConfig, run: &RunReport, quick: bool) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            app: app.to_string(),
            git_sha: git_sha(),
            rustc: rustc_version(),
            config_digest: config_digest(cfg),
            quick,
            duration_ns: run.duration.as_ns(),
            offered_gbps: run.offered_gbps,
            tx_gbps: run.tx_gbps,
            tx_mpps: run.tx_mpps(),
            rx_dropped: run.rx_dropped,
            latency: LatencySummary::from_histogram(&run.latency),
            balancer: BalancerReport {
                final_w: run.final_w,
                settle_ns: settle_time_ns(&run.samples, run.final_w),
                trajectory: run
                    .samples
                    .iter()
                    .map(|s| WPoint {
                        t_ns: s.t.as_ns(),
                        w: s.offload_fraction,
                    })
                    .collect(),
            },
            faults: FaultsSection {
                injected: run.faults.snapshot.injected(),
                retried: run.faults.snapshot.retried,
                fell_back_packets: run.faults.snapshot.fell_back_packets,
                dropped_packets: run.faults.snapshot.dropped_packets,
                panics_contained: run.faults.snapshot.panics_contained,
                quarantines: run
                    .faults
                    .quarantines
                    .iter()
                    .map(|(start, end)| QuarantineSpan {
                        start_ns: start.as_ns(),
                        end_ns: end.map(|t| t.as_ns()),
                    })
                    .collect(),
            },
            elements: run
                .elements
                .iter()
                .map(|p| ElementReport {
                    node: p.node as u64,
                    element: p.element.to_string(),
                    batches: p.batches,
                    packets: p.packets,
                    drops: p.drops,
                    busy_ns: p.busy.as_ns(),
                    p50_ns: p.latency.percentile_ns(50.0),
                    p99_ns: p.latency.percentile_ns(99.0),
                })
                .collect(),
            scaling: None,
            offload_stages: run.stages.as_ref().map(|st| OffloadStagesSection {
                tasks: st.tasks,
                stages: nba_core::audit::OffloadStage::ALL
                    .iter()
                    .map(|s| StageRow {
                        stage: s.as_str().to_string(),
                        mean_ns: st.mean_ns(*s),
                        p99_ns: st.hist[s.index()].percentile_ns(99.0),
                        total_ns: st.total_ns[s.index()],
                    })
                    .collect(),
            }),
            drift: run.drift.as_ref().map(|d| DriftSection {
                tasks: d.tasks,
                rel_err: d.rel_err,
                events: d.events,
                worst_stage: d.worst_stage.clone(),
                worst_excess_ns: d.worst_excess_ns,
            }),
            slo: run.slo.as_ref().map(|s| SloSection {
                latency_ns: s.cfg.latency_ns,
                min_mpps: s.cfg.min_mpps,
                error_budget: s.cfg.error_budget,
                windows: s.windows,
                latency_violations: s.latency_violations,
                throughput_violations: s.throughput_violations,
                latency_burn: s.latency_burn,
                throughput_burn: s.throughput_burn,
                met: s.met,
            }),
            flows: run.flows.as_ref().map(|f| {
                let t = f.totals();
                FlowsSection {
                    live: t.live,
                    inserts: t.inserts,
                    hits: t.hits,
                    misses: t.misses,
                    evict_idle: t.evict_idle,
                    evict_embryonic: t.evict_embryonic,
                    evict_closed: t.evict_closed,
                    evict_death: t.evict_death,
                    migrated_in: t.migrated_in,
                    table_full_drops: t.table_full_drops,
                    out_of_state_drops: t.out_of_state_drops,
                    nat_ports_in_use: t.nat_ports_in_use,
                }
            }),
        }
    }

    /// Attaches a scaling sweep to the report (points are sorted by
    /// worker count).
    pub fn with_scaling(mut self, runtime: &str, mut series: Vec<ScalePoint>) -> BenchReport {
        series.sort_by_key(|p| p.workers);
        self.scaling = Some(ScalingSection {
            runtime: runtime.to_string(),
            series,
        });
        self
    }

    /// Serializes to pretty-printed JSON (the `BENCH_*.json` artifact).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        s.push_str(&format!("  \"app\": \"{}\",\n", json_escape(&self.app)));
        s.push_str(&format!(
            "  \"git_sha\": \"{}\",\n",
            json_escape(&self.git_sha)
        ));
        s.push_str(&format!("  \"rustc\": \"{}\",\n", json_escape(&self.rustc)));
        s.push_str(&format!(
            "  \"config_digest\": \"{}\",\n",
            json_escape(&self.config_digest)
        ));
        s.push_str(&format!("  \"quick\": {},\n", self.quick));
        s.push_str(&format!("  \"duration_ns\": {},\n", self.duration_ns));
        s.push_str(&format!(
            "  \"offered_gbps\": {},\n",
            json_f64(self.offered_gbps)
        ));
        s.push_str(&format!("  \"tx_gbps\": {},\n", json_f64(self.tx_gbps)));
        s.push_str(&format!("  \"tx_mpps\": {},\n", json_f64(self.tx_mpps)));
        s.push_str(&format!("  \"rx_dropped\": {},\n", self.rx_dropped));
        let l = &self.latency;
        s.push_str(&format!(
            "  \"latency\": {{\"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"mean_ns\": {}, \"max_ns\": {}, \"count\": {}}},\n",
            l.p50_ns, l.p90_ns, l.p99_ns, l.p999_ns, l.mean_ns, l.max_ns, l.count
        ));
        s.push_str("  \"balancer\": {\n");
        s.push_str(&format!(
            "    \"final_w\": {},\n",
            json_f64(self.balancer.final_w)
        ));
        match self.balancer.settle_ns {
            Some(ns) => s.push_str(&format!("    \"settle_ns\": {ns},\n")),
            None => s.push_str("    \"settle_ns\": null,\n"),
        }
        let traj: Vec<String> = self
            .balancer
            .trajectory
            .iter()
            .map(|p| format!("{{\"t_ns\": {}, \"w\": {}}}", p.t_ns, json_f64(p.w)))
            .collect();
        s.push_str(&format!("    \"trajectory\": [{}]\n", traj.join(", ")));
        s.push_str("  },\n");
        let f = &self.faults;
        s.push_str("  \"faults\": {\n");
        s.push_str(&format!("    \"injected\": {},\n", f.injected));
        s.push_str(&format!("    \"retried\": {},\n", f.retried));
        s.push_str(&format!(
            "    \"fell_back_packets\": {},\n",
            f.fell_back_packets
        ));
        s.push_str(&format!(
            "    \"dropped_packets\": {},\n",
            f.dropped_packets
        ));
        s.push_str(&format!(
            "    \"panics_contained\": {},\n",
            f.panics_contained
        ));
        let spans: Vec<String> = f
            .quarantines
            .iter()
            .map(|q| {
                let end = match q.end_ns {
                    Some(ns) => ns.to_string(),
                    None => "null".to_string(),
                };
                format!("{{\"start_ns\": {}, \"end_ns\": {end}}}", q.start_ns)
            })
            .collect();
        s.push_str(&format!("    \"quarantines\": [{}]\n", spans.join(", ")));
        s.push_str("  },\n");
        if let Some(sc) = &self.scaling {
            s.push_str("  \"scaling\": {\n");
            s.push_str(&format!(
                "    \"runtime\": \"{}\",\n",
                json_escape(&sc.runtime)
            ));
            let pts: Vec<String> = sc
                .series
                .iter()
                .map(|p| {
                    format!(
                        "{{\"workers\": {}, \"tx_mpps\": {}, \"tx_gbps\": {}}}",
                        p.workers,
                        json_f64(p.tx_mpps),
                        json_f64(p.tx_gbps)
                    )
                })
                .collect();
            s.push_str(&format!("    \"series\": [{}]\n", pts.join(", ")));
            s.push_str("  },\n");
        }
        if let Some(st) = &self.offload_stages {
            s.push_str("  \"offload_stages\": {\n");
            s.push_str(&format!("    \"tasks\": {},\n", st.tasks));
            let rows: Vec<String> = st
                .stages
                .iter()
                .map(|r| {
                    format!(
                        "{{\"stage\": \"{}\", \"mean_ns\": {}, \"p99_ns\": {}, \"total_ns\": {}}}",
                        json_escape(&r.stage),
                        json_f64(r.mean_ns),
                        r.p99_ns,
                        r.total_ns
                    )
                })
                .collect();
            s.push_str(&format!("    \"stages\": [{}]\n", rows.join(", ")));
            s.push_str("  },\n");
        }
        if let Some(d) = &self.drift {
            let worst = match &d.worst_stage {
                Some(w) => format!("\"{}\"", json_escape(w)),
                None => "null".to_string(),
            };
            s.push_str(&format!(
                "  \"drift\": {{\"tasks\": {}, \"rel_err\": {}, \"events\": {}, \"worst_stage\": {worst}, \"worst_excess_ns\": {}}},\n",
                d.tasks,
                json_f64(d.rel_err),
                d.events,
                json_f64(d.worst_excess_ns)
            ));
        }
        if let Some(sl) = &self.slo {
            let lat = match sl.latency_ns {
                Some(ns) => ns.to_string(),
                None => "null".to_string(),
            };
            let mpps = match sl.min_mpps {
                Some(m) => json_f64(m),
                None => "null".to_string(),
            };
            s.push_str("  \"slo\": {\n");
            s.push_str(&format!(
                "    \"latency_ns\": {lat}, \"min_mpps\": {mpps}, \"error_budget\": {},\n",
                json_f64(sl.error_budget)
            ));
            s.push_str(&format!(
                "    \"windows\": {}, \"latency_violations\": {}, \"throughput_violations\": {},\n",
                sl.windows, sl.latency_violations, sl.throughput_violations
            ));
            s.push_str(&format!(
                "    \"latency_burn\": {}, \"throughput_burn\": {}, \"met\": {}\n",
                json_f64(sl.latency_burn),
                json_f64(sl.throughput_burn),
                sl.met
            ));
            s.push_str("  },\n");
        }
        if let Some(fl) = &self.flows {
            s.push_str("  \"flows\": {\n");
            s.push_str(&format!(
                "    \"live\": {}, \"inserts\": {}, \"hits\": {}, \"misses\": {},\n",
                fl.live, fl.inserts, fl.hits, fl.misses
            ));
            s.push_str(&format!(
                "    \"evict_idle\": {}, \"evict_embryonic\": {}, \"evict_closed\": {}, \"evict_death\": {},\n",
                fl.evict_idle, fl.evict_embryonic, fl.evict_closed, fl.evict_death
            ));
            s.push_str(&format!(
                "    \"migrated_in\": {}, \"table_full_drops\": {}, \"out_of_state_drops\": {}, \"nat_ports_in_use\": {}\n",
                fl.migrated_in, fl.table_full_drops, fl.out_of_state_drops, fl.nat_ports_in_use
            ));
            s.push_str("  },\n");
        }
        s.push_str("  \"elements\": [\n");
        for (i, e) in self.elements.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"node\": {}, \"element\": \"{}\", \"batches\": {}, \"packets\": {}, \"drops\": {}, \"busy_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}{}\n",
                e.node,
                json_escape(&e.element),
                e.batches,
                e.packets,
                e.drops,
                e.busy_ns,
                e.p50_ns,
                e.p99_ns,
                if i + 1 < self.elements.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }

    /// Parses a report back from JSON, validating the schema version.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        if v.as_obj().is_none() {
            return Err("report is not a JSON object".to_owned());
        }
        let schema_version = u64_field(&v, "schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {schema_version} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let lat = section(&v, "latency")?;
        let bal = section(&v, "balancer")?;
        let f = section(&v, "faults")?;
        Ok(BenchReport {
            schema_version,
            app: str_field(&v, "app")?.to_owned(),
            git_sha: str_field(&v, "git_sha")?.to_owned(),
            rustc: str_field(&v, "rustc")?.to_owned(),
            config_digest: str_field(&v, "config_digest")?.to_owned(),
            quick: bool_field(&v, "quick")?,
            duration_ns: u64_field(&v, "duration_ns")?,
            offered_gbps: f64_field(&v, "offered_gbps")?,
            tx_gbps: f64_field(&v, "tx_gbps")?,
            tx_mpps: f64_field(&v, "tx_mpps")?,
            rx_dropped: u64_field(&v, "rx_dropped")?,
            latency: LatencySummary {
                p50_ns: u64_field(lat, "p50_ns")?,
                p90_ns: u64_field(lat, "p90_ns")?,
                p99_ns: u64_field(lat, "p99_ns")?,
                p999_ns: u64_field(lat, "p999_ns")?,
                mean_ns: u64_field(lat, "mean_ns")?,
                max_ns: u64_field(lat, "max_ns")?,
                count: u64_field(lat, "count")?,
            },
            balancer: BalancerReport {
                final_w: f64_field(bal, "final_w")?,
                settle_ns: nullable(bal, "settle_ns", u64_field)?,
                trajectory: each(bal, "trajectory", |p| {
                    Ok(WPoint {
                        t_ns: u64_field(p, "t_ns")?,
                        w: f64_field(p, "w")?,
                    })
                })?,
            },
            faults: FaultsSection {
                injected: u64_field(f, "injected")?,
                retried: u64_field(f, "retried")?,
                fell_back_packets: u64_field(f, "fell_back_packets")?,
                dropped_packets: u64_field(f, "dropped_packets")?,
                panics_contained: u64_field(f, "panics_contained")?,
                quarantines: each(f, "quarantines", |q| {
                    Ok(QuarantineSpan {
                        start_ns: u64_field(q, "start_ns")?,
                        end_ns: nullable(q, "end_ns", u64_field)?,
                    })
                })?,
            },
            elements: each(&v, "elements", |e| {
                Ok(ElementReport {
                    node: u64_field(e, "node")?,
                    element: str_field(e, "element")?.to_owned(),
                    batches: u64_field(e, "batches")?,
                    packets: u64_field(e, "packets")?,
                    drops: u64_field(e, "drops")?,
                    busy_ns: u64_field(e, "busy_ns")?,
                    p50_ns: u64_field(e, "p50_ns")?,
                    p99_ns: u64_field(e, "p99_ns")?,
                })
            })?,
            // The sections below are optional: sweeps write `scaling`,
            // audited runs the audit sections, the stateful apps `flows`.
            scaling: optional(&v, "scaling", |sc| {
                Ok(ScalingSection {
                    runtime: str_field(sc, "runtime")?.to_owned(),
                    series: each(sc, "series", |p| {
                        Ok(ScalePoint {
                            workers: u64_field(p, "workers")?,
                            tx_mpps: f64_field(p, "tx_mpps")?,
                            tx_gbps: f64_field(p, "tx_gbps")?,
                        })
                    })?,
                })
            })?,
            offload_stages: optional(&v, "offload_stages", |st| {
                Ok(OffloadStagesSection {
                    tasks: u64_field(st, "tasks")?,
                    stages: each(st, "stages", |r| {
                        Ok(StageRow {
                            stage: str_field(r, "stage")?.to_owned(),
                            mean_ns: f64_field(r, "mean_ns")?,
                            p99_ns: u64_field(r, "p99_ns")?,
                            total_ns: u64_field(r, "total_ns")?,
                        })
                    })?,
                })
            })?,
            drift: optional(&v, "drift", |d| {
                Ok(DriftSection {
                    tasks: u64_field(d, "tasks")?,
                    rel_err: f64_field(d, "rel_err")?,
                    events: u64_field(d, "events")?,
                    worst_stage: nullable(d, "worst_stage", str_field)?.map(str::to_owned),
                    worst_excess_ns: f64_field(d, "worst_excess_ns")?,
                })
            })?,
            slo: optional(&v, "slo", |sl| {
                Ok(SloSection {
                    latency_ns: nullable(sl, "latency_ns", u64_field)?,
                    min_mpps: nullable(sl, "min_mpps", f64_field)?,
                    error_budget: f64_field(sl, "error_budget")?,
                    windows: u64_field(sl, "windows")?,
                    latency_violations: u64_field(sl, "latency_violations")?,
                    throughput_violations: u64_field(sl, "throughput_violations")?,
                    latency_burn: f64_field(sl, "latency_burn")?,
                    throughput_burn: f64_field(sl, "throughput_burn")?,
                    met: bool_field(sl, "met")?,
                })
            })?,
            flows: optional(&v, "flows", |fl| {
                Ok(FlowsSection {
                    live: u64_field(fl, "live")?,
                    inserts: u64_field(fl, "inserts")?,
                    hits: u64_field(fl, "hits")?,
                    misses: u64_field(fl, "misses")?,
                    evict_idle: u64_field(fl, "evict_idle")?,
                    evict_embryonic: u64_field(fl, "evict_embryonic")?,
                    evict_closed: u64_field(fl, "evict_closed")?,
                    evict_death: u64_field(fl, "evict_death")?,
                    migrated_in: u64_field(fl, "migrated_in")?,
                    table_full_drops: u64_field(fl, "table_full_drops")?,
                    out_of_state_drops: u64_field(fl, "out_of_state_drops")?,
                    nat_ports_in_use: u64_field(fl, "nat_ports_in_use")?,
                })
            })?,
        })
    }
}

/// The nested object `key` of `v`.
fn section<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

/// `parse` over the optional section `key` of `v`: `None` when absent.
fn optional<T>(
    v: &Value,
    key: &str,
    parse: impl Fn(&Value) -> Result<T, String>,
) -> Result<Option<T>, String> {
    v.get(key).map(parse).transpose()
}

/// `field(v, key)`, or `None` when `key` is absent or null.
fn nullable<'a, T>(
    v: &'a Value,
    key: &str,
    field: impl Fn(&'a Value, &str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(_) => field(v, key).map(Some),
    }
}

/// `parse` over every item of the array `key` of `v`.
fn each<T>(
    v: &Value,
    key: &str,
    parse: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    section(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field '{key}' is not an array"))?
        .iter()
        .map(parse)
        .collect()
}

// ---------------------------------------------------------------------------
// The regression gate.
// ---------------------------------------------------------------------------

/// Per-metric tolerances for [`compare`]. All gates are one-sided:
/// improvements never fail.
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// Relative throughput loss allowed (0.10 = current may be up to 10 %
    /// below baseline).
    pub throughput_rel: f64,
    /// Relative latency growth allowed.
    pub latency_rel: f64,
    /// Absolute latency slack, nanoseconds — added on top of the relative
    /// bound so tiny baselines don't gate on noise.
    pub latency_abs_ns: u64,
    /// Absolute drift allowed in the balancer's final `w` (two-sided: a
    /// large move either way means the operating point changed).
    pub w_abs: f64,
}

impl Default for Tolerances {
    fn default() -> Tolerances {
        Tolerances {
            throughput_rel: 0.10,
            latency_rel: 0.30,
            latency_abs_ns: 2_000,
            w_abs: 0.15,
        }
    }
}

/// Verdict of one compared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance (or improved).
    Ok,
    /// Out of tolerance.
    Regressed,
    /// Reported for context, never gates.
    Info,
}

impl Verdict {
    fn as_str(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Info => "info",
        }
    }
}

/// One row of the comparison verdict table.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Metric name.
    pub metric: String,
    /// Baseline value, rendered.
    pub baseline: String,
    /// Current value, rendered.
    pub current: String,
    /// Change, rendered (signed percent or absolute).
    pub delta: String,
    /// Allowed change, rendered.
    pub allowed: String,
    /// Outcome.
    pub verdict: Verdict,
}

/// Result of diffing two reports.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Per-metric rows, gating metrics first.
    pub rows: Vec<CompareRow>,
    /// Non-gating observations (config digest drift, element set changes).
    pub warnings: Vec<String>,
}

impl Comparison {
    /// True when any gated metric regressed.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    /// Renders the verdict table plus warnings.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "metric", "baseline", "current", "delta", "allowed", "verdict",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.metric.clone(),
                r.baseline.clone(),
                r.current.clone(),
                r.delta.clone(),
                r.allowed.clone(),
                r.verdict.as_str().to_string(),
            ]);
        }
        let mut out = t.render();
        for w in &self.warnings {
            out.push_str(&format!("warning: {w}\n"));
        }
        out.push_str(if self.regressed() {
            "verdict: REGRESSED\n"
        } else {
            "verdict: ok\n"
        });
        out
    }
}

fn rel_delta(base: f64, cur: f64) -> String {
    if base == 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.1}%", (cur - base) / base * 100.0)
}

/// "Higher is better" gate (throughput).
fn gate_floor(rows: &mut Vec<CompareRow>, metric: &str, base: f64, cur: f64, rel: f64) {
    let floor = base * (1.0 - rel);
    rows.push(CompareRow {
        metric: metric.to_string(),
        baseline: format!("{base:.3}"),
        current: format!("{cur:.3}"),
        delta: rel_delta(base, cur),
        allowed: format!("≥ {floor:.3}"),
        verdict: if cur >= floor {
            Verdict::Ok
        } else {
            Verdict::Regressed
        },
    });
}

/// "Lower is better" gate (latency), with absolute slack.
fn gate_ceiling_ns(rows: &mut Vec<CompareRow>, metric: &str, base: u64, cur: u64, t: &Tolerances) {
    let ceil = (base as f64 * (1.0 + t.latency_rel)) + t.latency_abs_ns as f64;
    rows.push(CompareRow {
        metric: metric.to_string(),
        baseline: format!("{base}ns"),
        current: format!("{cur}ns"),
        delta: rel_delta(base as f64, cur as f64),
        allowed: format!("≤ {}ns", ceil as u64),
        verdict: if (cur as f64) <= ceil {
            Verdict::Ok
        } else {
            Verdict::Regressed
        },
    });
}

/// Diffs `cur` against `base` under `tol`, producing the verdict table.
///
/// Gated: `tx_gbps`, `tx_mpps` (floor), end-to-end `p50/p99/p999` latency
/// (ceiling), and the balancer's `final_w` (absolute band). Context-only:
/// RX drops, settle time, per-element counts. App mismatch is itself a
/// regression — the diff would be meaningless.
pub fn compare(base: &BenchReport, cur: &BenchReport, tol: &Tolerances) -> Comparison {
    let mut c = Comparison::default();
    if base.app != cur.app {
        c.rows.push(CompareRow {
            metric: "app".to_string(),
            baseline: base.app.clone(),
            current: cur.app.clone(),
            delta: "-".to_string(),
            allowed: "equal".to_string(),
            verdict: Verdict::Regressed,
        });
        return c;
    }
    if base.config_digest != cur.config_digest {
        c.warnings.push(format!(
            "config digest changed ({} -> {}): reports describe different experiment setups",
            base.config_digest, cur.config_digest
        ));
    }
    if base.quick != cur.quick {
        c.warnings.push(format!(
            "quick-mode mismatch (baseline quick={}, current quick={})",
            base.quick, cur.quick
        ));
    }

    gate_floor(
        &mut c.rows,
        "tx_gbps",
        base.tx_gbps,
        cur.tx_gbps,
        tol.throughput_rel,
    );
    gate_floor(
        &mut c.rows,
        "tx_mpps",
        base.tx_mpps,
        cur.tx_mpps,
        tol.throughput_rel,
    );
    gate_ceiling_ns(
        &mut c.rows,
        "latency_p50",
        base.latency.p50_ns,
        cur.latency.p50_ns,
        tol,
    );
    gate_ceiling_ns(
        &mut c.rows,
        "latency_p99",
        base.latency.p99_ns,
        cur.latency.p99_ns,
        tol,
    );
    gate_ceiling_ns(
        &mut c.rows,
        "latency_p999",
        base.latency.p999_ns,
        cur.latency.p999_ns,
        tol,
    );
    let dw = (cur.balancer.final_w - base.balancer.final_w).abs();
    c.rows.push(CompareRow {
        metric: "final_w".to_string(),
        baseline: format!("{:.3}", base.balancer.final_w),
        current: format!("{:.3}", cur.balancer.final_w),
        delta: format!("{:+.3}", cur.balancer.final_w - base.balancer.final_w),
        allowed: format!("±{:.3}", tol.w_abs),
        verdict: if dw <= tol.w_abs {
            Verdict::Ok
        } else {
            Verdict::Regressed
        },
    });

    // Fault hygiene: against a clean baseline (the normal CI case) any
    // injected fault, contained panic, or fault-dropped packet is a
    // regression. When the baseline itself ran a fault drill the counts
    // are experiment parameters, so they only inform.
    let fault_gate = |rows: &mut Vec<CompareRow>, metric: &str, base_v: u64, cur_v: u64| {
        let gates = base_v == 0;
        rows.push(CompareRow {
            metric: metric.to_string(),
            baseline: base_v.to_string(),
            current: cur_v.to_string(),
            delta: format!("{:+}", cur_v as i128 - base_v as i128),
            allowed: if gates {
                "0".to_string()
            } else {
                "-".to_string()
            },
            verdict: if !gates {
                Verdict::Info
            } else if cur_v == 0 {
                Verdict::Ok
            } else {
                Verdict::Regressed
            },
        });
    };
    let (bf, cf) = (&base.faults, &cur.faults);
    for (metric, bv, cv) in [
        ("faults_injected", bf.injected, cf.injected),
        ("fault_dropped_pkts", bf.dropped_packets, cf.dropped_packets),
        ("panics_contained", bf.panics_contained, cf.panics_contained),
    ] {
        fault_gate(&mut c.rows, metric, bv, cv);
    }

    // Scaling sweep: gate each worker count's throughput against the
    // same worker count in the baseline (floor, like the headline
    // metrics). Points only one side has are reported as warnings — the
    // sweeps describe different experiments.
    match (&base.scaling, &cur.scaling) {
        (Some(b), Some(cu)) => {
            if b.runtime != cu.runtime {
                c.warnings.push(format!(
                    "scaling runtime changed ({} -> {})",
                    b.runtime, cu.runtime
                ));
            }
            for bp in &b.series {
                match cu.series.iter().find(|p| p.workers == bp.workers) {
                    Some(cp) => gate_floor(
                        &mut c.rows,
                        &format!("scale_w{}_mpps", bp.workers),
                        bp.tx_mpps,
                        cp.tx_mpps,
                        tol.throughput_rel,
                    ),
                    None => c.warnings.push(format!(
                        "scaling point workers={} missing from current report",
                        bp.workers
                    )),
                }
            }
            for cp in &cu.series {
                if !b.series.iter().any(|p| p.workers == cp.workers) {
                    c.warnings.push(format!(
                        "scaling point workers={} has no baseline",
                        cp.workers
                    ));
                }
            }
        }
        (Some(_), None) => c
            .warnings
            .push("baseline has a scaling sweep but current report does not".to_string()),
        (None, Some(_)) => c
            .warnings
            .push("current report has a scaling sweep but baseline does not".to_string()),
        (None, None) => {}
    }

    // Stateful flow plane: live-flow occupancy is a capacity claim, so it
    // gates like throughput (floor). The hygiene counters gate like fault
    // counters: against a clean baseline (zero), any table-full drop,
    // death eviction, or out-of-state drop is a regression; when the
    // baseline itself had them they were experiment parameters and only
    // inform. Everything else is context.
    match (&base.flows, &cur.flows) {
        (Some(b), Some(cu)) => {
            gate_floor(
                &mut c.rows,
                "flows_live",
                b.live as f64,
                cu.live as f64,
                tol.throughput_rel,
            );
            for (metric, bv, cv) in [
                (
                    "flow_table_full_drops",
                    b.table_full_drops,
                    cu.table_full_drops,
                ),
                ("flow_evict_death", b.evict_death, cu.evict_death),
                (
                    "flow_out_of_state_drops",
                    b.out_of_state_drops,
                    cu.out_of_state_drops,
                ),
            ] {
                fault_gate(&mut c.rows, metric, bv, cv);
            }
            for (metric, bv, cv) in [
                ("flow_inserts", b.inserts, cu.inserts),
                ("flow_evictions", b.evictions_total(), cu.evictions_total()),
                ("flow_migrated_in", b.migrated_in, cu.migrated_in),
                ("nat_ports_in_use", b.nat_ports_in_use, cu.nat_ports_in_use),
            ] {
                c.rows.push(CompareRow {
                    metric: metric.to_string(),
                    baseline: bv.to_string(),
                    current: cv.to_string(),
                    delta: format!("{:+}", cv as i128 - bv as i128),
                    allowed: "-".to_string(),
                    verdict: Verdict::Info,
                });
            }
        }
        (Some(_), None) => c
            .warnings
            .push("baseline has a flows section but current report does not".to_string()),
        (None, Some(_)) => c
            .warnings
            .push("current report has a flows section but baseline does not".to_string()),
        (None, None) => {}
    }

    // Audit-plane context: SLO burn rates and drift events inform but
    // never gate — they describe budgets and model fit, not regressions
    // the throughput/latency gates wouldn't already catch.
    let opt_f64 = |v: Option<f64>| match v {
        Some(x) => format!("{x:.3}"),
        None => "-".to_string(),
    };
    if base.slo.is_some() || cur.slo.is_some() {
        for (metric, bv, cv) in [
            (
                "slo_latency_burn",
                base.slo.as_ref().map(|s| s.latency_burn),
                cur.slo.as_ref().map(|s| s.latency_burn),
            ),
            (
                "slo_throughput_burn",
                base.slo.as_ref().map(|s| s.throughput_burn),
                cur.slo.as_ref().map(|s| s.throughput_burn),
            ),
        ] {
            c.rows.push(CompareRow {
                metric: metric.to_string(),
                baseline: opt_f64(bv),
                current: opt_f64(cv),
                delta: "-".to_string(),
                allowed: "-".to_string(),
                verdict: Verdict::Info,
            });
        }
    }
    if base.drift.is_some() || cur.drift.is_some() {
        let fmt = |d: Option<&DriftSection>| match d {
            Some(d) => format!("{} (err {:.3})", d.events, d.rel_err),
            None => "-".to_string(),
        };
        c.rows.push(CompareRow {
            metric: "drift_events".to_string(),
            baseline: fmt(base.drift.as_ref()),
            current: fmt(cur.drift.as_ref()),
            delta: "-".to_string(),
            allowed: "-".to_string(),
            verdict: Verdict::Info,
        });
    }

    // Context rows: never gate.
    c.rows.push(CompareRow {
        metric: "rx_dropped".to_string(),
        baseline: base.rx_dropped.to_string(),
        current: cur.rx_dropped.to_string(),
        delta: format!("{:+}", cur.rx_dropped as i128 - base.rx_dropped as i128),
        allowed: "-".to_string(),
        verdict: Verdict::Info,
    });
    let fmt_settle = |s: Option<u64>| match s {
        Some(ns) => format!("{ns}ns"),
        None => "never".to_string(),
    };
    c.rows.push(CompareRow {
        metric: "settle".to_string(),
        baseline: fmt_settle(base.balancer.settle_ns),
        current: fmt_settle(cur.balancer.settle_ns),
        delta: "-".to_string(),
        allowed: "-".to_string(),
        verdict: Verdict::Info,
    });
    if base.elements.len() != cur.elements.len() {
        c.warnings.push(format!(
            "element count changed ({} -> {})",
            base.elements.len(),
            cur.elements.len()
        ));
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            app: "ipv4".to_string(),
            git_sha: "deadbeef".to_string(),
            rustc: "rustc 1.0 \"quoted\"".to_string(),
            config_digest: "00ff".to_string(),
            quick: true,
            duration_ns: 28_000_000,
            offered_gbps: 80.0,
            tx_gbps: 41.5,
            tx_mpps: 61.75,
            rx_dropped: 12,
            latency: LatencySummary {
                p50_ns: 40_000,
                p90_ns: 55_000,
                p99_ns: 70_000,
                p999_ns: 90_000,
                mean_ns: 42_000,
                max_ns: 120_000,
                count: 1_000_000,
            },
            balancer: BalancerReport {
                final_w: 0.62,
                settle_ns: Some(30_000_000),
                trajectory: vec![
                    WPoint {
                        t_ns: 1_000,
                        w: 0.5,
                    },
                    WPoint {
                        t_ns: 2_000,
                        w: 0.62,
                    },
                ],
            },
            faults: FaultsSection::default(),
            elements: vec![ElementReport {
                node: 0,
                element: "IPLookup".to_string(),
                batches: 10,
                packets: 640,
                drops: 0,
                busy_ns: 5_000,
                p50_ns: 480,
                p99_ns: 900,
            }],
            scaling: None,
            offload_stages: None,
            drift: None,
            slo: None,
            flows: None,
        }
    }

    #[test]
    fn json_round_trip() {
        let mut r = sample();
        r.faults = FaultsSection {
            injected: 9,
            retried: 4,
            fell_back_packets: 512,
            dropped_packets: 64,
            panics_contained: 1,
            quarantines: vec![
                QuarantineSpan {
                    start_ns: 10_000_000,
                    end_ns: Some(14_000_000),
                },
                QuarantineSpan {
                    start_ns: 20_000_000,
                    end_ns: None,
                },
            ],
        };
        let parsed = BenchReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn json_round_trip_with_scaling() {
        let r = sample().with_scaling(
            "des",
            vec![
                ScalePoint {
                    workers: 4,
                    tx_mpps: 30.0,
                    tx_gbps: 15.4,
                },
                ScalePoint {
                    workers: 1,
                    tx_mpps: 8.0,
                    tx_gbps: 4.1,
                },
            ],
        );
        let parsed = BenchReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // with_scaling sorts by worker count.
        let series = &parsed.scaling.as_ref().unwrap().series;
        assert_eq!(series[0].workers, 1);
        assert_eq!(series[1].workers, 4);
    }

    #[test]
    fn json_round_trip_with_audit_sections() {
        let mut r = sample();
        r.offload_stages = Some(OffloadStagesSection {
            tasks: 42,
            stages: vec![
                StageRow {
                    stage: "gather".to_string(),
                    mean_ns: 1500.0,
                    p99_ns: 2100,
                    total_ns: 63_000,
                },
                StageRow {
                    stage: "compute".to_string(),
                    mean_ns: 20_000.5,
                    p99_ns: 31_000,
                    total_ns: 840_021,
                },
            ],
        });
        r.drift = Some(DriftSection {
            tasks: 42,
            rel_err: 0.75,
            events: 1,
            worst_stage: Some("launch".to_string()),
            worst_excess_ns: 1_000_000.0,
        });
        r.slo = Some(SloSection {
            latency_ns: Some(500_000),
            min_mpps: None,
            error_budget: 0.05,
            windows: 25,
            latency_violations: 3,
            throughput_violations: 0,
            latency_burn: 2.4,
            throughput_burn: 0.0,
            met: false,
        });
        let parsed = BenchReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // The audit context rows show up in a comparison but never gate.
        let c = compare(&r, &r, &Tolerances::default());
        assert!(!c.regressed(), "{}", c.render());
        let rendered = c.render();
        assert!(rendered.contains("slo_latency_burn"), "{rendered}");
        assert!(rendered.contains("drift_events"), "{rendered}");
    }

    fn sample_flows() -> FlowsSection {
        FlowsSection {
            live: 4096,
            inserts: 4096,
            hits: 1_000_000,
            misses: 4096,
            evict_idle: 0,
            evict_embryonic: 0,
            evict_closed: 0,
            evict_death: 0,
            migrated_in: 0,
            table_full_drops: 0,
            out_of_state_drops: 0,
            nat_ports_in_use: 4096,
        }
    }

    #[test]
    fn json_round_trip_with_flows() {
        let mut r = sample();
        r.flows = Some(sample_flows());
        let parsed = BenchReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // The flow rows show up in a comparison of identical reports
        // without gating.
        let c = compare(&r, &r, &Tolerances::default());
        assert!(!c.regressed(), "{}", c.render());
        assert!(c.render().contains("flows_live"), "{}", c.render());
    }

    #[test]
    fn flow_occupancy_cliff_fails() {
        let mut base = sample();
        base.flows = Some(sample_flows());
        let mut cur = base.clone();
        // Losing a quarter of the live flows is past the 10 % floor.
        cur.flows.as_mut().unwrap().live = 3072;
        let c = compare(&base, &cur, &Tolerances::default());
        assert!(c.regressed(), "{}", c.render());
    }

    #[test]
    fn flow_hygiene_against_clean_baseline_regresses() {
        let mut base = sample();
        base.flows = Some(sample_flows());
        for tweak in [
            |f: &mut FlowsSection| f.table_full_drops = 1,
            |f: &mut FlowsSection| f.evict_death = 7,
            |f: &mut FlowsSection| f.out_of_state_drops = 3,
        ] {
            let mut cur = base.clone();
            tweak(cur.flows.as_mut().unwrap());
            let c = compare(&base, &cur, &Tolerances::default());
            assert!(c.regressed(), "{}", c.render());
        }
        // A baseline that itself ran a kill drill makes the counts
        // informational, like the fault counters.
        let mut drilled = base.clone();
        drilled.flows.as_mut().unwrap().evict_death = 100;
        let mut cur = drilled.clone();
        cur.flows.as_mut().unwrap().evict_death = 250;
        let c = compare(&drilled, &cur, &Tolerances::default());
        assert!(!c.regressed(), "{}", c.render());
    }

    #[test]
    fn missing_flows_section_only_warns() {
        let mut base = sample();
        base.flows = Some(sample_flows());
        let cur = sample();
        let c = compare(&base, &cur, &Tolerances::default());
        assert!(!c.regressed(), "{}", c.render());
        assert!(!c.warnings.is_empty());
    }

    #[test]
    fn scaling_point_cliff_fails() {
        let pts = |m1: f64, m4: f64| {
            vec![
                ScalePoint {
                    workers: 1,
                    tx_mpps: m1,
                    tx_gbps: m1 / 2.0,
                },
                ScalePoint {
                    workers: 4,
                    tx_mpps: m4,
                    tx_gbps: m4 / 2.0,
                },
            ]
        };
        let base = sample().with_scaling("des", pts(8.0, 30.0));
        // One worker count regressing is enough to gate.
        let cur = sample().with_scaling("des", pts(8.0, 20.0));
        let c = compare(&base, &cur, &Tolerances::default());
        assert!(c.regressed(), "{}", c.render());
        // Within tolerance passes; missing points only warn.
        let ok = sample().with_scaling("des", pts(7.8, 29.0));
        assert!(!compare(&base, &ok, &Tolerances::default()).regressed());
        let fewer = sample().with_scaling(
            "des",
            vec![ScalePoint {
                workers: 1,
                tx_mpps: 8.0,
                tx_gbps: 4.0,
            }],
        );
        let c = compare(&base, &fewer, &Tolerances::default());
        assert!(!c.regressed());
        assert!(!c.warnings.is_empty());
    }

    #[test]
    fn parse_rejects_wrong_schema_version() {
        let text = sample().to_json().replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 999",
        );
        assert!(BenchReport::parse(&text)
            .unwrap_err()
            .contains("schema_version"));
    }

    #[test]
    fn faults_against_clean_baseline_regress() {
        let base = sample();
        let mut cur = base.clone();
        cur.faults.injected = 3;
        cur.faults.dropped_packets = 128;
        let c = compare(&base, &cur, &Tolerances::default());
        assert!(c.regressed(), "{}", c.render());
    }

    #[test]
    fn faulty_baseline_makes_fault_counts_informational() {
        let mut base = sample();
        base.faults.injected = 100;
        base.faults.dropped_packets = 5;
        let mut cur = base.clone();
        cur.faults.injected = 250;
        cur.faults.dropped_packets = 12;
        let c = compare(&base, &cur, &Tolerances::default());
        assert!(!c.regressed(), "{}", c.render());
    }

    #[test]
    fn identical_reports_pass() {
        let r = sample();
        let c = compare(&r, &r, &Tolerances::default());
        assert!(!c.regressed(), "{}", c.render());
    }

    #[test]
    fn throughput_cliff_fails() {
        let base = sample();
        let mut cur = base.clone();
        cur.tx_gbps *= 0.5;
        let c = compare(&base, &cur, &Tolerances::default());
        assert!(c.regressed());
        assert!(c.render().contains("REGRESSED"));
    }

    #[test]
    fn improvement_never_fails() {
        let base = sample();
        let mut cur = base.clone();
        cur.tx_gbps *= 2.0;
        cur.latency.p50_ns /= 4;
        cur.latency.p99_ns /= 4;
        cur.latency.p999_ns /= 4;
        let c = compare(&base, &cur, &Tolerances::default());
        assert!(!c.regressed(), "{}", c.render());
    }

    #[test]
    fn latency_regression_fails_beyond_rel_plus_abs() {
        let base = sample();
        let mut cur = base.clone();
        cur.latency.p99_ns = (base.latency.p99_ns as f64 * 1.6) as u64;
        let c = compare(&base, &cur, &Tolerances::default());
        assert!(c.regressed());
    }

    #[test]
    fn tiny_latency_noise_is_absorbed_by_abs_slack() {
        let mut base = sample();
        base.latency.p50_ns = 100;
        base.latency.p99_ns = 200;
        base.latency.p999_ns = 300;
        let mut cur = base.clone();
        cur.latency.p50_ns = 900; // 9x, but within the 2000 ns slack
        let c = compare(&base, &cur, &Tolerances::default());
        assert!(!c.regressed(), "{}", c.render());
    }

    #[test]
    fn app_mismatch_is_a_regression() {
        let base = sample();
        let mut cur = base.clone();
        cur.app = "ids".to_string();
        assert!(compare(&base, &cur, &Tolerances::default()).regressed());
    }

    #[test]
    fn settle_time_requires_staying_in_band() {
        use nba_sim::Time;
        let mk = |t_ms: u64, w: f64| TimeSample {
            t: Time::from_ms(t_ms),
            tx_packets: 0,
            tx_mpps: 0.0,
            tx_gbps: 0.0,
            dropped: 0,
            rx_dropped: 0,
            latency_ewma_ns: 0,
            offloaded_batches: 0,
            offload_fraction: w,
            gpu_busy: Vec::new(),
            shards: Vec::new(),
            slo: None,
        };
        // Enters the band at 2 ms, leaves, re-enters for good at 4 ms.
        let samples = vec![mk(1, 0.2), mk(2, 0.61), mk(3, 0.4), mk(4, 0.6), mk(5, 0.62)];
        assert_eq!(
            settle_time_ns(&samples, 0.62),
            Some(Time::from_ms(4).as_ns())
        );
        // Never settles.
        assert_eq!(settle_time_ns(&[mk(1, 0.0)], 0.62), None);
        assert_eq!(settle_time_ns(&[], 0.62), None);
    }
}
