//! What runs inside a child process: one repetition (set-up, warm-up, timed
//! runs), the output check, or the traced run. Children talk to the parent
//! in lines on standard output:
//!
//! ```text
//! sample <metric> <f64>     one timed run's reading (the parent takes medians)
//! value <metric> <f64>      one reading per process
//! count <name> <u64>        a seed-exact counter of one timed run
//! attempted pkts <u64>      packets pushed by one timed run
//! failed pkts <u64>         of those, packets not accounted for
//! error <where> <text>      the output check (or a run) failed
//! ```

use std::time::{Duration, Instant};

use nba_apps::ipsec::open_esp;
use nba_apps::{pipelines, AppConfig};
use nba_core::audit::AuditConfig;
use nba_core::capture::{fnv1a, TxRecord};
use nba_core::element::ComputeMode;
use nba_core::flow::{FlowReport, FlowShardSnapshot};
use nba_core::runtime::live::{self, LiveConfig, LiveReport};
use nba_core::runtime::{des, traffic_per_port, RunReport, RuntimeConfig};
use nba_core::telemetry::{trace_to_chrome, ElementProfile};
use nba_io::{Limited, PacketSource, TrafficConfig, TrafficGen};
use nba_sim::topology::{GpuSpec, PortSpec, SocketSpec};
use nba_sim::{CostModel, Time, Topology};

use crate::ladder;
use crate::metrics::{element_classes, PER_LAYER};
use crate::procfs::{cpu_seconds, peak_rss_mib};
use crate::span::{self_times, Recorder};
use crate::stats::median;
use crate::workloads::{Canon, Runtime, Workload};

fn emit(kind: &str, name: &str, value: impl std::fmt::Debug) {
    println!("{kind} {name} {value:?}");
}

// ───────────────────────────── live runs ─────────────────────────────

/// The run shape of every live workload: one worker, one IO thread, a
/// fixed packet budget in lossless drain mode. `duration` is a deadline
/// only; a run that hits it reports the missing packets as failed.
fn live_cfg(w: &Workload, seed: u64, packets: u64) -> LiveConfig {
    LiveConfig {
        workers: 1,
        io_threads: 1,
        max_packets: Some(packets),
        drain: true,
        duration: Duration::from_secs(60),
        traffic: w.traffic(seed),
        ..LiveConfig::default()
    }
}

/// The traced variant: batch-lifecycle tracing and the full audit plane.
fn traced_live_cfg(w: &Workload, seed: u64, packets: u64) -> LiveConfig {
    let mut cfg = live_cfg(w, seed, packets);
    cfg.telemetry.trace_capacity = 65_536;
    cfg.audit = AuditConfig::full(4096);
    cfg
}

struct LiveRun {
    packets: u64,
    wall_s: f64,
    cpu_s: f64,
    report: LiveReport,
}

fn run_live(w: &Workload, cfg: &LiveConfig) -> LiveRun {
    let build = w.pipeline();
    let balancer = w.balancer();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let report = live::run(cfg, &build, &balancer);
    LiveRun {
        packets: cfg.max_packets.unwrap_or(0),
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
        report,
    }
}

/// Evictions the traffic causes (idle, embryonic, closed): seed-exact.
/// `evict_death` is left out: the supervisor now and then mistakes a worker
/// that has just finished for a crashed one (it reads `done`, the worker
/// finishes, it reads `alive`) and invalidates the shard at teardown - no
/// packet is lost, and it shows as `core.supervise.transitions`.
fn designed_evictions(t: &FlowShardSnapshot) -> u64 {
    t.evictions_total() - t.evict_death
}

impl LiveRun {
    fn mpps(&self) -> f64 {
        self.packets as f64 / self.wall_s / 1e6
    }

    fn flow_totals(&self) -> Option<FlowShardSnapshot> {
        self.report.flows.as_ref().map(FlowReport::totals)
    }

    /// Conservation: every packet of the budget is either transmitted or a
    /// designed element verdict. Anything else - never generated before the
    /// deadline, dropped at RX, shed, lost in a ring or in flight, dropped
    /// by fault containment, refused by a full flow table - is failed.
    fn failed(&self) -> u64 {
        let r = &self.report;
        let undesigned = r.faults.snapshot.dropped_packets
            + self.flow_totals().map_or(0, |t| t.table_full_drops);
        let designed = r.totals.dropped.saturating_sub(undesigned);
        self.packets.abs_diff(r.totals.tx_packets + designed)
    }

    fn emit_timed(&self) {
        emit("sample", "mpps", self.mpps());
        emit(
            "sample",
            "cpu_ns_per_pkt",
            self.cpu_s * 1e9 / self.packets as f64,
        );
        emit("attempted", "pkts", self.packets);
        emit("failed", "pkts", self.failed());
        emit("count", "tx_packets", self.report.totals.tx_packets);
        emit("count", "elem_dropped", self.report.totals.dropped);
        if let Some(t) = self.flow_totals() {
            emit("count", "flow_inserts", t.inserts);
            emit("count", "flow_hits", t.hits);
            emit("count", "flow_evictions", designed_evictions(&t));
            emit("count", "flow_table_full_drops", t.table_full_drops);
        }
    }
}

// ───────────────────────────── DES runs ─────────────────────────────

fn des_cfg(warmup_ms: u64, measure_ms: u64) -> RuntimeConfig {
    RuntimeConfig {
        warmup: Time::from_ms(warmup_ms),
        measure: Time::from_ms(measure_ms),
        ..RuntimeConfig::default()
    }
}

struct DesRun {
    /// Simulated packets offered over the whole run, warm-up included.
    sim_pkts: f64,
    wall_s: f64,
    cpu_s: f64,
    report: RunReport,
}

fn run_des(w: &Workload, seed: u64, cfg: &RuntimeConfig) -> DesRun {
    let app = AppConfig {
        ports: cfg.topology.ports.len() as u16,
        ..AppConfig::default()
    };
    // The DES counterpart of `Workload::pipeline` for the only DES
    // workload: the gateway sized to the simulated machine's ports.
    let build = pipelines::ipsec_gateway(&app);
    let balancer = w.balancer();
    let traffic = traffic_per_port(&cfg.topology, &w.traffic(seed));
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let report = des::run(cfg, &build, &balancer, &traffic);
    let wall_s = t0.elapsed().as_secs_f64();
    let whole = (cfg.warmup + cfg.measure).as_secs_f64() / cfg.measure.as_secs_f64();
    DesRun {
        sim_pkts: report.offered_packets as f64 * whole,
        wall_s,
        cpu_s: cpu_seconds() - cpu0,
        report,
    }
}

impl DesRun {
    fn mpps(&self) -> f64 {
        self.sim_pkts / self.wall_s / 1e6
    }

    /// RX drops under 80 Gbps offered are modelled overload, by design.
    /// A run fails if it transmitted nothing or lost packets to faults.
    fn failed(&self) -> u64 {
        let r = &self.report;
        if r.tx_packets == 0 {
            self.sim_pkts as u64
        } else {
            r.faults.snapshot.dropped_packets + r.health.stats.total_lost()
        }
    }

    fn emit_timed(&self) {
        emit("sample", "mpps", self.mpps());
        emit("sample", "cpu_ns_per_pkt", self.cpu_s * 1e9 / self.sim_pkts);
        emit("attempted", "pkts", self.sim_pkts as u64);
        emit("failed", "pkts", self.failed());
    }
}

// ─────────────────────────── one repetition ───────────────────────────

/// Set-up, an untimed warm-up run of a quarter of the work, then timed
/// runs of the full budget until `seconds` have been measured (at least
/// one). `started` is when this process entered `main`.
pub fn rep(w: &Workload, seed: u64, seconds: f64, started: Instant) {
    match w.runtime {
        Runtime::Live { budget } => {
            let warm = run_live(w, &live_cfg(w, seed, budget / 4));
            emit("value", "setup_s", started.elapsed().as_secs_f64());
            if warm.failed() > 0 {
                emit("error", "warmup", format!("{} packets lost", warm.failed()));
            }
            until_measured(seconds, || {
                run_live(w, &live_cfg(w, seed, budget)).emit_timed()
            });
        }
        Runtime::Des {
            warmup_ms,
            measure_ms,
        } => {
            run_des(w, seed, &des_cfg(warmup_ms / 4, measure_ms / 4));
            emit("value", "setup_s", started.elapsed().as_secs_f64());
            until_measured(seconds, || {
                run_des(w, seed, &des_cfg(warmup_ms, measure_ms)).emit_timed()
            });
        }
    }
    emit("value", "peak_rss_mb", peak_rss_mib());
}

/// Repeats `timed_run` until `seconds` have gone by; at least once.
fn until_measured(seconds: f64, mut timed_run: impl FnMut()) {
    let t0 = Instant::now();
    loop {
        timed_run();
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

// ─────────────────────────── the output check ───────────────────────────

/// A canonical, runtime-independent digest of one transmitted packet.
type Verdict = (u64, u64, u64, u64, u64);

fn canon(kind: Canon, records: &[TxRecord]) -> Result<Vec<Verdict>, String> {
    let sa = pipelines::sa_table(AppConfig::default().seed);
    let mut v = Vec::with_capacity(records.len());
    for r in records {
        v.push(match kind {
            Canon::Exact | Canon::Flow => (
                r.flow,
                r.iface_out,
                r.ac_match,
                r.re_match,
                r.frame_digest(),
            ),
            Canon::Ids => (r.flow, 0, r.ac_match, r.re_match, r.frame_digest()),
            Canon::Ipsec => {
                let (proto, plaintext) = open_esp(&r.frame, &sa)
                    .map_err(|e| format!("a TX frame does not verify and decrypt: {e:?}"))?;
                (r.flow, r.iface_out, u64::from(proto), fnv1a(&plaintext), 0)
            }
        });
    }
    v.sort_unstable();
    Ok(v)
}

/// One journal record with the shard stripped: worker homing differs
/// between DES (3 shards) and live (1), per-bucket sequences must not.
type FlowOpCanon = (u16, u64, u64, &'static str, u64, u64);

fn canon_journal(flows: Option<&FlowReport>) -> Result<Vec<FlowOpCanon>, String> {
    let report = flows.ok_or("a stateful run carries no flow report")?;
    report
        .journal
        .replay()
        .map_err(|e| format!("flow journal does not replay: {e}"))?;
    Ok(report
        .journal
        .canonical()
        .iter()
        .map(|o| {
            (
                o.bucket,
                o.bseq,
                o.epoch,
                o.op.as_str(),
                o.key_digest,
                o.value,
            )
        })
        .collect())
}

/// One NIC port, one socket, one GPU: the live runtime's implicit shape.
fn one_port_topology() -> Topology {
    Topology {
        sockets: vec![SocketSpec { cores: 4 }],
        gpus: vec![GpuSpec {
            name: "GTX 680".to_owned(),
            socket: 0,
        }],
        ports: vec![PortSpec {
            speed_gbps: 10.0,
            socket: 0,
        }],
    }
}

/// live(1) against `des::run_with_sources` on the same seed and balancer:
/// the same sorted per-packet verdicts, and for the stateful apps the same
/// canonical flow-op journal.
pub fn check(w: &Workload, seed: u64, packets: u64) -> Result<(), String> {
    // Offered slowly enough that three modelled workers never drop at RX
    // (pacing only matters to the DES side; live ignores it).
    let traffic = TrafficConfig {
        offered_gbps: 1.0,
        ..w.traffic(seed)
    };
    let stateful = w.canon() == Canon::Flow;

    let mut lcfg = live_cfg(w, seed, packets);
    lcfg.traffic = traffic.clone();
    lcfg.capture = true;
    lcfg.flow_journal = stateful;
    let live = run_live(w, &lcfg);
    if live.failed() > 0 {
        return Err(format!("live run lost {} packets", live.failed()));
    }

    let dcfg = RuntimeConfig {
        topology: one_port_topology(),
        workers_per_socket: 3,
        compute: ComputeMode::Full,
        warmup: Time::from_ms(2),
        // Long enough for the slowest stream (1024 B frames: 274 ms).
        measure: Time::from_ms(400),
        poll_interval: Time::from_us(20),
        pool_size: 1 << 16,
        rxq_depth: 4096,
        capture: true,
        flow_journal: stateful,
        ..RuntimeConfig::default()
    };
    let source = Limited::new(TrafficGen::new(traffic.clone()), packets);
    let des = des::run_with_sources(
        &dcfg,
        &w.pipeline(),
        &w.balancer(),
        vec![Box::new(source) as Box<dyn PacketSource>],
        traffic.offered_gbps,
    );
    if des.rx_dropped > 0 || des.faults.snapshot.dropped_packets > 0 {
        return Err(format!(
            "DES run not lossless: {} RX drops, {} fault drops",
            des.rx_dropped, des.faults.snapshot.dropped_packets
        ));
    }

    let live_v = canon(w.canon(), &live.report.tx_capture)?;
    let des_v = canon(w.canon(), &des.tx_capture)?;
    if (live_v.len() as u64) < packets / 2 {
        return Err(format!("suspiciously few verdicts: {}", live_v.len()));
    }
    if live_v != des_v {
        return Err(format!(
            "live(1) and DES verdicts diverge ({} vs {} records)",
            live_v.len(),
            des_v.len()
        ));
    }
    if stateful {
        let live_j = canon_journal(live.report.flows.as_ref())?;
        let des_j = canon_journal(des.flows.as_ref())?;
        if live_j.is_empty() {
            return Err("flow journal empty on a stateful run".to_owned());
        }
        if live_j != des_j {
            return Err(format!(
                "live(1) and DES flow journals diverge ({} vs {} ops)",
                live_j.len(),
                des_j.len()
            ));
        }
    }
    Ok(())
}

// ─────────────────────────── the traced run ───────────────────────────

/// Per-class totals of a run's element profiles (IDSAlert appears twice
/// in the IDS graph; replicas of a class are summed).
fn class_totals(elements: &[ElementProfile], class: &str) -> (u64, u64, f64) {
    elements
        .iter()
        .filter(|p| p.element == class)
        .fold((0, 0, 0.0), |(pk, cy, ns), p| {
            (pk + p.packets, cy + p.cycles, ns + p.busy.as_ns() as f64)
        })
}

/// Element pairs the cost model and the measurement order differently
/// (per packet presented to the element).
fn rank_inversions(elements: &[ElementProfile], ghz: f64) -> u64 {
    let costs: Vec<(f64, f64)> = element_classes()
        .filter_map(|c| {
            let (pkts, cycles, busy_ns) = class_totals(elements, c);
            (pkts > 0 && busy_ns > 0.0)
                .then(|| (cycles as f64 / ghz / pkts as f64, busy_ns / pkts as f64))
        })
        .collect();
    let mut inversions = 0;
    for (i, a) in costs.iter().enumerate() {
        for b in &costs[i + 1..] {
            if (a.0 - b.0) * (a.1 - b.1) < 0.0 {
                inversions += 1;
            }
        }
    }
    inversions
}

/// Every per-layer metric that is a field of the traced live run's report.
fn live_report_metrics(run: &LiveRun, untraced_mpps: f64, out: &mut Vec<(String, f64)>) {
    let r = &run.report;
    let pkts = run.packets as f64;
    let ghz = CostModel::paper_default().cpu_ghz;
    let mut elem_sum = 0.0;
    for class in element_classes() {
        let (_, cycles, busy_ns) = class_totals(&r.elements, class);
        elem_sum += busy_ns / pkts;
        out.push((format!("elem.{class}.ns_per_pkt"), busy_ns / pkts));
        let ratio = if busy_ns > 0.0 {
            cycles as f64 / ghz / busy_ns
        } else {
            0.0
        };
        out.push((format!("elem.{class}.model_over_measured"), ratio));
    }
    // The parts sum to the whole: wall time per packet of this run is the
    // named elements' busy time plus this residual (framework, IO, waiting).
    out.push((
        "live.residual_ns_per_pkt".into(),
        1e3 / run.mpps() - elem_sum,
    ));
    out.push((
        "sim.cost.rank_inversions".into(),
        rank_inversions(&r.elements, ghz) as f64,
    ));
    let (ac_pkts, ..) = class_totals(&r.elements, "ACMatch");
    let (re_pkts, ..) = class_totals(&r.elements, "RegexMatch");
    out.push((
        "apps.ids.slow_path_share".into(),
        if ac_pkts > 0 {
            re_pkts as f64 / ac_pkts as f64
        } else {
            0.0
        },
    ));

    if let Some(t) = run.flow_totals() {
        let lookups = (t.hits + t.misses).max(1) as f64;
        out.push(("core.flow.hit_ratio".into(), t.hits as f64 / lookups));
        out.push((
            "core.flow.inserts_per_kpkt".into(),
            t.inserts as f64 * 1e3 / pkts,
        ));
        out.push((
            "core.flow.evictions_per_kpkt".into(),
            designed_evictions(&t) as f64 * 1e3 / pkts,
        ));
        out.push((
            "core.flow.table_full_drops".into(),
            t.table_full_drops as f64,
        ));
    }

    if let Some(st) = r.stages.as_ref().filter(|st| st.tasks > 0) {
        let tasks = st.tasks as f64;
        for (stage, total_ns) in nba_core::audit::OffloadStage::ALL.iter().zip(st.total_ns) {
            out.push((
                format!("core.offload.{}_us_per_task", stage.as_str()),
                total_ns as f64 / tasks / 1e3,
            ));
        }
        // Aggregation achieved: batches per task times packets per batch
        // (the live runtime keeps no per-task packet count).
        let pkts_per_batch = r.totals.rx_packets as f64 / r.totals.batches.max(1) as f64;
        out.push((
            "core.offload.pkts_per_task".into(),
            r.totals.offloaded_batches as f64 / tasks * pkts_per_batch,
        ));
    }
    out.push((
        "core.offload.fallback_pkts".into(),
        r.faults.snapshot.fell_back_packets as f64,
    ));

    let busy_ns = r.latency.mean_ns() as f64 * r.latency.count() as f64;
    out.push((
        "live.worker_busy_share".into(),
        busy_ns / r.elapsed.as_nanos() as f64,
    ));
    out.push((
        "live.batch_service_p50_us".into(),
        r.latency.percentile_ns(50.0) as f64 / 1e3,
    ));
    out.push((
        "live.batch_service_p99_us".into(),
        r.latency.percentile_ns(99.0) as f64 / 1e3,
    ));
    out.push((
        "live.trace_overhead_ratio".into(),
        run.mpps() / untraced_mpps,
    ));
    out.push((
        "core.supervise.transitions".into(),
        r.health.log.events.len() as f64,
    ));
    out.push((
        "core.supervise.resteers".into(),
        r.health.stats.resteers as f64,
    ));

    let ring_samples: Vec<f64> = r
        .samples
        .iter()
        .map(|s| s.shards.iter().map(|sh| sh.ring_occupancy as f64).sum())
        .collect();
    if !ring_samples.is_empty() {
        out.push((
            "io.spsc.ring_occupancy_mean".into(),
            ring_samples.iter().sum::<f64>() / ring_samples.len() as f64,
        ));
    }
    // `enqueue_failed` is a cumulative gauge: the last sample holds the total.
    let retries: u64 = r
        .samples
        .last()
        .map_or(0, |s| s.shards.iter().map(|sh| sh.enqueue_failed).sum());
    out.push((
        "io.spsc.enqueue_failed_per_kpkt".into(),
        retries as f64 * 1e3 / pkts,
    ));
}

/// `whole` is the simulated length of the run, warm-up included: the
/// report's GPU and RX-drop counters cover the whole run.
fn des_report_metrics(
    run: &DesRun,
    untraced: &[DesRun],
    whole: Time,
    out: &mut Vec<(String, f64)>,
) {
    let r = &run.report;
    out.push(("des.model_mpps".into(), r.tx_mpps()));
    out.push((
        "des.model_p99_us".into(),
        r.latency.percentile_ns(99.0) as f64 / 1e3,
    ));
    out.push((
        "des.host_ns_per_sim_pkt".into(),
        run.wall_s * 1e9 / run.sim_pkts,
    ));
    out.push(("des.final_w".into(), r.final_w));
    let gpu_busy: f64 = r.gpu.iter().map(|g| g.kernel_busy.as_secs_f64()).sum();
    out.push((
        "des.gpu_busy_share".into(),
        gpu_busy / (r.gpu.len().max(1) as f64 * whole.as_secs_f64()),
    ));
    out.push((
        "des.rx_drop_share".into(),
        r.rx_dropped as f64 / run.sim_pkts.max(1.0),
    ));
    let first = untraced.first().map_or(0, |u| u.report.tx_packets);
    let delta = untraced
        .iter()
        .map(|u| u.report.tx_packets.abs_diff(first))
        .max()
        .unwrap_or(0);
    out.push(("des.repeat_delta_pkts".into(), delta as f64));
    let untraced_mpps = median(&untraced.iter().map(DesRun::mpps).collect::<Vec<_>>());
    out.push((
        "live.trace_overhead_ratio".into(),
        run.mpps() / untraced_mpps,
    ));
}

/// The traced run: untraced and traced timed runs side by side (their
/// ratio is the tracing overhead), then the ladder of benchmark-timed
/// calls into each layer. Prints every per-layer metric (0 where the
/// layer is not on this workload's path) and writes the Chrome trace.
pub fn traced(w: &Workload, seed: u64, seconds: f64, out_dir: &str) -> std::io::Result<()> {
    let mut rec = Recorder::new(w.name);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    // Roughly half the window for whole runs, the rest for the ladder.
    let run_window = seconds * 0.5;
    let runtime_trace = match w.runtime {
        Runtime::Live { budget } => {
            rec.span("setup", |rec| {
                rec.span("warmup", |_| {
                    run_live(w, &live_cfg(w, seed, budget / 4));
                });
            });
            let mut untraced = Vec::new();
            let mut traced_runs = Vec::new();
            let t0 = Instant::now();
            loop {
                untraced.push(
                    rec.span("live::run", |_| run_live(w, &live_cfg(w, seed, budget)))
                        .mpps(),
                );
                traced_runs.push(rec.span("live::run traced", |_| {
                    run_live(w, &traced_live_cfg(w, seed, budget))
                }));
                if t0.elapsed().as_secs_f64() >= run_window {
                    break;
                }
            }
            // The traced run reported is the one with the median rate.
            traced_runs.sort_by(|a, b| a.mpps().total_cmp(&b.mpps()));
            let run = traced_runs.swap_remove(traced_runs.len() / 2);
            emit("attempted", "pkts", run.packets);
            emit("failed", "pkts", run.failed());
            live_report_metrics(&run, median(&untraced), &mut metrics);
            trace_to_chrome(&run.report.trace, &run.report.elements)
        }
        Runtime::Des {
            warmup_ms,
            measure_ms,
        } => {
            rec.span("setup", |rec| {
                rec.span("warmup", |_| {
                    run_des(w, seed, &des_cfg(warmup_ms / 4, measure_ms / 4));
                });
            });
            let cfg = des_cfg(warmup_ms, measure_ms);
            let mut traced_cfg = cfg.clone();
            traced_cfg.telemetry.trace_capacity = 65_536;
            traced_cfg.audit = AuditConfig::full(4096);
            // Same-seed repetitions: their TX counts should be equal.
            let mut untraced = Vec::new();
            let t0 = Instant::now();
            while untraced.len() < 2 || t0.elapsed().as_secs_f64() < run_window {
                untraced.push(rec.span("des::run", |_| run_des(w, seed, &cfg)));
            }
            let run = rec.span("des::run traced", |_| run_des(w, seed, &traced_cfg));
            emit("attempted", "pkts", run.sim_pkts as u64);
            emit("failed", "pkts", run.failed());
            des_report_metrics(&run, &untraced, cfg.warmup + cfg.measure, &mut metrics);
            trace_to_chrome(&run.report.trace, &run.report.elements)
        }
    };
    ladder::run(w, seed, &mut rec, &mut metrics);

    for m in &PER_LAYER {
        let v = metrics
            .iter()
            .find(|(name, _)| name == m.name)
            .map_or(0.0, |(_, v)| *v);
        emit("value", m.name, v);
    }

    eprintln!(
        "  spans of {} (self time = span minus what its children cover):",
        w.name
    );
    for (s, self_ns) in rec.spans().iter().zip(self_times(rec.spans())) {
        eprintln!(
            "    {:<36} {:>10.3} ms  self {:>10.3} ms",
            s.name,
            (s.end_ns - s.start_ns) as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }

    // One Chrome trace: the runtime's own events (pid 0) with the
    // benchmark's spans (pid 1) spliced into the same array.
    let merged = match runtime_trace.strip_suffix("]}") {
        Some(head) if head.ends_with('[') => format!("{head}{}]}}", rec.chrome_events()),
        Some(head) => format!("{head},{}]}}", rec.chrome_events()),
        None => runtime_trace,
    };
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(format!("{out_dir}/trace_{}.json", w.name), merged)
}

/// The harness's own smoke test: the output check and one traced run at
/// a small budget. The accounting must hold and every report-derived
/// metric must come out finite.
#[cfg(test)]
pub fn smoke(w: &Workload, seed: u64, budget: u64) -> Result<(), String> {
    check(w, seed, budget)?;
    let mut metrics = Vec::new();
    let failed = match w.runtime {
        Runtime::Live { .. } => {
            let run = run_live(w, &traced_live_cfg(w, seed, budget));
            live_report_metrics(&run, run.mpps(), &mut metrics);
            if run.report.trace.is_empty() {
                return Err("traced run recorded no events".to_owned());
            }
            run.failed()
        }
        Runtime::Des { .. } => {
            let cfg = des_cfg(1, 2);
            let run = run_des(w, seed, &cfg);
            let failed = run.failed();
            des_report_metrics(
                &run,
                &[run_des(w, seed, &cfg)],
                cfg.warmup + cfg.measure,
                &mut metrics,
            );
            failed
        }
    };
    if failed > 0 {
        return Err(format!("{failed} packets unaccounted for"));
    }
    match metrics.iter().find(|(_, v)| !v.is_finite()) {
        Some((name, v)) => Err(format!("{name} = {v}")),
        None if metrics.is_empty() => Err("no metrics".to_owned()),
        None => Ok(()),
    }
}
