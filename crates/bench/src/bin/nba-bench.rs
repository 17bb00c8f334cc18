//! The bench harness's one command line: canonical `BENCH_*.json`
//! artifacts, the regression gate, static analysis and the paper's
//! figures.
//!
//! Usage:
//!
//! * `nba-bench run <app> [--out PATH] [--mode alb|cpu|gpu|<w>] [--faults SPEC]`
//!   Runs one app (`ipv4` | `ipv6` | `ipsec` | `ids` | `nat`) on the
//!   simulated paper testbed and writes a versioned [`BenchReport`] to
//!   `BENCH_<app>.json` (or `--out`). `NBA_QUICK=1` shortens the
//!   measurement windows for CI smoke runs. The default `alb` mode runs
//!   the adaptive balancer so the artifact captures convergence stats.
//!   `--faults` takes a seeded fault plan (see `FaultPlan::parse`, e.g.
//!   `seed=7,transient=0.2,die_at_ms=30,revive_at_ms=60`, or the worker
//!   drills `worker_kill=1@50000` / `worker_stall=1@50000+80`); the
//!   artifact's `faults` section records what happened. `--shed` sets the
//!   live runtime's overload policy
//!   (`policy=drop_tail|priority|probabilistic,occupancy=R,slo=on|off`).
//! * `nba-bench compare <baseline.json> <current.json>
//!   [--tol-throughput R] [--tol-latency R] [--tol-w A]`
//!   Diffs two reports under per-metric tolerances, prints the verdict
//!   table, and exits 1 on regression. Gates are one-sided — improvements
//!   never fail.
//! * `nba-bench top <addr> [--interval MS] [--count N]`
//!   Polls a running instance's stats endpoint (`--stats-addr` on `run`)
//!   and prints a per-shard terminal snapshot: ring occupancy, high
//!   water, `w`, drops, latency percentiles, SLO burn rates, and
//!   cost-model drift gauges. (`--interval-ms` is accepted as an alias.)
//! * `nba-bench explain <decisions.jsonl>`
//!   Renders a balancer decision log (written by `run --audit N
//!   --audit-out PATH`) as a human-readable timeline, after verifying the
//!   log replays bit-exactly through a fresh balancer.
//! * `nba-bench lint [--json] [--deny-warnings] [--timing]
//!   [--max-overhead=PCT] <config.click>...`
//!   Builds each pipeline configuration and runs the analysis a runtime
//!   preflight runs, without starting a run (see `nba_bench::lint`).
//! * `nba-bench repro [experiment...]`
//!   Regenerates the named paper figures/tables, every one when none is
//!   named (`table3`, `fig1` ... `fig14`, `composition`, `aggregation`,
//!   `datablock`, `bounded`); `NBA_QUICK=1` shrinks the sweeps.
//!
//! Observability flags on `run`: `--trace N` sizes the batch-lifecycle
//! trace rings (0 = off, the default — tracing-off runs are bit-identical
//! to a build without telemetry); `--export KIND=PATH[,KIND=PATH..]`
//! writes renderings of the DES run, `-` meaning stdout after the summary
//! lines: `elements` (per-element profile table), `series` (time series as
//! JSONL, `w` against time), `trace` (batch-lifecycle trace as JSONL),
//! `chrome` (the trace in Chrome Trace Event Format for Perfetto) and
//! `prom` (the run in Prometheus text format) — `trace` and `chrome` need
//! `--trace N`; `--stats-addr HOST:PORT` serves the
//! live stats endpoint during live runs, `--flight-dir DIR` writes
//! flight-recorder post-mortem dumps there. `--audit N` turns the
//! decision-audit plane fully on (decision log of N records, per-stage
//! offload histograms, cost-model drift detection); `--audit-out PATH`
//! writes the decision log as JSONL for `explain`; `--slo SPEC` declares
//! latency/throughput budgets (`p99=500us,mpps=1.5,budget=0.05`) burned
//! down window by window and scored in the artifact's `slo` section.
//!
//! Exit codes: 0 ok, 1 regression, 2 usage/parse error.
//!
//! The DES runtime is deterministic, so two runs of the same binary and
//! config produce identical reports — baselines under `bench/baselines/`
//! are machine-independent.

use nba_bench::cli::{self, opt, parsed, positionals, Mode};
use nba_bench::experiments::{self, ExpOpts};
use nba_bench::lint;
use nba_bench::report::{compare, BenchReport, ScalePoint, Tolerances};
use nba_core::runtime::live::{self, LiveConfig};
use nba_core::runtime::{des, traffic_per_port, PipelineBuilder, RunReport, RuntimeConfig};
use nba_core::telemetry::{
    profile_table, report_to_prometheus, samples_to_jsonl, trace_to_chrome, trace_to_jsonl,
};
use nba_io::{IpVersion, L4Proto, SizeDist, TrafficConfig};
use nba_sim::topology::{GpuSpec, PortSpec, SocketSpec};
use nba_sim::{Time, Topology};

fn usage() -> ! {
    eprintln!(
        "usage:\n  nba-bench run <ipv4|ipv6|ipsec|ids|nat> [--out PATH] [--mode alb|cpu|gpu|<w>] [--faults SPEC] [--workers N,M,..] [--runtime des|live] [--trace N] [--export KIND=PATH,..] [--stats-addr HOST:PORT] [--flight-dir DIR] [--audit N] [--audit-out PATH] [--slo SPEC] [--shed SPEC]\n  nba-bench compare <baseline.json> <current.json> [--tol-throughput R] [--tol-latency R] [--tol-w A]\n  nba-bench top <addr> [--interval MS] [--count N]\n  nba-bench explain <decisions.jsonl>\n  nba-bench lint [--json] [--deny-warnings] [--timing] [--max-overhead=PCT] <config.click>...\n  nba-bench repro [experiment...]"
    );
    std::process::exit(2);
}

/// The canonical benchmark configuration. Quick mode shrinks the windows
/// (and is recorded in the artifact, so `compare` warns when a quick run
/// is diffed against a full baseline).
fn bench_cfg(q: bool) -> RuntimeConfig {
    let (warmup, measure) = if q {
        (Time::from_ms(6), Time::from_ms(20))
    } else {
        (Time::from_ms(10), Time::from_ms(60))
    };
    RuntimeConfig {
        warmup,
        measure,
        ..RuntimeConfig::default()
    }
}

/// What `run --export` can write from the DES run, by name.
const EXPORTS: [&str; 5] = ["elements", "series", "trace", "chrome", "prom"];

/// Parses `--export KIND=PATH[,KIND=PATH..]` (`-` is stdout).
fn parse_exports(spec: &str) -> Result<Vec<(&str, &str)>, String> {
    spec.split(',')
        .map(|kv| match kv.split_once('=') {
            Some((kind, path)) if EXPORTS.contains(&kind) && !path.is_empty() => Ok((kind, path)),
            _ => Err(format!(
                "--export: expected {}=PATH, got '{kv}'",
                EXPORTS.join("|")
            )),
        })
        .collect()
}

/// Renders one export of the DES run.
fn render_export(kind: &str, r: &RunReport) -> String {
    match kind {
        "elements" => profile_table(&r.elements),
        "series" => samples_to_jsonl(&r.samples),
        "trace" => trace_to_jsonl(&r.trace),
        "chrome" => trace_to_chrome(&r.trace, &r.elements),
        _ => report_to_prometheus(r),
    }
}

/// Parses `--workers N,M,..`: worker counts in `1..=64`.
fn parse_counts(list: &str) -> Result<Vec<usize>, String> {
    match list
        .split(',')
        .map(|s| s.trim().parse::<usize>())
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(c) if !c.is_empty() && c.iter().all(|&n| (1..=64).contains(&n)) => Ok(c),
        _ => Err(format!(
            "--workers: expected a comma-separated list of counts in 1..=64, got '{list}'"
        )),
    }
}

/// The DES sweep machine: one socket with exactly `workers` worker cores
/// (+1 for the device thread), one GPU, four 10 GbE ports — ports fixed
/// across counts so the offered load stays constant and only the worker
/// count varies (the paper's Figure 8 axis).
fn sweep_topology(workers: usize) -> Topology {
    Topology {
        sockets: vec![SocketSpec {
            cores: workers as u32 + 1,
        }],
        gpus: vec![GpuSpec {
            name: "GTX 680".to_owned(),
            socket: 0,
        }],
        ports: (0..4)
            .map(|_| PortSpec {
                speed_gbps: 10.0,
                socket: 0,
            })
            .collect(),
    }
}

/// Runs the throughput-vs-workers sweep on the deterministic simulator.
fn des_sweep(
    counts: &[usize],
    cfg: &RuntimeConfig,
    pipeline: &PipelineBuilder,
    mode: Mode,
    traffic: &TrafficConfig,
) -> Vec<ScalePoint> {
    counts
        .iter()
        .map(|&n| {
            let cfg = RuntimeConfig {
                topology: sweep_topology(n),
                workers_per_socket: n as u32,
                ..cfg.clone()
            };
            let balancer = mode.shared();
            let traffic = traffic_per_port(&cfg.topology, traffic);
            let r = des::run(&cfg, pipeline, &balancer, &traffic);
            println!(
                "  des workers={n}: modelled {:.2} Gbps ({:.2} Mpps)",
                r.tx_gbps,
                r.tx_mpps()
            );
            ScalePoint {
                workers: n as u64,
                tx_mpps: r.tx_mpps(),
                tx_gbps: r.tx_gbps,
            }
        })
        .collect()
}

/// Observability knobs forwarded from the CLI into the runtimes.
#[derive(Default)]
struct ObsOpts {
    /// Trace ring capacity per worker (0 = tracing off).
    trace: usize,
    /// Serve the in-flight stats endpoint here during live runs.
    stats_addr: Option<String>,
    /// Write flight-recorder post-mortem dumps into this directory.
    flight_dir: Option<std::path::PathBuf>,
    /// Declared SLO budgets, burned down by live sweeps too (the DES
    /// artifact run reads them from `RuntimeConfig`).
    slo: Option<nba_core::audit::SloConfig>,
    /// Overload-shedding policy for live runs (off by default).
    shed: nba_core::ShedConfig,
}

/// Runs the sweep on the live runtime: real threads, one RSS-sharded
/// worker (with its own balancer) per count.
fn live_sweep(
    counts: &[usize],
    q: bool,
    pipeline: &PipelineBuilder,
    mode: Mode,
    traffic: &TrafficConfig,
    fault: &nba_core::FaultConfig,
    obs: &ObsOpts,
) -> Vec<ScalePoint> {
    let duration = std::time::Duration::from_millis(if q { 200 } else { 1000 });
    counts
        .iter()
        .map(|&n| {
            let cfg = LiveConfig {
                workers: n,
                duration,
                traffic: traffic.clone(),
                fault: fault.clone(),
                telemetry: nba_core::TelemetryConfig {
                    trace_capacity: obs.trace,
                    ..nba_core::TelemetryConfig::default()
                },
                flight: nba_core::FlightConfig {
                    dir: obs.flight_dir.clone(),
                },
                stats_addr: obs.stats_addr.clone(),
                slo: obs.slo.clone(),
                shed: obs.shed,
                ..LiveConfig::default()
            };
            let factory = mode.replicated();
            let r = live::run_sharded(&cfg, pipeline, &factory);
            println!(
                "  live workers={n}: measured {:.2} Gbps ({:.2} Mpps)",
                r.gbps, r.mpps
            );
            // The self-healing ledger, when anything happened: worker
            // drills, re-steers, sheds, and what the recovery cost.
            let h = &r.health;
            if !h.is_clean() {
                println!(
                    "    health: {} transitions, respawns {}, resteers {} ({} buckets), \
                     shed {}, lost in-ring {} in-flight {}",
                    h.log.events.len(),
                    h.stats.respawns,
                    h.stats.resteers,
                    h.stats.buckets_moved,
                    h.stats.shed_total(),
                    h.stats.lost_in_ring,
                    h.stats.lost_in_flight,
                );
            }
            ScalePoint {
                workers: n as u64,
                tx_mpps: r.mpps,
                tx_gbps: r.gbps,
            }
        })
        .collect()
}

/// The live-runtime scaling acceptance check: with enough host cores,
/// four workers must at least double one worker's throughput. Returns
/// `false` on failure; skipped (with a note) on small hosts, where the
/// OS would serialize the threads anyway.
fn check_live_speedup(series: &[ScalePoint]) -> bool {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (Some(one), Some(four)) = (
        series.iter().find(|p| p.workers == 1),
        series.iter().find(|p| p.workers == 4),
    ) else {
        return true;
    };
    if cpus < 4 {
        println!("scaling check skipped: host has {cpus} CPUs (need >= 4 for the live(4) >= 2x live(1) gate)");
        return true;
    }
    let ratio = four.tx_mpps / one.tx_mpps.max(f64::MIN_POSITIVE);
    println!("live(4)/live(1) speedup: {ratio:.2}x (gate: >= 2.0)");
    if ratio < 2.0 {
        eprintln!(
            "scaling regression: live(4) = {:.2} Mpps < 2x live(1) = {:.2} Mpps",
            four.tx_mpps, one.tx_mpps
        );
        return false;
    }
    true
}

/// Prints `e` and returns exit status 2, the status of every usage, parse
/// or I/O error.
fn fail(e: impl std::fmt::Display) -> i32 {
    eprintln!("{e}");
    2
}

fn cmd_run(args: &[String]) -> i32 {
    let Some(&name) = positionals(args).first() else {
        usage();
    };
    let q = ExpOpts::from_env().quick;
    let mut cfg = bench_cfg(q);
    // Canonical app name so ipv4 and v4 produce the same artifact.
    let (app, pipeline, v6) = match cli::app(name, &experiments::base_app(&cfg)) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let mode_name = opt(args, "--mode").unwrap_or("alb");
    let mode: Mode = match mode_name.parse() {
        Ok(m) => m,
        Err(e) => return fail(e),
    };
    let out_path = opt(args, "--out").map_or_else(|| format!("BENCH_{app}.json"), str::to_owned);
    let mut obs = ObsOpts {
        stats_addr: opt(args, "--stats-addr").map(str::to_owned),
        flight_dir: opt(args, "--flight-dir").map(std::path::PathBuf::from),
        ..ObsOpts::default()
    };
    match parsed(args, "--trace") {
        Ok(cap) => obs.trace = cap.unwrap_or(0),
        Err(e) => return fail(e),
    }
    // Tracing rides the same knob in both runtimes; the config digest
    // excludes telemetry, so traced and untraced artifacts stay diffable.
    cfg.telemetry.trace_capacity = obs.trace;
    let exports = match opt(args, "--export").map(parse_exports).transpose() {
        Ok(e) => e.unwrap_or_default(),
        Err(e) => return fail(e),
    };
    if obs.trace == 0 && exports.iter().any(|&(k, _)| k == "trace" || k == "chrome") {
        return fail("--export trace/chrome needs --trace N (the trace rings are off)");
    }
    if let Some(spec) = opt(args, "--faults") {
        // The spanned parser points at the exact offending byte range.
        match nba_core::parse_faults_flag(spec) {
            Ok(plan) => cfg.fault.plan = plan,
            Err(e) => return fail(e),
        }
    }
    if let Some(spec) = opt(args, "--shed") {
        match nba_core::ShedConfig::parse(spec) {
            Ok(shed) => obs.shed = shed,
            Err(e) => return fail(format!("--shed: {e}")),
        }
    }
    match parsed::<usize>(args, "--audit") {
        Ok(None) => {}
        Ok(Some(cap)) if cap > 0 => cfg.audit = nba_core::audit::AuditConfig::full(cap),
        _ => return fail("--audit: expected a decision-log capacity > 0"),
    }
    let audit_out = opt(args, "--audit-out");
    if audit_out.is_some() && !cfg.audit.enabled() {
        return fail("--audit-out needs --audit N to record decisions");
    }
    if let Some(spec) = opt(args, "--slo") {
        match nba_core::audit::SloConfig::parse(spec) {
            Ok(slo) => {
                cfg.slo = Some(slo.clone());
                obs.slo = Some(slo);
            }
            Err(e) => return fail(format!("--slo: {e}")),
        }
    }
    // The optional throughput-vs-workers sweep, validated before any run.
    let sweep = match opt(args, "--workers").map(parse_counts).transpose() {
        Ok(counts) => counts,
        Err(e) => return fail(e),
    };
    let runtime = opt(args, "--runtime").unwrap_or("des");
    if !["des", "live"].contains(&runtime) {
        return fail(format!("unknown runtime '{runtime}' (expected des|live)"));
    }
    let per_port = TrafficConfig {
        offered_gbps: 10.0,
        size: SizeDist::Fixed(64),
        ip_version: if v6 { IpVersion::V6 } else { IpVersion::V4 },
        // The stateful app needs real connections: TCP so the generator
        // emits SYNs and the tables see handshakes, not an undifferentiated
        // packet stream.
        l4: if app == "nat" {
            L4Proto::Tcp
        } else {
            TrafficConfig::default().l4
        },
        ..TrafficConfig::default()
    };
    let traffic = traffic_per_port(&cfg.topology, &per_port);
    let r = des::run(&cfg, &pipeline, &mode.shared(), &traffic);
    let mut report = BenchReport::from_run(app, &cfg, &r, q);

    // Optional throughput-vs-workers sweep (the paper's per-core scaling
    // axis), appended to the artifact as the schema-v3 `scaling` section.
    if let Some(counts) = sweep {
        println!("{app}: scaling sweep ({runtime}), workers {counts:?}");
        let series = if runtime == "live" {
            live_sweep(&counts, q, &pipeline, mode, &per_port, &cfg.fault, &obs)
        } else {
            des_sweep(&counts, &cfg, &pipeline, mode, &per_port)
        };
        let live_ok = runtime != "live" || check_live_speedup(&series);
        report = report.with_scaling(runtime, series);
        if !live_ok {
            // Still write the artifact so the failure is inspectable.
            let _ = std::fs::write(&out_path, report.to_json());
            return 1;
        }
    }

    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        return fail(format!("cannot write {out_path}: {e}"));
    }
    println!(
        "{app}: DES-modelled {:.2} Gbps ({:.2} Mpps), p50 {}ns p99 {}ns, w {:.3} -> {out_path}",
        report.tx_gbps,
        report.tx_mpps,
        report.latency.p50_ns,
        report.latency.p99_ns,
        report.balancer.final_w,
    );
    if cfg.fault.plan.is_active() {
        let f = &report.faults;
        println!(
            "{app}: faults injected {} retried {} fell_back {} pkts dropped {} pkts, quarantines {}",
            f.injected,
            f.retried,
            f.fell_back_packets,
            f.dropped_packets,
            f.quarantines.len(),
        );
    }
    if let Some(fl) = &report.flows {
        println!(
            "{app}: flows live {} (inserts {}, evictions {}, migrated {}), \
             drops full {} out-of-state {}, nat ports {}",
            fl.live,
            fl.inserts,
            fl.evictions_total(),
            fl.migrated_in,
            fl.table_full_drops,
            fl.out_of_state_drops,
            fl.nat_ports_in_use,
        );
    }
    if let Some(d) = &report.drift {
        println!(
            "{app}: drift rel_err {:.3} over {} tasks, events {}{}",
            d.rel_err,
            d.tasks,
            d.events,
            match &d.worst_stage {
                Some(s) => format!(" (worst stage: {s})"),
                None => String::new(),
            },
        );
    }
    if let Some(sl) = &report.slo {
        println!(
            "{app}: slo {} — latency burn {:.2}, throughput burn {:.2} over {} windows",
            if sl.met { "met" } else { "MISSED" },
            sl.latency_burn,
            sl.throughput_burn,
            sl.windows,
        );
    }
    if let Some(path) = audit_out {
        let Some(log) = &r.decisions else {
            return fail(format!(
                "--audit-out: the run produced no decision log (mode '{mode_name}' never updates w?)"
            ));
        };
        if let Err(e) = std::fs::write(path, log.to_jsonl()) {
            return fail(format!("cannot write {path}: {e}"));
        }
        println!(
            "{app}: {} balancer decisions -> {path} (render with `nba-bench explain {path}`)",
            log.records.len()
        );
    }
    for (kind, path) in exports {
        let text = render_export(kind, &r);
        if path == "-" {
            print!("{text}");
        } else if let Err(e) = std::fs::write(path, text) {
            return fail(format!("cannot write {path}: {e}"));
        }
    }
    0
}

/// `nba-bench explain <decisions.jsonl>`: verify the log replays
/// bit-exactly, then render it as a human timeline.
fn cmd_explain(args: &[String]) -> i32 {
    let [path] = positionals(args)[..] else {
        usage();
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(format!("cannot read {path}: {e}")),
    };
    let log = match nba_core::audit::DecisionLog::from_jsonl(&text) {
        Ok(l) => l,
        Err(e) => return fail(format!("{path}: {e}")),
    };
    // Replay the recorded inputs through a fresh balancer: the log is
    // trustworthy only if it reproduces itself bit for bit.
    match nba_core::audit::replay(&log) {
        Ok(replayed) if replayed.bit_eq(&log) => {
            println!(
                "replay: {} records reproduced bit-exactly\n",
                log.records.len()
            );
        }
        Ok(_) => {
            eprintln!("{path}: replay DIVERGED from the recorded decisions — the log does not explain itself");
            return 1;
        }
        Err(e) => {
            eprintln!("{path}: replay failed: {e}");
            return 1;
        }
    }
    print!("{}", log.explain());
    0
}

fn cmd_compare(args: &[String]) -> i32 {
    let [base_path, cur_path] = positionals(args)[..] else {
        usage();
    };
    let mut tol = Tolerances::default();
    for (name, value) in [
        ("--tol-throughput", &mut tol.throughput_rel),
        ("--tol-latency", &mut tol.latency_rel),
        ("--tol-w", &mut tol.w_abs),
    ] {
        match parsed(args, name) {
            Ok(v) => *value = v.unwrap_or(*value),
            Err(e) => return fail(e),
        }
    }
    let load = |path: &str| -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        BenchReport::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, cur) = match (load(base_path), load(cur_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    let c = compare(&base, &cur, &tol);
    print!("{}", c.render());
    i32::from(c.regressed())
}

/// One raw HTTP GET against the stats endpoint — no HTTP client dep, the
/// server always answers with `Connection: close` so read-to-EOF is the
/// framing.
fn fetch(addr: &str, path: &str) -> Result<String, String> {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(std::time::Duration::from_secs(2)))
        .ok();
    s.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .map_err(|e| format!("send {addr}: {e}"))?;
    let mut buf = String::new();
    s.read_to_string(&mut buf)
        .map_err(|e| format!("read {addr}: {e}"))?;
    match buf.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(format!("{addr}: malformed HTTP response")),
    }
}

/// Renders one `/status` document as a terminal snapshot: run totals on
/// one line, then a per-shard table.
fn render_top(doc: &nba_core::json::Value) -> String {
    let f = |v: Option<&nba_core::json::Value>| v.and_then(nba_core::json::Value::as_f64);
    let u = |v: Option<&nba_core::json::Value>| v.and_then(nba_core::json::Value::as_u64);
    let totals = doc.get("totals");
    let latency = doc.get("latency");
    let mut out = format!(
        "elapsed {:.1}s  tx {} pkts  dropped {}  offloaded {} batches  p50 {}ns p99 {}ns  quarantined {}  dumps {}\n",
        f(doc.get("elapsed_s")).unwrap_or(0.0),
        u(totals.and_then(|t| t.get("tx_packets"))).unwrap_or(0),
        u(totals.and_then(|t| t.get("dropped"))).unwrap_or(0),
        u(totals.and_then(|t| t.get("offloaded_batches"))).unwrap_or(0),
        u(latency.and_then(|l| l.get("p50_ns"))).unwrap_or(0),
        u(latency.and_then(|l| l.get("p99_ns"))).unwrap_or(0),
        doc.get("quarantined")
            .and_then(nba_core::json::Value::as_bool)
            .unwrap_or(false),
        u(doc.get("flight_dumps")).unwrap_or(0),
    );
    // SLO burn rates (null unless the run declared budgets) and drift
    // gauges published by the device thread.
    if let Some(slo) = doc
        .get("slo")
        .filter(|v| !matches!(v, nba_core::json::Value::Null))
    {
        let ok = |k: &str| {
            slo.get(k)
                .and_then(nba_core::json::Value::as_bool)
                .unwrap_or(true)
        };
        out.push_str(&format!(
            "slo: latency {} (burn {:.2})  throughput {} (burn {:.2})\n",
            if ok("latency_ok") { "ok" } else { "VIOLATED" },
            f(slo.get("latency_burn")).unwrap_or(0.0),
            if ok("throughput_ok") {
                "ok"
            } else {
                "VIOLATED"
            },
            f(slo.get("throughput_burn")).unwrap_or(0.0),
        ));
    }
    if let Some(drift) = doc.get("drift") {
        let events = u(drift.get("events")).unwrap_or(0);
        if events > 0 {
            out.push_str(&format!(
                "drift: {} event(s), rel_err {:.3}{}\n",
                events,
                f(drift.get("rel_err")).unwrap_or(0.0),
                drift
                    .get("worst_stage")
                    .and_then(nba_core::json::Value::as_str)
                    .map(|s| format!(", worst stage {s}"))
                    .unwrap_or_default(),
            ));
        }
    }
    out.push_str("shard  state          ring   high-water   enq-fail   rx-drop        w\n");
    for s in doc
        .get("shards")
        .and_then(nba_core::json::Value::as_arr)
        .unwrap_or(&[])
    {
        out.push_str(&format!(
            "{:>5}  {:<10} {:>9} {:>12} {:>10} {:>9} {:>8.3}\n",
            u(s.get("shard")).unwrap_or(0),
            s.get("state")
                .and_then(nba_core::json::Value::as_str)
                .unwrap_or("healthy"),
            u(s.get("ring_occupancy")).unwrap_or(0),
            u(s.get("ring_high_water")).unwrap_or(0),
            u(s.get("enqueue_failed")).unwrap_or(0),
            u(s.get("rx_dropped")).unwrap_or(0),
            f(s.get("w")).unwrap_or(0.0),
        ));
    }
    out
}

/// `top`'s polling interval in milliseconds and its snapshot count.
fn top_opts(args: &[String]) -> Result<(u64, u64), String> {
    // `--interval-ms` is the older spelling of `--interval`.
    let interval_flag = if opt(args, "--interval").is_some() {
        "--interval"
    } else {
        "--interval-ms"
    };
    let interval = parsed(args, interval_flag)?.unwrap_or(1000);
    Ok((interval, parsed(args, "--count")?.unwrap_or(1)))
}

fn cmd_top(args: &[String]) -> i32 {
    let [addr] = positionals(args)[..] else {
        usage();
    };
    let (interval, count) = match top_opts(args) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    for i in 0..count.max(1) {
        let body = match fetch(addr, "/status") {
            Ok(b) => b,
            Err(e) => return fail(e),
        };
        let doc = match nba_core::json::parse(&body) {
            Ok(d) => d,
            Err(e) => return fail(format!("{addr}: bad /status JSON: {e:?}")),
        };
        print!("{}", render_top(&doc));
        if i + 1 < count {
            println!();
            std::thread::sleep(std::time::Duration::from_millis(interval));
        }
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("lint") => match lint::run(&args[1..], &mut std::io::stdout()) {
            Ok(status) => status.into(),
            Err(e) => fail(format!("stdout: {e}")),
        },
        Some("repro") => experiments::repro(&args[1..]).into(),
        _ => usage(),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn modes_parse_once_for_both_balancer_forms() {
        for ok in ["alb", "cpu", "gpu", "0", "0.5", "1"] {
            let mode: Mode = ok.parse().unwrap();
            mode.shared();
            mode.replicated()(0);
        }
        let w = "0.25"
            .parse::<Mode>()
            .unwrap()
            .shared()
            .lock()
            .offload_fraction();
        assert_eq!(w, 0.25);
        // Out of range or not a number: a usage error, never a panic.
        for bad in ["1.5", "-0.1", "nan", "inf", "fast", "foo", ""] {
            let e = bad.parse::<Mode>().unwrap_err();
            assert!(e.starts_with(&format!("unknown mode '{bad}'")), "{e}");
            assert_eq!(cmd_run(&args(&format!("ipv4 --mode {bad}x"))), 2);
        }
    }

    #[test]
    fn malformed_run_arguments_exit_2_before_running() {
        for bad in [
            "ipv5",
            "v4 --mode 1.5",
            "ipv4 --trace many",
            "ipv4 --export svg=x",
            "ipv4 --export chrome=t.json",
            "ipv4 --workers 0,2",
            "ipv4 --runtime gpu",
            "ipv4 --audit 0",
            "ipv4 --audit-out d.jsonl",
        ] {
            assert_eq!(cmd_run(&args(bad)), 2, "{bad}");
        }
        assert_eq!(
            parse_exports("chrome=t.json,prom=-").unwrap(),
            [("chrome", "t.json"), ("prom", "-")]
        );
        assert!(parse_exports("prom=").is_err());
    }

    #[test]
    fn top_values_that_do_not_parse_are_usage_errors() {
        assert_eq!(top_opts(&args("a:1")), Ok((1000, 1)));
        assert_eq!(top_opts(&args("a:1 --interval-ms 5 --count=3")), Ok((5, 3)));
        for bad in [
            "a:1 --count x",
            "a:1 --count -1",
            "a:1 --interval 1s",
            "a:1 --interval-ms=fast",
        ] {
            let e = top_opts(&args(bad)).unwrap_err();
            assert!(e.contains("cannot parse"), "{bad}: {e}");
        }
        assert_eq!(cmd_compare(&args("a.json b.json --tol-w wide")), 2);
    }
}
