//! Continuous-benchmarking CLI: canonical `BENCH_*.json` artifacts and the
//! regression gate.
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
//!
//! Observability flags on `run`: `--trace N` sizes the batch-lifecycle
//! trace rings (0 = off, the default — tracing-off runs are bit-identical
//! to a build without telemetry), `--stats-addr HOST:PORT` serves the
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

use nba_apps::stateful::NatConfig;
use nba_apps::{pipelines, AppConfig};
use nba_bench::report::{compare, BenchReport, ScalePoint, Tolerances};
use nba_core::lb::{self, AlbConfig, BalancerFactory, LoadBalancer, SharedBalancer};
use nba_core::runtime::live::{self, LiveConfig};
use nba_core::runtime::{des, traffic_per_port, PipelineBuilder, RuntimeConfig};
use nba_io::{IpVersion, L4Proto, SizeDist, TrafficConfig};
use nba_sim::topology::{GpuSpec, PortSpec, SocketSpec};
use nba_sim::{Time, Topology};

fn usage() -> ! {
    eprintln!(
        "usage:\n  nba-bench run <ipv4|ipv6|ipsec|ids|nat> [--out PATH] [--mode alb|cpu|gpu|<w>] [--faults SPEC] [--workers N,M,..] [--runtime des|live] [--trace N] [--stats-addr HOST:PORT] [--flight-dir DIR] [--audit N] [--audit-out PATH] [--slo SPEC] [--shed SPEC]\n  nba-bench compare <baseline.json> <current.json> [--tol-throughput R] [--tol-latency R] [--tol-w A]\n  nba-bench top <addr> [--interval MS] [--count N]\n  nba-bench explain <decisions.jsonl>"
    );
    std::process::exit(2);
}

/// Positional arguments: everything that is neither a `--flag` nor the
/// value of the space-separated `--flag value` form (every flag here
/// takes a value, so the token after a `--flag` belongs to it).
fn positionals(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
        } else if let Some(flag) = a.strip_prefix("--") {
            skip = !flag.contains('=');
        } else {
            out.push(a.as_str());
        }
    }
    out
}

/// True when `NBA_QUICK` asks for shortened smoke windows.
fn quick() -> bool {
    std::env::var("NBA_QUICK").is_ok_and(|v| v != "0")
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

/// Resolves an app name to its pipeline builder and IP version.
fn pipeline_for(app: &str, a: &AppConfig) -> Option<(PipelineBuilder, bool)> {
    Some(match app {
        "ipv4" | "v4" => (pipelines::ipv4_router(a), false),
        "ipv6" | "v6" => (pipelines::ipv6_router(a), true),
        "ipsec" => (pipelines::ipsec_gateway(a), false),
        "ids" => (pipelines::ids(a).0, false),
        // The stateful NAT44 app: per-worker flow shards behind the
        // default table geometry. Its artifact carries the schema-v5
        // `flows` section (live occupancy, evictions, hygiene drops).
        "nat" => (pipelines::nat44(&NatConfig::default()), false),
        _ => return None,
    })
}

/// The scaled adaptive balancer used for benchmark artifacts — same
/// algorithm as the paper's, time constants shrunk to converge within the
/// simulated horizon (see EXPERIMENTS.md).
fn balancer_for(mode: &str) -> Option<SharedBalancer> {
    Some(match mode {
        "alb" => lb::shared(Box::new(lb::Adaptive::new(AlbConfig {
            delta: 0.08,
            update_interval: Time::from_ms(4),
            avg_window: 2,
            min_wait: 0,
            max_wait: 2,
            initial_w: 0.5,
        }))),
        "cpu" => lb::shared(Box::new(lb::CpuOnly)),
        "gpu" => lb::shared(Box::new(lb::GpuOnly)),
        w => lb::shared(Box::new(lb::FixedFraction::new(w.parse().ok()?))),
    })
}

/// One fresh balancer instance per call — the per-worker form of
/// [`balancer_for`], used by the sharded live runtime (`w` per worker).
fn balancer_factory_for(mode: &str) -> Option<BalancerFactory> {
    let make: Box<dyn Fn() -> Box<dyn LoadBalancer> + Send + Sync> = match mode {
        "alb" => Box::new(|| {
            Box::new(lb::Adaptive::new(AlbConfig {
                delta: 0.08,
                update_interval: Time::from_ms(4),
                avg_window: 2,
                min_wait: 0,
                max_wait: 2,
                initial_w: 0.5,
            }))
        }),
        "cpu" => Box::new(|| Box::new(lb::CpuOnly)),
        "gpu" => Box::new(|| Box::new(lb::GpuOnly)),
        w => {
            let w: f64 = w.parse().ok()?;
            if !(0.0..=1.0).contains(&w) {
                return None;
            }
            Box::new(move || Box::new(lb::FixedFraction::new(w)))
        }
    };
    Some(lb::replicated(move || make()))
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
    mode: &str,
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
            let balancer = balancer_for(mode).expect("mode validated earlier");
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
    mode: &str,
    traffic: &TrafficConfig,
    fault: &nba_core::FaultConfig,
    obs: &ObsOpts,
) -> Option<Vec<ScalePoint>> {
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
                    ..nba_core::FlightConfig::default()
                },
                stats_addr: obs.stats_addr.clone(),
                slo: obs.slo.clone(),
                shed: obs.shed,
                ..LiveConfig::default()
            };
            let factory = balancer_factory_for(mode)?;
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
            Some(ScalePoint {
                workers: n as u64,
                tx_mpps: r.mpps,
                tx_gbps: r.gbps,
            })
        })
        .collect::<Option<Vec<_>>>()
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

fn cmd_run(args: &[String]) -> i32 {
    let Some(&app) = positionals(args).first() else {
        usage();
    };
    let opt = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .or_else(|| {
                args.iter()
                    .find_map(|a| a.strip_prefix(&format!("{name}=")).map(str::to_string))
            })
    };
    let mode = opt("--mode").unwrap_or_else(|| "alb".to_string());
    // Canonical app name so ipv4 and v4 produce the same artifact.
    let app = match app {
        "v4" => "ipv4",
        "v6" => "ipv6",
        other => other,
    };
    let out_path = opt("--out").unwrap_or_else(|| format!("BENCH_{app}.json"));

    let q = quick();
    let mut cfg = bench_cfg(q);
    let mut obs = ObsOpts {
        stats_addr: opt("--stats-addr"),
        flight_dir: opt("--flight-dir").map(std::path::PathBuf::from),
        ..ObsOpts::default()
    };
    if let Some(n) = opt("--trace") {
        match n.parse::<usize>() {
            Ok(cap) => obs.trace = cap,
            Err(_) => {
                eprintln!("--trace: expected a ring capacity, got '{n}'");
                return 2;
            }
        }
    }
    // Tracing rides the same knob in both runtimes; the config digest
    // excludes telemetry, so traced and untraced artifacts stay diffable.
    cfg.telemetry.trace_capacity = obs.trace;
    if let Some(spec) = opt("--faults") {
        // The spanned parser points at the exact offending byte range.
        match nba_core::parse_faults_flag(&spec) {
            Ok(plan) => cfg.fault.plan = plan,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    }
    if let Some(spec) = opt("--shed") {
        match nba_core::ShedConfig::parse(&spec) {
            Ok(shed) => obs.shed = shed,
            Err(e) => {
                eprintln!("--shed: {e}");
                return 2;
            }
        }
    }
    if let Some(n) = opt("--audit") {
        match n.parse::<usize>() {
            Ok(cap) if cap > 0 => cfg.audit = nba_core::audit::AuditConfig::full(cap),
            _ => {
                eprintln!("--audit: expected a decision-log capacity > 0, got '{n}'");
                return 2;
            }
        }
    }
    let audit_out = opt("--audit-out");
    if audit_out.is_some() && !cfg.audit.enabled() {
        eprintln!("--audit-out needs --audit N to record decisions");
        return 2;
    }
    if let Some(spec) = opt("--slo") {
        match nba_core::audit::SloConfig::parse(&spec) {
            Ok(slo) => {
                cfg.slo = Some(slo.clone());
                obs.slo = Some(slo);
            }
            Err(e) => {
                eprintln!("--slo: {e}");
                return 2;
            }
        }
    }
    let appcfg = AppConfig {
        ports: cfg.topology.ports.len() as u16,
        ..AppConfig::default()
    };
    let Some((pipeline, v6)) = pipeline_for(app, &appcfg) else {
        eprintln!("unknown app '{app}' (expected ipv4|ipv6|ipsec|ids|nat)");
        return 2;
    };
    let Some(balancer) = balancer_for(&mode) else {
        eprintln!("unknown mode '{mode}' (expected alb|cpu|gpu|<fraction>)");
        return 2;
    };
    let traffic = traffic_per_port(
        &cfg.topology,
        &TrafficConfig {
            offered_gbps: 10.0,
            size: SizeDist::Fixed(64),
            ip_version: if v6 { IpVersion::V6 } else { IpVersion::V4 },
            // The stateful app needs real connections: TCP so the
            // generator emits SYNs and the tables see handshakes, not an
            // undifferentiated packet stream.
            l4: if app == "nat" {
                L4Proto::Tcp
            } else {
                TrafficConfig::default().l4
            },
            ..TrafficConfig::default()
        },
    );
    let r = des::run(&cfg, &pipeline, &balancer, &traffic);
    let mut report = BenchReport::from_run(app, &cfg, &r, q);

    // Optional throughput-vs-workers sweep (the paper's per-core scaling
    // axis), appended to the artifact as the schema-v3 `scaling` section.
    if let Some(list) = opt("--workers") {
        let counts: Vec<usize> = match list
            .split(',')
            .map(|s| s.trim().parse::<usize>())
            .collect::<Result<Vec<_>, _>>()
        {
            Ok(c) if !c.is_empty() && c.iter().all(|&n| (1..=64).contains(&n)) => c,
            _ => {
                eprintln!(
                    "--workers: expected a comma-separated list of counts in 1..=64, got '{list}'"
                );
                return 2;
            }
        };
        let runtime = opt("--runtime").unwrap_or_else(|| "des".to_string());
        let per_port = TrafficConfig {
            offered_gbps: 10.0,
            size: SizeDist::Fixed(64),
            ip_version: if v6 { IpVersion::V6 } else { IpVersion::V4 },
            ..TrafficConfig::default()
        };
        println!("{app}: scaling sweep ({runtime}), workers {counts:?}");
        let series = match runtime.as_str() {
            "des" => des_sweep(&counts, &cfg, &pipeline, &mode, &per_port),
            "live" => match live_sweep(&counts, q, &pipeline, &mode, &per_port, &cfg.fault, &obs) {
                Some(s) => s,
                None => {
                    eprintln!("unknown mode '{mode}' (expected alb|cpu|gpu|<fraction>)");
                    return 2;
                }
            },
            other => {
                eprintln!("unknown runtime '{other}' (expected des|live)");
                return 2;
            }
        };
        let live_ok = runtime != "live" || check_live_speedup(&series);
        report = report.with_scaling(&runtime, series);
        if !live_ok {
            // Still write the artifact so the failure is inspectable.
            let _ = std::fs::write(&out_path, report.to_json());
            return 1;
        }
    }

    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("cannot write {out_path}: {e}");
        return 2;
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
            eprintln!(
                "--audit-out: the run produced no decision log (mode '{mode}' never updates w?)"
            );
            return 2;
        };
        if let Err(e) = std::fs::write(&path, log.to_jsonl()) {
            eprintln!("cannot write {path}: {e}");
            return 2;
        }
        println!(
            "{app}: {} balancer decisions -> {path} (render with `nba-bench explain {path}`)",
            log.records.len()
        );
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
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 2;
        }
    };
    let log = match nba_core::audit::DecisionLog::from_jsonl(&text) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{path}: {e}");
            return 2;
        }
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
    let tol_of = |name: &str, default: f64| -> f64 {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .or_else(|| {
                args.iter()
                    .find_map(|a| a.strip_prefix(&format!("{name}=")).map(str::to_string))
            })
            .map(|v| match v.parse() {
                Ok(f) => f,
                Err(_) => {
                    eprintln!("{name}: not a number: {v}");
                    std::process::exit(2);
                }
            })
            .unwrap_or(default)
    };
    let defaults = Tolerances::default();
    let tol = Tolerances {
        throughput_rel: tol_of("--tol-throughput", defaults.throughput_rel),
        latency_rel: tol_of("--tol-latency", defaults.latency_rel),
        w_abs: tol_of("--tol-w", defaults.w_abs),
        ..defaults
    };
    let load = |path: &str| -> BenchReport {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        match BenchReport::parse(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            }
        }
    };
    let base = load(base_path);
    let cur = load(cur_path);
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

fn cmd_top(args: &[String]) -> i32 {
    let [addr] = positionals(args)[..] else {
        usage();
    };
    let opt = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .or_else(|| {
                args.iter()
                    .find_map(|a| a.strip_prefix(&format!("{name}=")).map(str::to_string))
            })
    };
    let interval = opt("--interval")
        .or_else(|| opt("--interval-ms"))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(1000);
    let count = opt("--count")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(1);
    for i in 0..count.max(1) {
        let body = match fetch(addr, "/status") {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        };
        let doc = match nba_core::json::parse(&body) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("{addr}: bad /status JSON: {e:?}");
                return 2;
            }
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
        _ => usage(),
    };
    std::process::exit(code);
}
