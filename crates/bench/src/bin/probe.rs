//! Calibration probe: prints detailed counters for one configuration.
//!
//! Usage: `probe [app] [size] [mode] [flags...]`
//!
//! * `app`  — `v4` | `v6` | `ipsec` | `ids` (default `v6`)
//! * `size` — fixed packet size in bytes (default 64)
//! * `mode` — `cpu` | `gpu` | `alb` | a fixed offload fraction like `0.5`
//!   (default `cpu`)
//!
//! Telemetry flags:
//!
//! * `--elements`  — per-element profile table
//! * `--series`    — run time-series as JSONL (w-vs-time, Figures 12/13)
//! * `--trace[=N]` — batch-lifecycle trace as JSONL (ring of N events per
//!   worker, default 4096)
//! * `--chrome`    — emit the batch trace as Chrome Trace Event Format
//!   JSON only (open in Perfetto / `chrome://tracing`); implies `--trace`
//! * `--prom`      — the whole report in Prometheus text format
//! * `--json`      — the run as a canonical `BenchReport` JSON document
//!   (the same schema `nba-bench run` writes to `BENCH_*.json`)
//! * `--no-telemetry` — disable the sampler (for determinism comparisons)
//! * `--faults=SPEC` — run under a seeded fault plan (see
//!   `FaultPlan::parse`, e.g. `seed=7,transient=0.2,die_at_ms=30`); the
//!   summary gains a fault-accounting line
//!
//! Static analysis:
//!
//! * `probe --check [flags...] <config.click>...` — the `nba-lint` front end
//!   (`nba_bench::lint`, same flags and output) with `--deny-warnings`
//!   always on: any diagnostic, warnings included, is a nonzero exit (CI
//!   keeps shipped configs spotless).
use nba_apps::{pipelines, AppConfig};
use nba_bench::report::BenchReport;
use nba_core::lb;
use nba_core::runtime::{des, traffic_per_port, RuntimeConfig};
use nba_core::telemetry::{
    self, profile_table, report_to_prometheus, samples_to_jsonl, trace_to_chrome, trace_to_jsonl,
};
use nba_io::{IpVersion, SizeDist, TrafficConfig};
use nba_sim::Time;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        let rest: Vec<String> = args.iter().filter(|a| *a != "--check").cloned().collect();
        let status = nba_bench::lint::run("probe --check", &rest, true, &mut std::io::stdout());
        std::process::exit(status.expect("write to stdout").into());
    }
    let positional: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let which = positional.first().copied().unwrap_or("v6");
    let size: usize = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(64);
    let mode = positional.get(2).copied().unwrap_or("cpu");

    let flag = |name: &str| args.iter().any(|a| a == name);
    let show_elements = flag("--elements");
    let show_series = flag("--series");
    let show_prom = flag("--prom");
    let trace_capacity: usize = args
        .iter()
        .find_map(|a| {
            a.strip_prefix("--trace").map(|rest| {
                rest.strip_prefix('=')
                    .and_then(|n| n.parse().ok())
                    .unwrap_or(4096)
            })
        })
        // --chrome is useless without a trace buffer, so it implies one.
        .unwrap_or(if flag("--chrome") { 4096 } else { 0 });

    let mut telemetry = telemetry::TelemetryConfig {
        trace_capacity,
        ..Default::default()
    };
    if flag("--no-telemetry") {
        telemetry = telemetry::TelemetryConfig::off();
    }

    // The `alb` mode shortens the balancer's observation interval so its
    // hill-climb is visible within the probe's short horizon (the full
    // Figure 12/13 sweeps use the paper's 0.2 s interval over seconds).
    let (warmup, measure) = if mode == "alb" {
        (Time::from_ms(10), Time::from_ms(120))
    } else {
        (Time::from_ms(14), Time::from_ms(28))
    };
    let mut cfg = RuntimeConfig {
        warmup,
        measure,
        telemetry,
        ..RuntimeConfig::default()
    };
    if let Some(spec) = args.iter().find_map(|a| a.strip_prefix("--faults=")) {
        // Spanned parse: the error names the offending byte range.
        match nba_core::parse_faults_flag(spec) {
            Ok(plan) => cfg.fault.plan = plan,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
    let app = AppConfig {
        ports: 8,
        ..AppConfig::default()
    };
    let (pipeline, v6) = match which {
        "v4" => (pipelines::ipv4_router(&app), false),
        "v6" => (pipelines::ipv6_router(&app), true),
        "ipsec" => (pipelines::ipsec_gateway(&app), false),
        "ids" => (pipelines::ids(&app).0, false),
        _ => panic!("unknown app"),
    };
    let traffic = traffic_per_port(
        &cfg.topology,
        &TrafficConfig {
            offered_gbps: 10.0,
            size: SizeDist::Fixed(size),
            ip_version: if v6 { IpVersion::V6 } else { IpVersion::V4 },
            ..TrafficConfig::default()
        },
    );
    let balancer: lb::SharedBalancer = match mode {
        "cpu" => lb::shared(Box::new(lb::CpuOnly)),
        "gpu" => lb::shared(Box::new(lb::GpuOnly)),
        "alb" => lb::shared(Box::new(lb::Adaptive::new(lb::AlbConfig {
            update_interval: Time::from_ms(1),
            avg_window: 2,
            min_wait: 0,
            max_wait: 2,
            initial_w: 0.5,
            ..lb::AlbConfig::default()
        }))),
        w => lb::shared(Box::new(lb::FixedFraction::new(w.parse().unwrap()))),
    };
    let r = des::run(&cfg, &pipeline, &balancer, &traffic);
    if flag("--json") {
        // The same versioned schema `nba-bench run` writes, so one parser
        // serves both tools.
        print!(
            "{}",
            BenchReport::from_run(which, &cfg, &r, false).to_json()
        );
        return;
    }
    if flag("--chrome") {
        // Pure JSON on stdout so `probe ... --trace --chrome > t.json`
        // loads straight into Perfetto (implies --trace if not given).
        print!("{}", trace_to_chrome(&r.trace, &r.elements));
        return;
    }
    println!(
        "{which} {size}B {mode}: {:.2} Gbps ({:.2} Mpps)",
        r.tx_gbps,
        r.tx_mpps()
    );
    println!("  window {:?}", r.window);
    println!(
        "  rx_dropped {} offered {}",
        r.rx_dropped, r.offered_packets
    );
    for (i, g) in r.gpu.iter().enumerate() {
        println!(
            "  gpu{i}: tasks {} h2d {}MB d2h {}MB kbusy {} cbusy {}",
            g.tasks,
            g.h2d_bytes / 1_000_000,
            g.d2h_bytes / 1_000_000,
            g.kernel_busy,
            g.copy_busy
        );
    }
    println!(
        "  lat p50 {} p999 {}",
        r.latency.percentile(50.0),
        r.latency.percentile(99.9)
    );
    println!(
        "  final_w {:.3} samples {} trace_events {}",
        r.final_w,
        r.samples.len(),
        r.trace.len()
    );
    if cfg.fault.plan.is_active() {
        let f = &r.faults.snapshot;
        println!(
            "  faults injected {} (timeout {} transient {} corrupt {} dead {}) retried {}",
            f.injected(),
            f.injected_timeout,
            f.injected_transient,
            f.injected_corrupt,
            f.injected_dead,
            f.retried,
        );
        println!(
            "  fell_back {} pkts dropped {} pkts quarantines {} (re-admitted {})",
            f.fell_back_packets, f.dropped_packets, f.quarantine_entered, f.quarantine_exited,
        );
    }

    if show_elements {
        println!("\n== per-element profiles (whole run) ==");
        print!("{}", profile_table(&r.elements));
    }
    if show_series {
        println!("\n== time-series (JSONL) ==");
        print!("{}", samples_to_jsonl(&r.samples));
    }
    if trace_capacity > 0 {
        println!("\n== batch-lifecycle trace (JSONL) ==");
        print!("{}", trace_to_jsonl(&r.trace));
    }
    if show_prom {
        println!("\n== prometheus ==");
        print!("{}", report_to_prometheus(&r));
    }
}
