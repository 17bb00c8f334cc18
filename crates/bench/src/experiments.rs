//! Reproductions of every figure/table in the paper's evaluation (§4).
//!
//! Each function runs the relevant parameter sweep on the simulated paper
//! testbed, prints the series the figure plots, and returns the numbers so
//! tests can assert the qualitative shape (who wins, where the crossovers
//! fall). `EXPERIMENTS.md` records paper-vs-measured values.

use nba_apps::{pipelines, AppConfig};

use nba_core::graph::BranchPolicy;
use nba_core::lb::{self, AlbConfig, SharedBalancer};
use nba_core::runtime::{des, traffic_per_port, RuntimeConfig};
use nba_io::{IpVersion, SizeDist, TrafficConfig};
use nba_sim::Time;

use crate::cli::{self, Mode};
use crate::table::Table;

/// Global experiment options.
#[derive(Debug, Clone, Copy)]
pub struct ExpOpts {
    /// Shrinks sweeps for smoke runs (`NBA_QUICK=1`).
    pub quick: bool,
}

impl ExpOpts {
    /// Reads options from the environment.
    pub fn from_env() -> ExpOpts {
        ExpOpts {
            quick: std::env::var("NBA_QUICK").is_ok_and(|v| v != "0"),
        }
    }
}

/// The measurement configuration used by throughput experiments.
pub fn base_cfg() -> RuntimeConfig {
    RuntimeConfig {
        warmup: Time::from_ms(14),
        measure: Time::from_ms(28),
        ..RuntimeConfig::default()
    }
}

/// App sizing matching the evaluation (tables cached across runs).
pub fn base_app(cfg: &RuntimeConfig) -> AppConfig {
    AppConfig {
        ports: cfg.topology.ports.len() as u16,
        ..AppConfig::default()
    }
}

/// Fixed-size traffic at `gbps` per port.
fn fixed(cfg: &RuntimeConfig, size: usize, v6: bool, gbps: f64) -> Vec<TrafficConfig> {
    traffic_per_port(
        &cfg.topology,
        &TrafficConfig {
            offered_gbps: gbps,
            size: SizeDist::Fixed(size),
            ip_version: if v6 { IpVersion::V6 } else { IpVersion::V4 },
            ..TrafficConfig::default()
        },
    )
}

/// Full line-rate fixed-size traffic (10 Gbps per port).
fn line_rate(cfg: &RuntimeConfig, size: usize, v6: bool) -> Vec<TrafficConfig> {
    fixed(cfg, size, v6, 10.0)
}

/// The CAIDA-like mixed-size trace stand-in (Figure 2/13 workload).
fn caida(cfg: &RuntimeConfig) -> Vec<TrafficConfig> {
    traffic_per_port(
        &cfg.topology,
        &TrafficConfig {
            offered_gbps: 10.0,
            size: SizeDist::CaidaLike,
            zipf_alpha: 1.1,
            flows: 16_384,
            ..TrafficConfig::default()
        },
    )
}

/// The scaled ALB configuration used in simulation, `nba-bench --mode alb`
/// included (same algorithm as the paper's 0.2 s / δ=4 % defaults, time
/// constants shrunk to fit the simulated horizon; documented in
/// EXPERIMENTS.md).
pub fn sim_alb() -> AlbConfig {
    // The observation cadence must exceed the offload pipeline's response
    // time (several ms at large frames), exactly why the paper grows its
    // waiting interval with w.
    AlbConfig {
        delta: 0.08,
        update_interval: Time::from_ms(4),
        avg_window: 2,
        min_wait: 0,
        max_wait: 2,
        initial_w: 0.5,
    }
}

// --- Figure 1 / Figure 10: the batch-split problem and branch prediction ---

/// One row of the split experiments.
#[derive(Debug, Clone, Copy)]
pub struct SplitRow {
    /// Minority-path share in percent.
    pub minority_pct: u32,
    /// Baseline (no branch) Gbps.
    pub baseline: f64,
    /// Splitting-into-new-batches Gbps.
    pub split: f64,
    /// Branch-prediction (masking) Gbps.
    pub masked: f64,
}

/// Runs the branch experiments once; Figure 1 uses (baseline, split),
/// Figure 10 adds the masking curve.
pub fn split_experiment(opts: ExpOpts) -> Vec<SplitRow> {
    // Five workers per socket: the echo baseline then sits right at the
    // 64-byte line rate, so split/mask overheads surface as throughput
    // drops (the regime of the paper's Figures 1/10).
    let cfg = RuntimeConfig {
        workers_per_socket: 5,
        ..base_cfg()
    };
    let ratios: &[u32] = if opts.quick {
        &[50, 10, 1]
    } else {
        &[50, 40, 30, 20, 10, 5, 1]
    };
    let ports = cfg.topology.ports.len() as u16;
    let traffic = line_rate(&cfg, 64, false);
    let baseline = des::run(&cfg, &pipelines::echo(ports), &Mode::Cpu.shared(), &traffic).tx_gbps;
    let mut rows = Vec::new();
    for &pct in ratios {
        let minority = pct as f64 / 100.0;
        let split_cfg = RuntimeConfig {
            branch_policy: BranchPolicy::SplitAlways,
            ..cfg.clone()
        };
        let split = des::run(
            &split_cfg,
            &pipelines::branch_echo(minority, ports),
            &Mode::Cpu.shared(),
            &traffic,
        )
        .tx_gbps;
        let mask_cfg = RuntimeConfig {
            branch_policy: BranchPolicy::Predict,
            ..cfg.clone()
        };
        let masked = des::run(
            &mask_cfg,
            &pipelines::branch_echo(minority, ports),
            &Mode::Cpu.shared(),
            &traffic,
        )
        .tx_gbps;
        rows.push(SplitRow {
            minority_pct: pct,
            baseline,
            split,
            masked,
        });
    }
    rows
}

/// Figure 1: throughput drop by relative split-batch size.
pub fn fig1(opts: ExpOpts) -> Vec<SplitRow> {
    let rows = split_experiment(opts);
    println!("== Figure 1: throughput drop by batch splitting (64 B, 80 Gbps offered) ==");
    let mut t = Table::new(vec!["minority %", "baseline Gbps", "split Gbps", "drop %"]);
    for r in &rows {
        t.row(vec![
            r.minority_pct.to_string(),
            format!("{:.1}", r.baseline),
            format!("{:.1}", r.split),
            format!("{:.0}", (1.0 - r.split / r.baseline) * 100.0),
        ]);
    }
    t.print();
    println!("paper: splitting degrades throughput by up to 40 %\n");
    rows
}

/// Figure 10: branch prediction vs. worst-case splitting.
pub fn fig10(opts: ExpOpts) -> Vec<SplitRow> {
    let rows = split_experiment(opts);
    println!("== Figure 10: branch prediction benefit (64 B, 80 Gbps offered) ==");
    let mut t = Table::new(vec![
        "minority %",
        "baseline",
        "split-new",
        "masked (pred.)",
        "mask drop %",
    ]);
    for r in &rows {
        t.row(vec![
            r.minority_pct.to_string(),
            format!("{:.1}", r.baseline),
            format!("{:.1}", r.split),
            format!("{:.1}", r.masked),
            format!("{:.0}", (1.0 - r.masked / r.baseline) * 100.0),
        ]);
    }
    t.print();
    println!("paper: worst case -38..41 %; masking limits the drop to ~10 % at 1 % minority\n");
    rows
}

// --- Figure 2: IPsec throughput vs offloading fraction ---

/// Figure 2: performance variation by offloading fraction (CAIDA trace).
pub fn fig2(opts: ExpOpts) -> Vec<(f64, f64)> {
    let cfg = base_cfg();
    let app = base_app(&cfg);
    let pipeline = pipelines::ipsec_gateway(&app);
    let traffic = caida(&cfg);
    let steps: Vec<f64> = if opts.quick {
        vec![0.0, 0.5, 0.8, 1.0]
    } else {
        (0..=10).map(|k| k as f64 / 10.0).collect()
    };
    let mut rows = Vec::new();
    for w in steps {
        let r = des::run(&cfg, &pipeline, &Mode::Fixed(w).shared(), &traffic);
        rows.push((w, r.tx_gbps));
    }
    println!("== Figure 2: IPsec gateway vs offloading fraction (CAIDA-like mix) ==");
    let mut t = Table::new(vec!["w %", "Gbps", "vs GPU-only %"]);
    let gpu_gbps = rows.last().map_or(1.0, |r| r.1);
    for (w, g) in &rows {
        t.row(vec![
            format!("{:.0}", w * 100.0),
            format!("{g:.2}"),
            format!("{:+.0}", (g / gpu_gbps - 1.0) * 100.0),
        ]);
    }
    t.print();
    println!("paper: optimum near w=80 %, +20 % over GPU-only, +40 % over CPU-only\n");
    rows
}

// --- §4.2 / Figure 9: computation batching ---

/// Figure 9: throughput by computation batch size.
pub fn fig9(_opts: ExpOpts) -> Vec<(String, [f64; 3])> {
    let sizes = [1usize, 32, 64];
    let cases: Vec<(String, usize, bool, bool)> = vec![
        // (label, frame size, v6, ipsec)
        ("IPv4, 64B".to_owned(), 64, false, false),
        ("IPv6, 64B".to_owned(), 64, true, false),
        ("IPsec, 64B".to_owned(), 64, false, true),
        ("IPsec, 1500B".to_owned(), 1500, false, true),
    ];
    let mut rows = Vec::new();
    for (label, frame, v6, ipsec) in cases {
        let mut out = [0.0; 3];
        for (i, &comp) in sizes.iter().enumerate() {
            let cfg = RuntimeConfig {
                comp_batch: comp,
                ..base_cfg()
            };
            let app = base_app(&cfg);
            let pipeline = if ipsec {
                pipelines::ipsec_gateway(&app)
            } else if v6 {
                pipelines::ipv6_router(&app)
            } else {
                pipelines::ipv4_router(&app)
            };
            let traffic = line_rate(&cfg, frame, v6);
            out[i] = des::run(&cfg, &pipeline, &Mode::Cpu.shared(), &traffic).tx_gbps;
        }
        rows.push((label, out));
    }
    println!("== Figure 9: computation batching (batch size 1 / 32 / 64) ==");
    let mut t = Table::new(vec!["case", "1", "32", "64", "speedup 64/1"]);
    for (label, g) in &rows {
        t.row(vec![
            label.clone(),
            format!("{:.1}", g[0]),
            format!("{:.1}", g[1]),
            format!("{:.1}", g[2]),
            format!("{:.1}x", g[2] / g[0].max(1e-9)),
        ]);
    }
    t.print();
    println!("paper: 1.7x - 5.2x gains at 64 B; ~10 % for IPsec at 1500 B\n");
    rows
}

// --- §4.2: composition overhead ---

/// Composition overhead: latency of linear no-op pipelines at 1 Gbps.
pub fn composition(_opts: ExpOpts) -> Vec<(usize, f64, f64)> {
    let cfg = RuntimeConfig {
        warmup: Time::from_ms(5),
        measure: Time::from_ms(20),
        gen_window: Time::from_us(1),
        ..base_cfg()
    };
    let ports = cfg.topology.ports.len() as u16;
    // 1 Gbps across the machine = 0.125 Gbps per port.
    let traffic = fixed(&cfg, 64, false, 0.125);
    let mut rows = Vec::new();
    for noops in 0..=9usize {
        let r = des::run(
            &cfg,
            &pipelines::noop_chain(noops, ports),
            &Mode::Cpu.shared(),
            &traffic,
        );
        rows.push((
            noops,
            r.latency.mean().as_us_f64(),
            r.latency.percentile(99.9).as_us_f64(),
        ));
    }
    println!("== §4.2: composition overhead (no-op chain, 1 Gbps, 64 B) ==");
    let mut t = Table::new(vec!["no-ops", "mean us", "p99.9 us"]);
    for (n, mean, p999) in &rows {
        t.row(vec![
            n.to_string(),
            format!("{mean:.2}"),
            format!("{p999:.2}"),
        ]);
    }
    t.print();
    println!("paper: 16.1 us baseline; ~+1 us after adding 9 no-op elements\n");
    rows
}

// --- Figure 11: multicore scalability ---

/// One figure-11 series: `(app, gpu?, [(workers, gbps)])`.
pub type ScalingSeries = (String, bool, Vec<(u32, f64)>);

/// Figure 11: throughput vs worker threads (CPU-only and GPU-only).
pub fn fig11(opts: ExpOpts) -> Vec<ScalingSeries> {
    let workers: &[u32] = if opts.quick { &[1, 7] } else { &[1, 2, 4, 7] };
    let apps: [(&str, bool, bool); 3] = [
        ("IPv4", false, false),
        ("IPv6", true, false),
        ("IPsec", false, true),
    ];
    let mut out = Vec::new();
    for gpu in [false, true] {
        for (name, v6, ipsec) in apps {
            let mut series = Vec::new();
            for &w in workers {
                let cfg = RuntimeConfig {
                    workers_per_socket: w,
                    ..base_cfg()
                };
                let app = base_app(&cfg);
                let pipeline = if ipsec {
                    pipelines::ipsec_gateway(&app)
                } else if v6 {
                    pipelines::ipv6_router(&app)
                } else {
                    pipelines::ipv4_router(&app)
                };
                let balancer = if gpu { Mode::Gpu } else { Mode::Cpu }.shared();
                let traffic = line_rate(&cfg, 64, v6);
                let r = des::run(&cfg, &pipeline, &balancer, &traffic);
                series.push((w, r.tx_gbps));
            }
            out.push((name.to_owned(), gpu, series));
        }
    }
    for gpu in [false, true] {
        println!(
            "== Figure 11{}: {} scalability by worker threads (64 B) ==",
            if gpu { "b" } else { "a" },
            if gpu { "GPU-only" } else { "CPU-only" },
        );
        let mut t = Table::new(vec!["app", "1", "2", "4", "7", "scaling 7/1"]);
        for (name, g, series) in &out {
            if *g != gpu {
                continue;
            }
            let find = |w: u32| {
                series
                    .iter()
                    .find(|(x, _)| *x == w)
                    .map_or("-".to_owned(), |(_, v)| format!("{v:.1}"))
            };
            let first = series.first().map_or(1.0, |(_, v)| *v);
            let last = series.last().map_or(1.0, |(_, v)| *v);
            t.row(vec![
                name.clone(),
                find(1),
                find(2),
                find(4),
                find(7),
                format!("{:.1}x", last / first.max(1e-9)),
            ]);
        }
        t.print();
        println!();
    }
    println!(
        "paper: near-linear CPU scaling; GPU-only saturates earlier (device-thread overhead)\n"
    );
    out
}

// --- Figure 12: CPU-only vs GPU-only by packet size ---

/// One figure-12 series: `(app, [(size, cpu_gbps, gpu_gbps)])`.
pub type SizeSweepSeries = (String, Vec<(usize, f64, f64)>);

/// Figure 12: throughput by packet size for each application.
pub fn fig12(opts: ExpOpts) -> Vec<SizeSweepSeries> {
    let sizes: &[usize] = if opts.quick {
        &[64, 256, 1024]
    } else {
        &[64, 128, 256, 512, 1024, 1500]
    };
    let apps: [(&str, bool, bool); 3] = [
        ("IPv4", false, false),
        ("IPv6", true, false),
        ("IPsec", false, true),
    ];
    let cfg = base_cfg();
    let app = base_app(&cfg);
    let mut out = Vec::new();
    for (name, v6, ipsec) in apps {
        let pipeline = if ipsec {
            pipelines::ipsec_gateway(&app)
        } else if v6 {
            pipelines::ipv6_router(&app)
        } else {
            pipelines::ipv4_router(&app)
        };
        let mut rows = Vec::new();
        for &size in sizes {
            let size = if v6 { size.max(64) } else { size };
            let traffic = line_rate(&cfg, size, v6);
            let c = des::run(&cfg, &pipeline, &Mode::Cpu.shared(), &traffic).tx_gbps;
            let g = des::run(&cfg, &pipeline, &Mode::Gpu.shared(), &traffic).tx_gbps;
            rows.push((size, c, g));
        }
        out.push((name.to_owned(), rows));
    }
    for (name, rows) in &out {
        println!("== Figure 12: {name} throughput by packet size ==");
        let mut t = Table::new(vec!["size B", "CPU-only", "GPU-only", "GPU/CPU"]);
        for (s, c, g) in rows {
            t.row(vec![
                s.to_string(),
                format!("{c:.1}"),
                format!("{g:.1}"),
                format!("{:.2}", g / c.max(1e-9)),
            ]);
        }
        t.print();
        println!();
    }
    println!(
        "paper: IPv4 CPU wins (0-37 %); IPv6 GPU wins (0-75 %); IPsec GPU wins at <256 B,\n\
         CPU at >=512 B; routers reach 80 Gbps at large frames\n"
    );
    out
}

// --- Figure 13: the adaptive load balancer ---

/// One Figure 13 workload case.
#[derive(Debug, Clone)]
pub struct AlbCase {
    /// Case label, e.g. "IPsec, 256B".
    pub label: String,
    /// CPU-only Gbps.
    pub cpu: f64,
    /// GPU-only Gbps.
    pub gpu: f64,
    /// Best fixed-fraction Gbps from the manual sweep.
    pub manual: f64,
    /// Offloading fraction of the manual optimum.
    pub manual_w: f64,
    /// ALB-converged Gbps.
    pub alb: f64,
    /// Final ALB offloading fraction.
    pub alb_w: f64,
}

/// Figure 13: ALB vs manually-tuned vs CPU/GPU-only across workloads.
pub fn fig13(opts: ExpOpts) -> Vec<AlbCase> {
    let cases = [
        ("IPv4, 64B", "ipv4", Some(64)),
        ("IPv6, 64B", "ipv6", Some(64)),
        ("IPsec, 64B", "ipsec", Some(64)),
        ("IPsec, 256B", "ipsec", Some(256)),
        ("IPsec, 512B", "ipsec", Some(512)),
        ("IPsec, 1024B", "ipsec", Some(1024)),
        ("IDS, 64B", "ids", Some(64)),
        ("IPsec, CAIDA", "ipsec", None),
    ];
    let sweep: Vec<f64> = if opts.quick {
        vec![0.0, 0.5, 1.0]
    } else {
        (0..=10).map(|k| k as f64 / 10.0).collect()
    };
    let cfg = base_cfg();
    let app = base_app(&cfg);
    let mut out = Vec::new();
    for (label, name, size) in cases {
        let (_, pipeline, v6) = cli::app(name, &app).expect("a known app");
        let traffic = match size {
            Some(s) => line_rate(&cfg, s, v6),
            None => caida(&cfg),
        };
        let mut manual = (0.0f64, 0.0f64);
        let mut cpu = 0.0;
        let mut gpu = 0.0;
        for &w in &sweep {
            let g = des::run(&cfg, &pipeline, &Mode::Fixed(w).shared(), &traffic).tx_gbps;
            if w == 0.0 {
                cpu = g;
            }
            if w == 1.0 {
                gpu = g;
            }
            if g > manual.1 {
                manual = (w, g);
            }
        }
        // ALB with a longer horizon so it can walk from w = 0.5 even with
        // the slowed observation cadence.
        let alb_cfg = RuntimeConfig {
            warmup: Time::from_ms(110),
            measure: Time::from_ms(28),
            ..cfg.clone()
        };
        let balancer = Mode::Alb.shared();
        let r = des::run(&alb_cfg, &pipeline, &balancer, &traffic);
        out.push(AlbCase {
            label: label.to_owned(),
            cpu,
            gpu,
            manual: manual.1,
            manual_w: manual.0,
            alb: r.tx_gbps,
            alb_w: r.final_w,
        });
    }
    println!("== Figure 13: adaptive load balancing across workloads ==");
    let mut t = Table::new(vec![
        "case",
        "CPU-only",
        "GPU-only",
        "manual",
        "w*",
        "ALB",
        "w",
        "ALB/manual %",
    ]);
    for c in &out {
        t.row(vec![
            c.label.clone(),
            format!("{:.1}", c.cpu),
            format!("{:.1}", c.gpu),
            format!("{:.1}", c.manual),
            format!("{:.0}%", c.manual_w * 100.0),
            format!("{:.1}", c.alb),
            format!("{:.0}%", c.alb_w * 100.0),
            format!("{:.0}", c.alb / c.manual.max(1e-9) * 100.0),
        ]);
    }
    t.print();
    println!("paper: ALB reaches >= 92 % of the manually-tuned optimum in all cases\n");
    out
}

// --- Figure 14: latency distributions ---

/// One latency case: label, mode, percentiles in microseconds.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Case label.
    pub label: String,
    /// `true` for the GPU-only configuration.
    pub gpu: bool,
    /// Minimum.
    pub min_us: f64,
    /// Mean.
    pub mean_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 99.9th percentile.
    pub p999_us: f64,
}

/// Figure 14: round-trip latency distributions under medium load.
pub fn fig14(_opts: ExpOpts) -> Vec<LatencyRow> {
    let cfg = RuntimeConfig {
        warmup: Time::from_ms(5),
        measure: Time::from_ms(20),
        gen_window: Time::from_us(1),
        ..base_cfg()
    };
    let app = base_app(&cfg);
    let ports = cfg.topology.ports.len() as u16;
    // 10 Gbps total (1.25 per port); 3 Gbps total for IPsec.
    let light = |size: usize, v6: bool| fixed(&cfg, size, v6, 1.25);
    let ipsec_light = |size: usize| fixed(&cfg, size, false, 0.375);

    struct Case {
        label: String,
        pipeline: nba_core::runtime::PipelineBuilder,
        traffic: Vec<TrafficConfig>,
        cpu_only_case: bool,
    }
    let mut cases = vec![
        Case {
            label: "L2fwd, 64B".to_owned(),
            pipeline: pipelines::l2fwd(ports),
            traffic: light(64, false),
            cpu_only_case: true,
        },
        Case {
            label: "IPv4, 64B".to_owned(),
            pipeline: pipelines::ipv4_router(&app),
            traffic: light(64, false),
            cpu_only_case: false,
        },
        Case {
            label: "IPv6, 64B".to_owned(),
            pipeline: pipelines::ipv6_router(&app),
            traffic: light(64, true),
            cpu_only_case: false,
        },
        Case {
            label: "IPsec, 64B".to_owned(),
            pipeline: pipelines::ipsec_gateway(&app),
            traffic: ipsec_light(64),
            cpu_only_case: false,
        },
        Case {
            label: "IPsec, 1024B".to_owned(),
            pipeline: pipelines::ipsec_gateway(&app),
            traffic: ipsec_light(1024),
            cpu_only_case: false,
        },
    ];
    let mut rows = Vec::new();
    for case in cases.drain(..) {
        for gpu in [false, true] {
            if gpu && case.cpu_only_case {
                continue;
            }
            let balancer = if gpu { Mode::Gpu } else { Mode::Cpu }.shared();
            let r = des::run(&cfg, &case.pipeline, &balancer, &case.traffic);
            rows.push(LatencyRow {
                label: case.label.clone(),
                gpu,
                min_us: r.latency.min().as_us_f64(),
                mean_us: r.latency.mean().as_us_f64(),
                p50_us: r.latency.percentile(50.0).as_us_f64(),
                p999_us: r.latency.percentile(99.9).as_us_f64(),
            });
        }
    }
    println!("== Figure 14: round-trip latency (medium load) ==");
    let mut t = Table::new(vec![
        "case", "mode", "min us", "mean us", "p50 us", "p99.9 us",
    ]);
    for r in &rows {
        t.row(vec![
            r.label.clone(),
            if r.gpu {
                "GPU".to_owned()
            } else {
                "CPU".to_owned()
            },
            format!("{:.1}", r.min_us),
            format!("{:.1}", r.mean_us),
            format!("{:.1}", r.p50_us),
            format!("{:.1}", r.p999_us),
        ]);
    }
    t.print();
    println!(
        "paper: CPU-only 99.9 % within 43 us (L2fwd) / 60 us (routers) / 250 us (IPsec);\n\
         GPU-only 8-14x higher mean; IPsec GPU minimum ~287 us\n"
    );
    rows
}

// --- Table 3 ---

/// Table 3: the modeled hardware configuration.
pub fn table3() {
    let topo = nba_sim::Topology::paper_testbed();
    println!("== Table 3: simulated hardware configuration ==");
    let mut t = Table::new(vec!["category", "specification"]);
    t.row(vec![
        "CPU".to_owned(),
        format!(
            "{} sockets x {} cores (Xeon E5-2670 class, 2.6 GHz)",
            topo.sockets.len(),
            topo.sockets[0].cores
        ),
    ]);
    t.row(vec![
        "NIC".to_owned(),
        format!(
            "{} x 10 GbE ports ({} Gbps total)",
            topo.ports.len(),
            topo.total_line_rate_gbps()
        ),
    ]);
    t.row(vec![
        "GPU".to_owned(),
        format!("{} x {} (simulated)", topo.gpus.len(), topo.gpus[0].name),
    ]);
    t.print();
    println!();
}

// --- Ablation: offload aggregation size (§3.3 / §4.6 discussion) ---

/// Aggregation-size ablation: IPsec GPU-only throughput and latency by the
/// number of batches aggregated per offload task.
pub fn ablation_aggregation(opts: ExpOpts) -> Vec<(usize, f64, f64)> {
    let aggs: &[usize] = if opts.quick {
        &[1, 32]
    } else {
        &[1, 4, 8, 16, 32, 64]
    };
    let app = base_app(&base_cfg());
    let pipeline = pipelines::ipsec_gateway(&app);
    let mut rows = Vec::new();
    for &agg in aggs {
        let cfg = RuntimeConfig {
            offload_aggregate: agg,
            ..base_cfg()
        };
        let traffic = line_rate(&cfg, 64, false);
        let r = des::run(&cfg, &pipeline, &Mode::Gpu.shared(), &traffic);
        rows.push((agg, r.tx_gbps, r.latency.mean().as_us_f64()));
    }
    println!("== Ablation: offload aggregation size (IPsec GPU-only, 64 B) ==");
    let mut t = Table::new(vec!["agg batches", "Gbps", "mean latency us"]);
    for (a, g, l) in &rows {
        t.row(vec![a.to_string(), format!("{g:.1}"), format!("{l:.1}")]);
    }
    t.print();
    println!(
        "paper (§3.3/§4.6): ~32 batches needed to feed the GPU; latency grows with aggregation\n"
    );
    rows
}

// --- Ablation: datablock reuse (§3.3 future work) ---

/// Datablock-reuse ablation: the IPsec AES->HMAC chain with and without
/// fusing the two offloads into one device round trip.
pub fn ablation_datablock(_opts: ExpOpts) -> Vec<(usize, f64, f64)> {
    let app = base_app(&base_cfg());
    let pipeline = pipelines::ipsec_gateway(&app);
    let mut rows = Vec::new();
    for &size in &[64usize, 256, 1024] {
        let mut out = [0.0f64; 2];
        for (i, reuse) in [false, true].into_iter().enumerate() {
            let cfg = RuntimeConfig {
                datablock_reuse: reuse,
                ..base_cfg()
            };
            let traffic = line_rate(&cfg, size, false);
            out[i] = des::run(&cfg, &pipeline, &Mode::Gpu.shared(), &traffic).tx_gbps;
        }
        rows.push((size, out[0], out[1]));
    }
    println!("== Ablation: datablock reuse (IPsec GPU-only, fused AES->HMAC) ==");
    let mut t = Table::new(vec!["size B", "separate Gbps", "fused Gbps", "gain %"]);
    for (s, a, b) in &rows {
        t.row(vec![
            s.to_string(),
            format!("{a:.1}"),
            format!("{b:.1}"),
            format!("{:+.0}", (b / a - 1.0) * 100.0),
        ]);
    }
    t.print();
    println!(
        "paper (§3.3): reusing GPU-resident datablocks between offloadable elements is\n\
         proposed as future work; fusing halves PCIe traffic and launch overheads\n"
    );
    rows
}

// --- Extension: bounded-latency balancing (§7 future work) ---

/// Bounded-latency balancing: IPsec under GPU-favourable traffic with a
/// latency ceiling; tighter bounds trade throughput for latency.
pub fn bounded_latency(_opts: ExpOpts) -> Vec<(String, f64, f64, f64)> {
    let cfg = RuntimeConfig {
        warmup: Time::from_ms(110),
        measure: Time::from_ms(28),
        ..base_cfg()
    };
    let app = base_app(&cfg);
    let pipeline = pipelines::ipsec_gateway(&app);
    // Below the CPU-only capacity (~7 Gbps at 64 B): throughput is then
    // attainable at any w and the bound trades only the GPU path's latency
    // premium; at saturating loads queueing dominates latency for every w
    // and the bound cannot help (the regime §7 wants to escape).
    let traffic = fixed(&cfg, 64, false, 0.75);
    let alb = |bound: Option<Time>| -> SharedBalancer {
        let inner = lb::Adaptive::new(sim_alb());
        match bound {
            None => lb::shared(Box::new(inner)),
            Some(b) => lb::shared(Box::new(lb::LatencyBounded::new(inner, b))),
        }
    };
    let cases = [
        ("unbounded".to_owned(), None),
        ("bound 400us".to_owned(), Some(Time::from_us(400))),
        ("bound 150us".to_owned(), Some(Time::from_us(150))),
        ("bound 40us".to_owned(), Some(Time::from_us(40))),
    ];
    let mut rows = Vec::new();
    for (label, bound) in cases {
        let balancer = alb(bound);
        let r = des::run(&cfg, &pipeline, &balancer, &traffic);
        rows.push((
            label,
            r.tx_gbps,
            r.latency.percentile(99.0).as_us_f64(),
            r.final_w,
        ));
    }
    println!("== Extension (§7): throughput maximization with bounded latency ==");
    let mut t = Table::new(vec!["balancer", "Gbps", "p99 us", "final w %"]);
    for (label, g, p99, w) in &rows {
        t.row(vec![
            label.clone(),
            format!("{g:.1}"),
            format!("{p99:.0}"),
            format!("{:.0}", w * 100.0),
        ]);
    }
    t.print();
    println!(
        "paper (§7): proposed as future work — tighter latency bounds push the balancer\n\
         towards the CPU, trading throughput for predictability\n"
    );
    rows
}

/// An experiment: its name and how to run it.
pub type Experiment = (&'static str, fn(ExpOpts));

/// Every experiment by name, in the order a bare `repro` runs them.
pub const EXPERIMENTS: [Experiment; 13] = [
    ("table3", |_| table3()),
    ("fig1", |o| drop(fig1(o))),
    ("fig2", |o| drop(fig2(o))),
    ("fig9", |o| drop(fig9(o))),
    ("composition", |o| drop(composition(o))),
    ("fig10", |o| drop(fig10(o))),
    ("fig11", |o| drop(fig11(o))),
    ("fig12", |o| drop(fig12(o))),
    ("fig13", |o| drop(fig13(o))),
    ("fig14", |o| drop(fig14(o))),
    ("aggregation", |o| drop(ablation_aggregation(o))),
    ("datablock", |o| drop(ablation_datablock(o))),
    ("bounded", |o| drop(bounded_latency(o))),
];

/// Looks up the named experiments, all of them when `names` is empty; an
/// unknown name is an error naming the known ones.
pub fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<fn(ExpOpts)>, String> {
    if names.is_empty() {
        return Ok(EXPERIMENTS.map(|(_, run)| run).to_vec());
    }
    let find = |n: &str| {
        let known = || EXPERIMENTS.map(|(name, _)| name).join(" ");
        let hit = EXPERIMENTS.iter().find(|(name, _)| *name == n);
        hit.map(|&(_, run)| run)
            .ok_or_else(|| format!("unknown experiment '{n}'; known: {}", known()))
    };
    names.iter().map(|n| find(n.as_ref())).collect()
}

/// `nba-bench repro [exp...]` and `cargo bench --bench figures [exp...]`:
/// runs the named experiments (every one when none is named) under the
/// `NBA_QUICK` options. Returns the exit status: 2, running nothing, when
/// a name is unknown.
pub fn repro<S: AsRef<str>>(names: &[S]) -> u8 {
    match select(names) {
        Ok(runs) => {
            let opts = ExpOpts::from_env();
            runs.into_iter().for_each(|run| run(opts));
            0
        }
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiments_are_usage_errors_and_run_nothing() {
        assert_eq!(select::<&str>(&[]).unwrap().len(), EXPERIMENTS.len());
        assert_eq!(select(&["table3", "fig13"]).unwrap().len(), 2);
        let e = select(&["table3", "fig99"]).err().unwrap();
        assert!(
            e.starts_with("unknown experiment 'fig99'; known: table3 fig1"),
            "{e}"
        );
        assert_eq!(repro(&["fig99"]), 2);
    }
}
