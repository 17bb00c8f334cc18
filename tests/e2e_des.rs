//! End-to-end discrete-event runs of the four applications: functional
//! correctness (routing, encryption, detection) and basic throughput sanity
//! on the small test topology.

use nba::apps::{pipelines, AppConfig};
use nba::core::element::ComputeMode;
use nba::core::lb;
use nba::core::runtime::{des, traffic_per_port, RunReport, RuntimeConfig};
use nba::io::{IpVersion, Limited, PacketSource, PayloadFill, SizeDist, TrafficConfig, TrafficGen};
use nba::sim::Time;

fn app_for(cfg: &RuntimeConfig) -> AppConfig {
    AppConfig {
        ports: cfg.topology.ports.len() as u16,
        v4_routes: 4096,
        v6_routes: 1024,
        ids_literals: 64,
        ids_regexes: 8,
        ..AppConfig::default()
    }
}

fn light_traffic(cfg: &RuntimeConfig, gbps: f64) -> Vec<TrafficConfig> {
    traffic_per_port(
        &cfg.topology,
        &TrafficConfig {
            offered_gbps: gbps,
            size: SizeDist::Fixed(128),
            ..TrafficConfig::default()
        },
    )
}

fn assert_flows(report: &RunReport) {
    assert!(report.tx_packets > 100, "too little traffic: {report:?}");
    assert!(report.tx_gbps > 0.0);
    assert_eq!(report.window.tx_packets, report.tx_packets);
}

#[test]
fn ipv4_router_cpu_only_forwards() {
    let cfg = RuntimeConfig::test_default();
    let app = app_for(&cfg);
    let report = des::run(
        &cfg,
        &pipelines::ipv4_router(&app),
        &lb::shared(Box::new(lb::CpuOnly)),
        &light_traffic(&cfg, 2.0),
    );
    assert_flows(&report);
    // Under light load nothing should drop at RX.
    assert_eq!(report.rx_dropped, 0);
    // Everything ran on the CPU.
    assert_eq!(report.window.gpu_processed, 0);
    assert!(report.window.cpu_processed > 0);
}

#[test]
fn ipv4_router_gpu_only_offloads_and_matches_cpu_routing() {
    let cfg = RuntimeConfig::test_default();
    let app = app_for(&cfg);
    let cpu = des::run(
        &cfg,
        &pipelines::ipv4_router(&app),
        &lb::shared(Box::new(lb::CpuOnly)),
        &light_traffic(&cfg, 2.0),
    );
    let gpu = des::run(
        &cfg,
        &pipelines::ipv4_router(&app),
        &lb::shared(Box::new(lb::GpuOnly)),
        &light_traffic(&cfg, 2.0),
    );
    assert_flows(&gpu);
    assert!(gpu.window.gpu_processed > 0, "no offloading happened");
    assert!(gpu.gpu.iter().any(|g| g.tasks > 0));
    // Same traffic, same table: the routed packet count must agree (the
    // GPU path is functionally identical; only timing differs).
    let diff = cpu.window.tx_packets.abs_diff(gpu.window.tx_packets);
    assert!(
        diff * 50 <= cpu.window.tx_packets,
        "cpu {} vs gpu {}",
        cpu.window.tx_packets,
        gpu.window.tx_packets
    );
}

#[test]
fn ipv6_router_forwards() {
    let cfg = RuntimeConfig::test_default();
    let app = app_for(&cfg);
    let traffic = traffic_per_port(
        &cfg.topology,
        &TrafficConfig {
            offered_gbps: 2.0,
            ip_version: IpVersion::V6,
            size: SizeDist::Fixed(128),
            ..TrafficConfig::default()
        },
    );
    let report = des::run(
        &cfg,
        &pipelines::ipv6_router(&app),
        &lb::shared(Box::new(lb::CpuOnly)),
        &traffic,
    );
    assert_flows(&report);
}

#[test]
fn ipsec_gateway_grows_frames_and_offloads_under_gpu() {
    let cfg = RuntimeConfig::test_default();
    let app = app_for(&cfg);
    let report = des::run(
        &cfg,
        &pipelines::ipsec_gateway(&app),
        &lb::shared(Box::new(lb::GpuOnly)),
        &light_traffic(&cfg, 1.0),
    );
    assert_flows(&report);
    assert!(report.window.gpu_processed > 0);
    // Throughput is input-normalized: exactly the 128-byte input per frame
    // even though ESP grows the transmitted frames.
    let mean_frame_bits = report.window.tx_frame_bits / report.window.tx_packets;
    assert_eq!(
        mean_frame_bits,
        128 * 8,
        "mean frame bits {mean_frame_bits}"
    );
}

#[test]
fn ids_detects_planted_attacks() {
    let cfg = RuntimeConfig::test_default();
    let app = app_for(&cfg);
    let (pipeline, alerts) = pipelines::ids(&app);
    let traffic = traffic_per_port(
        &cfg.topology,
        &TrafficConfig {
            offered_gbps: 1.0,
            size: SizeDist::Fixed(256),
            payload: PayloadFill::Plant {
                needle: b"ATTACK1234".to_vec(),
                every: 10,
            },
            ..TrafficConfig::default()
        },
    );
    let report = des::run(
        &cfg,
        &pipeline,
        &lb::shared(Box::new(lb::CpuOnly)),
        &traffic,
    );
    assert_flows(&report);
    let lit = alerts
        .literal_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    let confirmed = alerts.confirmed.load(std::sync::atomic::Ordering::Relaxed);
    // Roughly one in ten packets carries the needle.
    assert!(lit > 0, "no literal alerts");
    assert!(confirmed > 0, "no confirmed alerts");
    assert!(confirmed <= lit);
    let total = report.window.rx_packets.max(1);
    let rate = lit as f64 / total as f64;
    assert!((0.05..0.2).contains(&rate), "alert rate {rate}");
}

#[test]
fn ids_gpu_path_detects_equally() {
    let cfg = RuntimeConfig::test_default();
    let app = app_for(&cfg);
    let traffic = traffic_per_port(
        &cfg.topology,
        &TrafficConfig {
            offered_gbps: 0.5,
            size: SizeDist::Fixed(256),
            payload: PayloadFill::Plant {
                needle: b"EVILPATTERN".to_vec(),
                every: 5,
            },
            ..TrafficConfig::default()
        },
    );
    let (p_cpu, a_cpu) = pipelines::ids(&app);
    let (p_gpu, a_gpu) = pipelines::ids(&app);
    let r_cpu = des::run(&cfg, &p_cpu, &lb::shared(Box::new(lb::CpuOnly)), &traffic);
    let r_gpu = des::run(&cfg, &p_gpu, &lb::shared(Box::new(lb::GpuOnly)), &traffic);
    let lit_cpu = a_cpu
        .literal_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    let lit_gpu = a_gpu
        .literal_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(lit_cpu > 0 && lit_gpu > 0);
    // Same deterministic traffic: hit counts within a few percent (batch
    // boundary effects at the measurement edges only).
    let diff = lit_cpu.abs_diff(lit_gpu);
    assert!(diff * 10 <= lit_cpu, "cpu {lit_cpu} vs gpu {lit_gpu}");
    let _ = (r_cpu, r_gpu);
}

#[test]
fn determinism_same_seed_same_report() {
    let cfg = RuntimeConfig::test_default();
    let app = app_for(&cfg);
    let run = || {
        des::run(
            &cfg,
            &pipelines::ipv4_router(&app),
            &lb::shared(Box::new(lb::FixedFraction::new(0.5))),
            &light_traffic(&cfg, 2.0),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.tx_packets, b.tx_packets);
    assert_eq!(a.window.tx_frame_bits, b.window.tx_frame_bits);
    assert_eq!(a.window.dropped, b.window.dropped);
    assert_eq!(a.latency.count(), b.latency.count());
    assert_eq!(a.latency.percentile(99.0), b.latency.percentile(99.0));

    // Two offloadable nodes (AES + HMAC), line-rate overload, and an
    // adaptive balancer sitting near the device: the device thread has
    // aggregates of both nodes to launch in one step, so the order it
    // visits them in must not depend on per-process hash state. (The
    // benchmark's `des_ipsec_alb` input shows the same on the paper
    // testbed; this is its small-topology form, seconds instead of a
    // minute in a debug build.)
    let cfg = RuntimeConfig {
        compute: ComputeMode::HeadersOnly,
        warmup: Time::from_ms(3),
        measure: Time::from_ms(5),
        ..RuntimeConfig::test_default()
    };
    let traffic = traffic_per_port(
        &cfg.topology,
        &TrafficConfig {
            offered_gbps: 10.0,
            size: SizeDist::Fixed(64),
            ..TrafficConfig::default()
        },
    );
    let run = || {
        let alb = lb::Adaptive::new(lb::AlbConfig {
            initial_w: 0.9,
            ..lb::AlbConfig::scaled_down(200)
        });
        let r = des::run(
            &cfg,
            &pipelines::ipsec_gateway(&app),
            &lb::shared(Box::new(alb)),
            &traffic,
        );
        assert!(r.rx_dropped > 0, "not overloaded: {r:?}");
        (r.tx_packets, r.window.dropped, r.latency.count(), r.final_w)
    };
    let first = run();
    for _ in 0..4 {
        assert_eq!(run(), first, "same seed, different report");
    }
}

#[test]
fn overload_drops_but_keeps_running() {
    // Offer line rate of 64-byte frames with heavy per-packet compute in
    // full mode on a tiny machine: RX queues must overflow, not the sim.
    let cfg = RuntimeConfig {
        compute: ComputeMode::Full,
        warmup: Time::from_ms(2),
        measure: Time::from_ms(6),
        ..RuntimeConfig::test_default()
    };
    let app = app_for(&cfg);
    let traffic = traffic_per_port(
        &cfg.topology,
        &TrafficConfig {
            offered_gbps: 10.0,
            size: SizeDist::Fixed(64),
            ..TrafficConfig::default()
        },
    );
    let report = des::run(
        &cfg,
        &pipelines::ipsec_gateway(&app),
        &lb::shared(Box::new(lb::CpuOnly)),
        &traffic,
    );
    assert!(report.rx_dropped > 0, "expected overload drops");
    assert!(report.tx_packets > 0);
    // Throughput must be well below offered.
    assert!(report.tx_gbps < report.offered_gbps);
}

#[test]
fn exhausted_pool_losses_are_counted_as_rx_nombuf() {
    // A pool far smaller than the RX queues: the NIC admits slots the pool
    // cannot serve. Every offered slot is enqueued, refused (`rx_dropped`)
    // or lost for want of a buffer (`rx_nombuf`), and every enqueued one
    // leaves by TX or a pipeline drop before the horizon.
    const BUDGET: u64 = 4000;
    let cfg = RuntimeConfig {
        pool_size: 16,
        warmup: Time::ZERO,
        measure: Time::from_ms(4),
        ..RuntimeConfig::test_default()
    };
    let app = app_for(&cfg);
    let sources: Vec<Box<dyn PacketSource>> = light_traffic(&cfg, 5.0)
        .into_iter()
        .map(|t| Box::new(Limited::new(TrafficGen::new(t), BUDGET)) as Box<dyn PacketSource>)
        .collect();
    let offered = BUDGET * sources.len() as u64;
    let r = des::run_with_sources(
        &cfg,
        &pipelines::ipv4_router(&app),
        &lb::shared(Box::new(lb::CpuOnly)),
        sources,
        10.0,
    );
    assert!(r.rx_nombuf > 0, "the pool never ran dry: {r:?}");
    assert_eq!(r.offered_packets, offered);
    let enqueued = r.window.tx_packets + r.window.dropped;
    assert_eq!(enqueued + r.rx_dropped + r.rx_nombuf, offered);
}

#[test]
fn latency_is_recorded_and_ordered() {
    let cfg = RuntimeConfig::test_default();
    let app = app_for(&cfg);
    let report = des::run(
        &cfg,
        &pipelines::ipv4_router(&app),
        &lb::shared(Box::new(lb::CpuOnly)),
        &light_traffic(&cfg, 1.0),
    );
    assert!(report.latency.count() > 0);
    let p50 = report.latency.percentile(50.0);
    let p999 = report.latency.percentile(99.9);
    assert!(p50 > Time::ZERO);
    assert!(p999 >= p50);
    // Light load on the small topology: microseconds, not milliseconds.
    assert!(p999 < Time::from_ms(1), "p99.9 = {p999}");
}
