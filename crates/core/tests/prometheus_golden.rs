//! Golden-file test of the Prometheus text exporter: the exact bytes a
//! fixed [`RunReport`] renders to, pinned in `tests/golden/prometheus.txt`.
//! Every metric must carry `# HELP`/`# TYPE` headers, label values must be
//! escaped per the exposition format, and every family the live `/metrics`
//! golden (`tests/golden/metrics_live.txt`) shares with this export must be
//! declared identically in both.
//!
//! Re-bless after an intentional format change with
//! `NBA_BLESS=1 cargo test -p nba-core --test prometheus_golden`.

use nba_core::fault::FaultReport;
use nba_core::runtime::RunReport;
use nba_core::stats::{LatencyHistogram, Snapshot};
use nba_core::telemetry::{report_to_prometheus, ElementProfile, ShardSample, TimeSample};
use nba_sim::Time;

/// A fully hand-built report: every section of the exporter exercised —
/// scalars, per-GPU and per-element label series (with a name that needs
/// escaping), per-shard gauges from the last sample, and fault counters.
fn fixture() -> RunReport {
    let mut latency = LatencyHistogram::new();
    for ns in [800, 1_200, 1_200, 5_000, 40_000] {
        latency.record_ns(ns);
    }
    let profile = |node: usize, element: &'static str, packets: u64| ElementProfile {
        node,
        element,
        batches: packets / 32,
        packets,
        drops: 0,
        cycles: packets * 100,
        busy: Time::from_us(packets),
        latency: LatencyHistogram::new(),
    };
    let shard = |shard: u32, occ: u64, w: f64| ShardSample {
        shard,
        ring_occupancy: occ,
        ring_high_water: occ * 3,
        enqueue_failed: u64::from(shard) * 2,
        shed: u64::from(shard) * 9,
        w,
    };
    let sample = |t_ms: u64, shards: Vec<ShardSample>| TimeSample {
        t: Time::from_ms(t_ms),
        tx_packets: 10_000,
        tx_mpps: 1.0,
        tx_gbps: 0.672,
        dropped: 0,
        rx_dropped: 0,
        latency_ewma_ns: 1_500,
        offloaded_batches: 12,
        offload_fraction: 0.5,
        gpu_busy: Vec::new(),
        shards,
        slo: None,
    };
    let mut stages = nba_core::audit::StageProfiles::new();
    for (stage, ns) in nba_core::audit::OffloadStage::ALL
        .iter()
        .zip([2_000u64, 1_500, 3_000, 500, 20_000, 2_500, 1_200])
    {
        stages.record(*stage, ns);
        stages.record(*stage, ns * 2);
    }
    stages.tasks = 2;
    RunReport {
        duration: Time::from_ms(50),
        tx_gbps: 9.5,
        tx_packets: 1_000_000,
        offered_packets: 1_100_000,
        offered_gbps: 10.0,
        rx_dropped: 42,
        rx_nombuf: 0,
        window: Snapshot {
            dropped: 7,
            ..Snapshot::default()
        },
        latency,
        final_w: 0.625,
        gpu: vec![nba_gpu::TimelineStats {
            tasks: 9,
            kernel_busy: Time::from_us(500),
            ..nba_gpu::TimelineStats::default()
        }],
        elements: vec![
            profile(0, "IPlookup", 1_000_000),
            // The escaping case: quotes and backslashes in a label value
            // must round-trip per the exposition format.
            profile(1, "Queue \"fast\\slow\"", 999_958),
        ],
        samples: vec![
            // An early sample without shard gauges — the exporter must
            // pick the *last* sample that carries them.
            sample(10, Vec::new()),
            sample(40, vec![shard(0, 5, 0.5), shard(1, 17, 0.75)]),
        ],
        trace: Vec::new(),
        totals: Snapshot::default(),
        faults: FaultReport::default(),
        tx_capture: Vec::new(),
        stages: Some(stages),
        drift: Some(nba_core::audit::DriftReport {
            tasks: 2,
            rel_err: 0.125,
            events: 1,
            worst_stage: Some("launch".into()),
            worst_excess_ns: 40_000.0,
        }),
        slo: Some(nba_core::audit::SloReport {
            cfg: nba_core::audit::SloConfig {
                latency_ns: Some(1_000_000),
                min_mpps: Some(0.5),
                error_budget: 0.05,
            },
            windows: 10,
            latency_violations: 0,
            throughput_violations: 1,
            latency_burn: 0.0,
            throughput_burn: 2.0,
            final_p99_ns: 40_000,
            final_mpps: 20.0,
            met: false,
        }),
        decisions: None,
        flight: Vec::new(),
        health: {
            let mut h = nba_core::supervise::HealthReport {
                states: vec![
                    nba_core::supervise::WorkerState::Healthy,
                    nba_core::supervise::WorkerState::Dead,
                ],
                ..Default::default()
            };
            h.stats.shed_drop_tail = 9;
            h.stats.lost_in_ring = 5;
            h.stats.resteers = 1;
            h.stats.buckets_moved = 64;
            h
        },
        flows: None,
    }
}

#[test]
fn prometheus_export_matches_golden_file() {
    let got = report_to_prometheus(&fixture());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/prometheus.txt");
    if std::env::var("NBA_BLESS").is_ok() {
        std::fs::write(path, &got).expect("bless golden file");
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file missing — run once with NBA_BLESS=1 to create it");
    assert_eq!(
        got, want,
        "Prometheus exposition drifted from the golden file; if the change \
         is intentional, re-bless with NBA_BLESS=1"
    );
}

/// The live `/metrics` golden (rendered by `nba-core`'s `introspect` unit
/// tests from their stats-endpoint fixture).
fn live_metrics() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics_live.txt");
    std::fs::read_to_string(path).expect("live /metrics golden file")
}

/// Every sample line is preceded by its family's `# HELP` and `# TYPE`
/// headers; returns each family's `(HELP line, TYPE line)`.
fn families(out: &str) -> std::collections::BTreeMap<&str, (&str, &str)> {
    let mut headers = std::collections::BTreeMap::new();
    let mut lines = out.lines();
    while let Some(line) = lines.next() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            let kind = lines.next().expect("# TYPE follows # HELP");
            assert_eq!(
                kind.strip_prefix("# TYPE ")
                    .and_then(|t| t.split_whitespace().next()),
                Some(name),
                "# TYPE must follow # HELP of the same family: {kind}"
            );
            assert!(
                headers.insert(name, (line, kind)).is_none(),
                "{name} declared twice"
            );
            continue;
        }
        let name = line
            .split(['{', ' '])
            .next()
            .expect("metric lines start with a name");
        assert!(
            headers.contains_key(name),
            "sample line before its # HELP header: {line}"
        );
    }
    headers
}

/// Structural invariants the golden bytes imply, asserted directly so a
/// careless re-bless cannot silently drop them: every emitted metric name
/// is preceded by its `# HELP` and `# TYPE` headers — in the post-run
/// export and on `/metrics` alike — and escaped label values stay on one
/// line.
#[test]
fn every_metric_has_help_and_type_headers() {
    let out = report_to_prometheus(&fixture());
    families(&out);
    families(&live_metrics());
    assert!(
        out.contains(r#"element="Queue \"fast\\slow\"""#),
        "label escaping missing: {out}"
    );
    assert!(out.contains("nba_ring_occupancy{shard=\"1\"} 17"), "{out}");
    assert!(
        out.contains("nba_shard_offload_fraction{shard=\"1\"} 0.75"),
        "{out}"
    );
    // The audit-plane families introduced with the decision-audit work.
    assert!(
        out.contains("nba_offload_stage_mean_ns{stage=\"compute\"} 30000"),
        "{out}"
    );
    assert!(out.contains("nba_offload_stage_tasks_total 2"), "{out}");
    assert!(out.contains("nba_cost_drift_events_total 1"), "{out}");
    assert!(out.contains("nba_slo_throughput_burn 2"), "{out}");
    assert!(out.contains("nba_slo_met 0"), "{out}");
}

/// One definition per family: a family the post-run export and `/metrics`
/// both serve carries the same `# HELP` and `# TYPE` lines in each.
#[test]
fn post_run_and_live_families_agree() {
    let post = report_to_prometheus(&fixture());
    let live = live_metrics();
    let (post, live) = (families(&post), families(&live));
    let shared: Vec<&str> = post
        .keys()
        .filter(|k| live.contains_key(*k))
        .copied()
        .collect();
    assert!(shared.len() >= 10, "too few shared families: {shared:?}");
    for name in shared {
        assert_eq!(post[name], live[name], "{name} is defined twice");
    }
}
