//! DES ↔ live differential conformance: the same seeded workload pushed
//! through the deterministic simulator, the live runtime with one worker,
//! and the live runtime with four RSS-sharded workers must produce the
//! same per-packet verdicts and output frames — clean and under a seeded
//! fault plan.
//!
//! Per-packet verdicts are [`TxRecord`]s captured at the pipeline's TX
//! point on every runtime, canonicalized per app:
//!
//! * Routers (IPv4/IPv6) emit frames verbatim — compare everything.
//! * The IPsec gateway holds per-replica ESP sequence counters, so the
//!   ciphertext depends on which replica a flow landed on; conformance is
//!   judged on what a receiver can verify — the decrypted, authenticated
//!   plaintext via [`open_esp`].
//! * IDS assigns `IFACE_OUT` round-robin per replica (a load-spreading
//!   decision, not a per-packet verdict) — it is masked; the match
//!   annotations and frames must agree exactly.

use std::sync::Arc;
use std::time::Duration;

use nba::apps::ipsec::open_esp;
use nba::apps::stateful::{FirewallConfig, MaglevConfig, NatConfig};
use nba::apps::{pipelines, AppConfig};
use nba::core::capture::{fnv1a, TxRecord};
use nba::core::element::ComputeMode;
use nba::core::fault::{WorkerKill, WorkerStall};
use nba::core::flow::{bucket_of, FlowOpKind, FlowReport, FlowTableConfig};
use nba::core::lb;
use nba::core::runtime::live::LiveReport;
use nba::core::runtime::live::{self, LiveConfig};
use nba::core::runtime::{des, PipelineBuilder, RunReport, RuntimeConfig};
use nba::core::supervise::TransitionReason;
use nba::core::{FaultConfig, FaultPlan, HealthReport, SupervisorConfig, WorkerState};
use nba::io::{
    IpVersion, L4Proto, Limited, PacketSource, PayloadFill, SizeDist, TrafficConfig, TrafficGen,
};
use nba::sim::topology::{GpuSpec, PortSpec, SocketSpec};
use nba::sim::{Time, Topology};

/// Total packets per run: small enough to drain in milliseconds, large
/// enough to cover many flows, batches, and offload aggregates.
const BUDGET: u64 = 1200;

/// One NIC port, one socket, one GPU — the live runtime's implicit shape
/// (its IO thread models a single ingress port).
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

fn traffic(ip: IpVersion, payload: PayloadFill) -> TrafficConfig {
    TrafficConfig {
        offered_gbps: 10.0,
        size: SizeDist::Fixed(256),
        ip_version: ip,
        flows: 64,
        zipf_alpha: 0.0,
        payload,
        seed: 7,
        ..TrafficConfig::default()
    }
}

fn des_cfg(fault: FaultConfig) -> RuntimeConfig {
    RuntimeConfig {
        topology: one_port_topology(),
        workers_per_socket: 3,
        compute: ComputeMode::Full,
        warmup: Time::from_ms(2),
        measure: Time::from_ms(30),
        pool_size: 1 << 15,
        rxq_depth: 4096,
        capture: true,
        flow_journal: true,
        fault,
        ..RuntimeConfig::default()
    }
}

fn live_cfg(workers: usize, traffic: &TrafficConfig, fault: FaultConfig) -> LiveConfig {
    LiveConfig {
        workers,
        duration: Duration::from_secs(20), // deadline only; drains in ms
        traffic: traffic.clone(),
        compute: ComputeMode::Full,
        fault,
        io_threads: 1,
        max_packets: Some(BUDGET),
        drain: true,
        capture: true,
        flow_journal: true,
        ..LiveConfig::default()
    }
}

fn des_capture(
    build: &PipelineBuilder,
    traffic: &TrafficConfig,
    fault: FaultConfig,
) -> Vec<TxRecord> {
    let cfg = des_cfg(fault);
    let source = Limited::new(TrafficGen::new(traffic.clone()), BUDGET);
    let report = des::run_with_sources(
        &cfg,
        build,
        &lb::shared(Box::new(lb::FixedFraction::new(0.5))),
        vec![Box::new(source) as Box<dyn PacketSource>],
        traffic.offered_gbps,
    );
    assert_eq!(report.rx_dropped, 0, "DES run must be lossless");
    assert_eq!(
        report.faults.snapshot.dropped_packets, 0,
        "fault plan must be output-preserving"
    );
    report.tx_capture
}

fn live_capture(
    build: &PipelineBuilder,
    traffic: &TrafficConfig,
    fault: FaultConfig,
    workers: usize,
) -> Vec<TxRecord> {
    let cfg = live_cfg(workers, traffic, fault);
    let report = live::run_sharded(
        &cfg,
        build,
        &lb::replicated(|| Box::new(lb::FixedFraction::new(0.5))),
    );
    assert_eq!(report.rx_dropped, 0, "draining live run must be lossless");
    assert_eq!(
        report.faults.snapshot.dropped_packets, 0,
        "fault plan must be output-preserving"
    );
    assert_eq!(report.shards.len(), workers);
    report.tx_capture
}

/// Like [`des_capture`] but for drills that lose packets *by design*:
/// returns the whole report so the caller can reconcile the loss against
/// the self-healing plane's accounting instead of asserting losslessness.
fn des_drill(build: &PipelineBuilder, traffic: &TrafficConfig, fault: FaultConfig) -> RunReport {
    let cfg = des_cfg(fault);
    let source = Limited::new(TrafficGen::new(traffic.clone()), BUDGET);
    des::run_with_sources(
        &cfg,
        build,
        &lb::shared(Box::new(lb::FixedFraction::new(0.5))),
        vec![Box::new(source) as Box<dyn PacketSource>],
        traffic.offered_gbps,
    )
}

/// Live analogue of [`des_drill`].
fn live_drill(
    build: &PipelineBuilder,
    traffic: &TrafficConfig,
    fault: FaultConfig,
    workers: usize,
) -> LiveReport {
    let cfg = live_cfg(workers, traffic, fault);
    live::run_sharded(
        &cfg,
        build,
        &lb::replicated(|| Box::new(lb::FixedFraction::new(0.5))),
    )
}

fn kill_plan(worker: u32, at_packet: u64) -> FaultConfig {
    FaultConfig {
        plan: FaultPlan {
            worker_kill: vec![WorkerKill { worker, at_packet }],
            ..FaultPlan::default()
        },
        ..FaultConfig::default()
    }
}

/// A stall drill under a 2 ms stall budget (500 µs × 4), so a `millis`
/// well past it is convicted Dead(stall), re-steered, and handed back on
/// resume. The default budget is longer than these short runs.
fn stall_plan(worker: u32, at_packet: u64, millis: f64) -> FaultConfig {
    FaultConfig {
        plan: FaultPlan {
            worker_stall: vec![WorkerStall {
                worker,
                at_packet,
                millis,
            }],
            ..FaultPlan::default()
        },
        supervisor: SupervisorConfig {
            check_interval: Time::from_us(500),
            stall_windows: 4,
            ..SupervisorConfig::default()
        },
        ..FaultConfig::default()
    }
}

/// A canonical, runtime-independent digest of one transmitted packet.
type Verdict = (u64, u64, u64, u64, u64);

/// Routers: everything observable must agree, frame bytes included.
fn canon_exact(records: &[TxRecord]) -> Vec<Verdict> {
    let mut v: Vec<Verdict> = records
        .iter()
        .map(|r| {
            (
                r.flow,
                r.iface_out,
                r.ac_match,
                r.re_match,
                r.frame_digest(),
            )
        })
        .collect();
    v.sort_unstable();
    v
}

/// IDS: mask the per-replica round-robin egress port.
fn canon_ids(records: &[TxRecord]) -> Vec<Verdict> {
    let mut v: Vec<Verdict> = records
        .iter()
        .map(|r| (r.flow, 0, r.ac_match, r.re_match, r.frame_digest()))
        .collect();
    v.sort_unstable();
    v
}

/// IPsec: verdict is the routing decision plus the decrypted,
/// authenticated inner payload — what the far gateway would recover.
fn canon_ipsec(records: &[TxRecord], app: &AppConfig) -> Vec<Verdict> {
    let sa = pipelines::sa_table(app.seed);
    let mut v: Vec<Verdict> = records
        .iter()
        .map(|r| {
            let (proto, plaintext) =
                open_esp(&r.frame, &sa).expect("every TX frame must verify and decrypt");
            (r.flow, r.iface_out, u64::from(proto), fnv1a(&plaintext), 0)
        })
        .collect();
    v.sort_unstable();
    v
}

/// Runs one app through all three runtimes and compares canonical verdicts.
fn assert_conformance(
    build: &PipelineBuilder,
    traffic: &TrafficConfig,
    fault: &FaultConfig,
    canon: impl Fn(&[TxRecord]) -> Vec<Verdict>,
) {
    let des = canon(&des_capture(build, traffic, fault.clone()));
    assert!(
        des.len() as u64 >= BUDGET / 2,
        "suspiciously few DES verdicts: {}",
        des.len()
    );
    let live1 = canon(&live_capture(build, traffic, fault.clone(), 1));
    assert_eq!(des, live1, "DES and live(1) verdicts diverge");
    let live4 = canon(&live_capture(build, traffic, fault.clone(), 4));
    assert_eq!(des, live4, "DES and live(4) verdicts diverge");
}

fn clean() -> FaultConfig {
    FaultConfig::default()
}

/// An output-preserving storm: transient errors, corrupt output blocks,
/// timeouts, and a death/revival window. Every one of these degrades to
/// retries or the bit-identical CPU fallback — never to a changed packet.
fn faulted() -> FaultConfig {
    FaultConfig {
        plan: FaultPlan {
            seed: 99,
            timeout: 0.05,
            transient: 0.10,
            corrupt: 0.05,
            die_at: Some(Time::from_ms(1)),
            revive_at: Some(Time::from_ms(3)),
            worker_kill: Vec::new(),
            worker_stall: Vec::new(),
        },
        ..FaultConfig::default()
    }
}

#[test]
fn ipv4_router_conforms() {
    let app = AppConfig {
        ports: 4,
        v4_routes: 2048,
        ..AppConfig::default()
    };
    let t = traffic(IpVersion::V4, PayloadFill::Zeros);
    assert_conformance(&pipelines::ipv4_router(&app), &t, &clean(), canon_exact);
}

#[test]
fn ipv6_router_conforms() {
    let app = AppConfig {
        ports: 4,
        v6_routes: 2048,
        ..AppConfig::default()
    };
    let t = traffic(IpVersion::V6, PayloadFill::Zeros);
    assert_conformance(&pipelines::ipv6_router(&app), &t, &clean(), canon_exact);
}

#[test]
fn ipsec_gateway_conforms() {
    let app = AppConfig {
        ports: 4,
        v4_routes: 1024,
        ..AppConfig::default()
    };
    let t = traffic(IpVersion::V4, PayloadFill::Ascii);
    let build = pipelines::ipsec_gateway(&app);
    assert_conformance(&build, &t, &clean(), |r| canon_ipsec(r, &app));
}

#[test]
fn ids_conforms() {
    let app = AppConfig {
        ports: 4,
        ids_literals: 32,
        ids_regexes: 4,
        ..AppConfig::default()
    };
    let t = traffic(
        IpVersion::V4,
        PayloadFill::Plant {
            needle: b"EVILPATTERN".to_vec(),
            every: 7,
        },
    );
    let (build, _alerts) = pipelines::ids(&app);
    assert_conformance(&build, &t, &clean(), canon_ids);
}

#[test]
fn ipv4_router_conforms_under_faults() {
    let app = AppConfig {
        ports: 4,
        v4_routes: 2048,
        ..AppConfig::default()
    };
    let t = traffic(IpVersion::V4, PayloadFill::Zeros);
    assert_conformance(&pipelines::ipv4_router(&app), &t, &faulted(), canon_exact);
}

#[test]
fn ipsec_gateway_conforms_under_faults() {
    let app = AppConfig {
        ports: 4,
        v4_routes: 1024,
        ..AppConfig::default()
    };
    let t = traffic(IpVersion::V4, PayloadFill::Ascii);
    let build = pipelines::ipsec_gateway(&app);
    assert_conformance(&build, &t, &faulted(), |r| canon_ipsec(r, &app));
}

/// The IDS alert totals (not just per-packet annotations) must agree
/// between DES and the sharded live runtime.
#[test]
fn ids_alert_totals_conform() {
    let app = AppConfig {
        ports: 4,
        ids_literals: 32,
        ids_regexes: 4,
        ..AppConfig::default()
    };
    let t = traffic(
        IpVersion::V4,
        PayloadFill::Plant {
            needle: b"EVILPATTERN".to_vec(),
            every: 7,
        },
    );
    let (build_des, alerts_des) = pipelines::ids(&app);
    let _ = des_capture(&build_des, &t, clean());
    let des_hits = alerts_des
        .literal_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(des_hits > 0, "needle never detected in DES");

    let (build_live, alerts_live) = pipelines::ids(&app);
    let _ = live_capture(&build_live, &t, clean(), 4);
    let live_hits = alerts_live
        .literal_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(des_hits, live_hits, "alert totals diverge");
}

/// `Arc` plumbing: the suite's canonical builders must be shareable
/// across the runs above without rebuilding tables.
#[test]
fn repeated_runs_are_reproducible() {
    let app = AppConfig {
        ports: 4,
        v4_routes: 512,
        ..AppConfig::default()
    };
    let t = traffic(IpVersion::V4, PayloadFill::Zeros);
    let build: PipelineBuilder = Arc::clone(&pipelines::ipv4_router(&app));
    let a = canon_exact(&live_capture(&build, &t, clean(), 4));
    let b = canon_exact(&live_capture(&build, &t, clean(), 4));
    assert_eq!(a, b, "same seed, same config, different verdicts");
}

/// Asserts `drill` is a multiset subset of `clean` (both sorted) and
/// returns how many clean verdicts the drill is missing. Any verdict the
/// drill produced that the clean run never did is an immediate failure —
/// recovery must never *invent* output, only lose a bounded window of it.
fn missing_verdicts(clean: &[Verdict], drill: &[Verdict]) -> u64 {
    let mut i = 0usize;
    let mut missing = 0u64;
    for d in drill {
        loop {
            assert!(
                i < clean.len() && clean[i] <= *d,
                "drill produced a verdict absent from the clean run: {d:?}"
            );
            let hit = clean[i] == *d;
            i += 1;
            if hit {
                break;
            }
            missing += 1;
        }
    }
    missing + (clean.len() - i) as u64
}

/// Shared kill-drill assertions, applied per runtime against that
/// runtime's *own* clean baseline: the drill's verdicts are a multiset
/// subset of the clean run's (bit-identical outside the loss window),
/// every missing packet is attributed by the self-healing counters, the
/// supervisor log records the quarantine edge, and replaying the log
/// reproduces the final worker states the report carries.
#[allow(clippy::too_many_arguments)]
fn assert_kill_drill(
    label: &str,
    killed: u32,
    clean_v: &[Verdict],
    clean_elem_drops: u64,
    drill_v: &[Verdict],
    drill_elem_drops: u64,
    unattributed: u64, // rx_dropped + fault-plan drops; both expected 0 here
    health: &HealthReport,
    expect_respawns: u64,
) {
    assert!(!drill_v.is_empty(), "{label}: no TX at all after the kill");
    let missing = missing_verdicts(clean_v, drill_v);
    assert!(
        missing > 0,
        "{label}: the kill drill lost nothing — fault never fired?"
    );
    assert_eq!(unattributed, 0, "{label}: loss outside the healing plane");
    // Element drops are deterministic per packet, so the drill can only
    // have *fewer* (a packet lost pre-processing is never element-dropped).
    assert!(
        clean_elem_drops >= drill_elem_drops,
        "{label}: drill element drops exceed clean run's"
    );
    // Conservation: clean_tx − drill_tx = lost − (element drops the lost
    // packets would have suffered). Every missing verdict is accounted.
    assert_eq!(
        missing + (clean_elem_drops - drill_elem_drops),
        health.stats.total_lost(),
        "{label}: loss not fully attributed (shed + in-ring + in-flight)"
    );
    assert!(
        health.log.events.iter().any(|e| e.worker == killed
            && e.to == WorkerState::Dead
            && e.reason == TransitionReason::Crash),
        "{label}: no Dead(crash) edge for worker {killed} in the supervisor log"
    );
    let replayed = health
        .log
        .replay()
        .unwrap_or_else(|e| panic!("{label}: supervisor log does not replay: {e}"));
    for (w, s) in &replayed {
        assert_eq!(
            health.states[*w as usize], *s,
            "{label}: replayed state for worker {w} diverges from the report"
        );
    }
    assert_eq!(
        health.stats.respawns, expect_respawns,
        "{label}: unexpected respawn count"
    );
}

/// The seeded worker-kill drill (ISSUE 9 acceptance): kill worker 0 after
/// its 100th packet in every runtime. Post-recovery output must equal the
/// clean run minus a bounded, fully attributed loss window.
#[test]
fn worker_kill_drill_bounds_and_attributes_loss() {
    let app = AppConfig {
        ports: 4,
        v4_routes: 2048,
        ..AppConfig::default()
    };
    let t = traffic(IpVersion::V4, PayloadFill::Zeros);
    let build = pipelines::ipv4_router(&app);

    // DES: 3 workers, no respawn (a Done entity never steps again) —
    // survivors 1 and 2 absorb the re-steered buckets.
    let clean_des = des_drill(&build, &t, clean());
    assert!(clean_des.health.stats.is_clean(), "clean DES run not clean");
    let drill_des = des_drill(&build, &t, kill_plan(0, 100));
    assert_kill_drill(
        "DES",
        0,
        &canon_exact(&clean_des.tx_capture),
        clean_des.totals.dropped,
        &canon_exact(&drill_des.tx_capture),
        drill_des.totals.dropped,
        drill_des.rx_dropped + drill_des.faults.snapshot.dropped_packets,
        &drill_des.health,
        0,
    );
    assert!(
        drill_des.health.stats.resteers >= 1,
        "DES: dead shard's buckets never re-steered"
    );

    // Live, 4 shards: the supervisor re-steers to three survivors and
    // spawns a replacement that re-acquires the buckets.
    // (Only loss counters are asserted clean here: a loaded machine may
    // log benign Suspect flapping on a live run, but never loss.)
    let clean_l4 = live_drill(&build, &t, clean(), 4);
    assert_eq!(clean_l4.health.stats.total_lost(), 0, "clean live(4) lost");
    assert_eq!(clean_l4.health.stats.respawns, 0);
    let drill_l4 = live_drill(&build, &t, kill_plan(0, 100), 4);
    assert_kill_drill(
        "live(4)",
        0,
        &canon_exact(&clean_l4.tx_capture),
        clean_l4.totals.dropped,
        &canon_exact(&drill_l4.tx_capture),
        drill_l4.totals.dropped,
        drill_l4.rx_dropped + drill_l4.faults.snapshot.dropped_packets,
        &drill_l4.health,
        1,
    );
    assert!(
        drill_l4.health.stats.resteers >= 1,
        "live(4): dead shard's buckets never re-steered"
    );

    // Live, 1 shard: no survivors to re-steer to (moved = 0), so loss is
    // bounded only by detection + respawn latency — still fully attributed.
    let clean_l1 = live_drill(&build, &t, clean(), 1);
    let drill_l1 = live_drill(&build, &t, kill_plan(0, 100), 1);
    assert_kill_drill(
        "live(1)",
        0,
        &canon_exact(&clean_l1.tx_capture),
        clean_l1.totals.dropped,
        &canon_exact(&drill_l1.tx_capture),
        drill_l1.totals.dropped,
        drill_l1.rx_dropped + drill_l1.faults.snapshot.dropped_packets,
        &drill_l1.health,
        1,
    );
}

/// A stalled-then-resumed worker must be *lossless*: the supervisor may
/// presume it dead and re-steer its buckets meanwhile, but the worker
/// still owns its rings and drains them on resume — the drill's verdicts
/// are bit-identical to the clean run's, not merely a subset.
#[test]
fn worker_stall_drill_is_lossless() {
    let app = AppConfig {
        ports: 4,
        v4_routes: 2048,
        ..AppConfig::default()
    };
    let t = traffic(IpVersion::V4, PayloadFill::Zeros);
    let build = pipelines::ipv4_router(&app);

    let clean_des = canon_exact(&des_drill(&build, &t, clean()).tx_capture);
    let stall_des = des_drill(&build, &t, stall_plan(1, 100, 20.0));
    assert_eq!(
        canon_exact(&stall_des.tx_capture),
        clean_des,
        "DES: stall drill diverges from the clean run"
    );
    assert_eq!(
        stall_des.health.stats.total_lost(),
        0,
        "DES: stall lost packets"
    );
    assert!(stall_des.health.log.replay().is_ok());

    let clean_l4 = canon_exact(&live_drill(&build, &t, clean(), 4).tx_capture);
    let stall_l4 = live_drill(&build, &t, stall_plan(1, 100, 20.0), 4);
    assert_eq!(
        canon_exact(&stall_l4.tx_capture),
        clean_l4,
        "live(4): stall drill diverges from the clean run"
    );
    assert_eq!(
        stall_l4.health.stats.total_lost(),
        0,
        "live(4): stall lost packets"
    );
    assert_eq!(
        stall_l4.health.stats.respawns, 0,
        "stall must never respawn"
    );
    assert!(stall_l4.health.log.replay().is_ok());
}

// ──────────────────────── Stateful flow plane ────────────────────────
//
// The stateful apps (NAT44, conntrack firewall, Maglev LB) keep per-flow
// state in sharded tables with packet-count logical clocks. Conformance
// is judged twice per run: the per-packet verdicts (as above) and the
// flow-op journal — inserts, hits, evictions, migrations — which must
// agree canonically (per-bucket order) across DES(3), live(1), live(4).

/// TCP churn traffic: every flow lives 24 packets (SYN … data … FIN),
/// then a fresh identity replaces it — arrivals, refreshes, closes, and
/// idle expiry all exercised within one BUDGET.
fn tcp_traffic() -> TrafficConfig {
    TrafficConfig {
        offered_gbps: 10.0,
        size: SizeDist::Fixed(128),
        ip_version: IpVersion::V4,
        flows: 96,
        zipf_alpha: 0.0,
        payload: PayloadFill::Zeros,
        seed: 11,
        l4: L4Proto::Tcp,
        flow_lifetime_pkts: 24,
        ..TrafficConfig::default()
    }
}

/// A small, churning table: short TTLs and epochs so eviction paths run
/// inside the test budget.
fn churn_table() -> FlowTableConfig {
    FlowTableConfig {
        capacity: 4096,
        ttl_epochs: 6,
        embryonic_ttl_epochs: 2,
        epoch_pkts: 4,
    }
}

/// One canonical journal record, shard stripped: worker homing differs
/// across runtimes (3, 1, and 4 shards), per-bucket sequences must not.
type FlowOpCanon = (u16, u64, u64, &'static str, u64, u64);

fn canon_journal(flows: Option<&FlowReport>) -> Vec<FlowOpCanon> {
    let report = flows.expect("stateful run must carry a flow report");
    report
        .journal
        .replay()
        .expect("flow journal must replay cleanly");
    report
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
        .collect()
}

/// Runs one stateful app through all three runtimes: per-packet verdicts
/// *and* canonical flow journals must agree.
fn assert_flow_conformance(build: &PipelineBuilder, t: &TrafficConfig) {
    let des = des_drill(build, t, clean());
    assert_eq!(des.rx_dropped, 0, "DES run must be lossless");
    let des_v = canon_exact(&des.tx_capture);
    let des_j = canon_journal(des.flows.as_ref());
    assert!(
        des_v.len() as u64 >= BUDGET / 2,
        "suspiciously few DES verdicts: {}",
        des_v.len()
    );
    assert!(!des_j.is_empty(), "flow journal empty on a stateful run");

    let l1 = live_drill(build, t, clean(), 1);
    assert_eq!(l1.rx_dropped, 0, "live(1) run must be lossless");
    assert_eq!(
        canon_exact(&l1.tx_capture),
        des_v,
        "DES and live(1) verdicts diverge"
    );
    assert_eq!(
        canon_journal(l1.flows.as_ref()),
        des_j,
        "DES and live(1) flow journals diverge"
    );

    let l4 = live_drill(build, t, clean(), 4);
    assert_eq!(l4.rx_dropped, 0, "live(4) run must be lossless");
    assert_eq!(
        canon_exact(&l4.tx_capture),
        des_v,
        "DES and live(4) verdicts diverge"
    );
    assert_eq!(
        canon_journal(l4.flows.as_ref()),
        des_j,
        "DES and live(4) flow journals diverge"
    );
}

#[test]
fn nat44_conforms_per_flow() {
    let cfg = NatConfig {
        table: churn_table(),
        ..NatConfig::default()
    };
    assert_flow_conformance(&pipelines::nat44(&cfg), &tcp_traffic());
}

#[test]
fn conntrack_fw_conforms_per_flow() {
    // A seeded SYN-flood rides along: one-shot embryonic entries churn
    // the tables and must expire identically on every runtime.
    let t = TrafficConfig {
        syn_flood_per_mille: 150,
        ..tcp_traffic()
    };
    let cfg = FirewallConfig {
        table: churn_table(),
    };
    assert_flow_conformance(&pipelines::conntrack_fw(&cfg), &t);
}

#[test]
fn maglev_lb_conforms_per_flow_across_backend_flip() {
    // Backend 7 is removed once each bucket's clock reaches epoch 3: the
    // rebuild must be deterministic, pinned flows keep their backends.
    let cfg = MaglevConfig {
        flip_epoch: 3,
        table: churn_table(),
        ..MaglevConfig::default()
    };
    assert_flow_conformance(&pipelines::maglev_lb(&cfg), &tcp_traffic());
}

/// Multiset difference `clean − drill`, asserting drill ⊆ clean (both
/// sorted): recovery may lose output, never invent it.
fn missing_records(clean: &[Verdict], drill: &[Verdict]) -> Vec<Verdict> {
    let mut missing = Vec::new();
    let mut i = 0usize;
    for d in drill {
        loop {
            assert!(
                i < clean.len() && clean[i] <= *d,
                "drill produced a verdict absent from the clean run: {d:?}"
            );
            let hit = clean[i] == *d;
            if !hit {
                missing.push(clean[i]);
            }
            i += 1;
            if hit {
                break;
            }
        }
    }
    missing.extend_from_slice(&clean[i..]);
    missing
}

/// The flow-plane kill drill: a worker dies, its shard is invalidated
/// (ONE policy: invalidate on crash — stalled workers keep their
/// tables), survivors adopt re-steered flows as journaled `Migrate`s,
/// and every lost packet and lost flow is attributed.
///
/// `require_migrates` is DES-only: its virtual-time pacing guarantees
/// traffic keeps flowing after the crash is seen (≤ one 1 ms tick), so fresh
/// flows *must* land on survivors. The live runtime blasts the packet
/// budget in microseconds — usually drained before the watchdog fires —
/// so migrations there are possible but not guaranteed.
#[allow(clippy::too_many_arguments)]
fn assert_flow_kill_drill(
    label: &str,
    killed: u64,
    workers: u64,
    require_migrates: bool,
    clean_v: &[Verdict],
    clean_drops: u64,
    drill_v: &[Verdict],
    drill_drops: u64,
    health: &HealthReport,
    flows: Option<&FlowReport>,
) {
    let flows = flows.unwrap_or_else(|| panic!("{label}: drill carries no flow report"));
    let totals = flows.totals();
    assert!(totals.evict_death > 0, "{label}: dead shard held no flows");

    // The journal replays: hits only on live keys, per-bucket sequences
    // intact, and the shard-wide Invalidate declares exactly the flows
    // that were live — every flow the death cost is attributed.
    let replay = flows
        .journal
        .replay()
        .unwrap_or_else(|e| panic!("{label}: flow journal does not replay: {e}"));
    let invalidated = replay
        .invalidated
        .get(&(killed as u32))
        .map_or(0, |s| s.len() as u64);
    assert_eq!(
        invalidated, totals.evict_death,
        "{label}: evict_death disagrees with the journaled invalidation"
    );

    // Migrations land only on survivors, only for the dead worker's
    // buckets — the observable half of the invalidate-on-crash policy.
    let migrates: Vec<_> = flows
        .journal
        .ops
        .iter()
        .filter(|o| o.op == FlowOpKind::Migrate)
        .collect();
    if require_migrates {
        assert!(!migrates.is_empty(), "{label}: no flow ever migrated");
    }
    for m in &migrates {
        assert_eq!(
            u64::from(m.bucket) % workers,
            killed,
            "{label}: migrate for a bucket not homed on the dead worker"
        );
        assert_ne!(
            u64::from(m.shard),
            killed,
            "{label}: migrate journaled on the dead shard itself"
        );
    }
    assert_eq!(
        totals.migrated_in,
        migrates.len() as u64,
        "{label}: migrated_in counter disagrees with the journal"
    );

    // Packet conservation: every clean verdict the drill is missing is
    // either self-healing loss or an extra element drop (out-of-state
    // segments of invalidated flows).
    let missing = missing_records(clean_v, drill_v);
    assert!(!missing.is_empty(), "{label}: the kill lost nothing");
    assert_eq!(
        missing.len() as u64 + clean_drops,
        health.stats.total_lost() + drill_drops,
        "{label}: loss not fully attributed (missing={} clean_drops={clean_drops} \
         drill_drops={drill_drops} shed={} in_ring={} in_flight={} flow_totals={totals:?})",
        missing.len(),
        health.stats.shed_total(),
        health.stats.lost_in_ring,
        health.stats.lost_in_flight,
    );

    // Outside the blast radius the drill is exact: with nothing shed,
    // every missing packet belongs to a flow homed on the dead worker.
    if health.stats.shed_total() == 0 {
        for v in &missing {
            assert_eq!(
                u64::from(bucket_of(v.0)) % workers,
                killed,
                "{label}: flow {:#x} outside the dead shard lost packets",
                v.0
            );
        }
    }

    assert!(
        health
            .log
            .events
            .iter()
            .any(|e| u64::from(e.worker) == killed
                && e.to == WorkerState::Dead
                && e.reason == TransitionReason::Crash),
        "{label}: no Dead(crash) edge in the supervisor log"
    );
}

/// Kill worker 0 mid-run under the conntrack firewall in both the DES
/// (3 shards, no respawn) and live(4) (respawn) runtimes.
#[test]
fn conntrack_worker_kill_drill_attributes_flow_loss() {
    let cfg = FirewallConfig {
        table: churn_table(),
    };
    let build = pipelines::conntrack_fw(&cfg);
    // Slow, churning traffic: at 0.15 Gbps the BUDGET spans ~10 ms of
    // virtual time, so the DES re-steer (at the first 1 ms tick after the
    // kill) happens with packets still flowing, and 8-packet flow
    // lifetimes put fresh flows on the dead worker's buckets afterwards.
    let t = TrafficConfig {
        offered_gbps: 0.15,
        flow_lifetime_pkts: 8,
        ..tcp_traffic()
    };

    let clean_des = des_drill(&build, &t, clean());
    assert!(clean_des.health.stats.is_clean(), "clean DES run not clean");
    assert_eq!(
        clean_des
            .flows
            .as_ref()
            .map_or(0, |f| f.totals().evict_death),
        0
    );
    let drill_des = des_drill(&build, &t, kill_plan(0, 100));
    assert_flow_kill_drill(
        "DES",
        0,
        3,
        true,
        &canon_exact(&clean_des.tx_capture),
        clean_des.totals.dropped,
        &canon_exact(&drill_des.tx_capture),
        drill_des.totals.dropped,
        &drill_des.health,
        drill_des.flows.as_ref(),
    );

    let clean_l4 = live_drill(&build, &t, clean(), 4);
    assert_eq!(clean_l4.health.stats.total_lost(), 0, "clean live(4) lost");
    let drill_l4 = live_drill(&build, &t, kill_plan(0, 100), 4);
    assert_flow_kill_drill(
        "live(4)",
        0,
        4,
        false,
        &canon_exact(&clean_l4.tx_capture),
        clean_l4.totals.dropped,
        &canon_exact(&drill_l4.tx_capture),
        drill_l4.totals.dropped,
        &drill_l4.health,
        drill_l4.flows.as_ref(),
    );
}

/// A stalled worker is *not* crashed: its thread still owns the tables
/// and drains on resume — the flow plane must not invalidate anything.
#[test]
fn worker_stall_keeps_flow_tables_intact() {
    let cfg = FirewallConfig {
        table: churn_table(),
    };
    let build = pipelines::conntrack_fw(&cfg);
    let t = tcp_traffic();

    let clean_des = des_drill(&build, &t, clean());
    let stall_des = des_drill(&build, &t, stall_plan(1, 100, 20.0));
    assert_eq!(
        stall_des
            .flows
            .as_ref()
            .map_or(u64::MAX, |f| f.totals().evict_death),
        0,
        "DES: stall invalidated a live worker's flows"
    );
    assert_eq!(
        canon_journal(stall_des.flows.as_ref()),
        canon_journal(clean_des.flows.as_ref()),
        "DES: stall drill's flow journal diverges from the clean run"
    );

    let stall_l4 = live_drill(&build, &t, stall_plan(1, 100, 20.0), 4);
    assert_eq!(
        stall_l4
            .flows
            .as_ref()
            .map_or(u64::MAX, |f| f.totals().evict_death),
        0,
        "live(4): stall invalidated a live worker's flows"
    );
}

/// The million-flow occupancy gate (CI runs it with `--ignored`):
/// live(4) holds ≥ 1,000,000 concurrent NAT bindings with zero loss and
/// exact insert conservation, then repeats the load under a worker kill
/// with every lost flow attributed through the journal.
#[test]
#[ignore = "heavy million-flow occupancy gate — CI runs it with --ignored"]
fn million_flow_nat_gate() {
    const FLOWS: u64 = 1 << 20;

    let nat = NatConfig {
        // 18 × 64512 = 1,161,216 external mappings: ≥ FLOWS with enough
        // slack that no per-bucket port slice (9072) can run dry under
        // the binomial spread of 2^20 keys over 128 buckets (~8192 ± 90).
        ext_ips: 18,
        table: FlowTableConfig {
            capacity: 1 << 21,
            ttl_epochs: u64::MAX,
            embryonic_ttl_epochs: 0,
            // Frozen clock: occupancy, not churn, is under test.
            epoch_pkts: 0,
        },
        ..NatConfig::default()
    };
    let build = pipelines::nat44(&nat);
    let t = TrafficConfig {
        offered_gbps: 40.0,
        size: SizeDist::Fixed(64),
        ip_version: IpVersion::V4,
        flows: FLOWS as usize,
        zipf_alpha: 0.0,
        payload: PayloadFill::Zeros,
        seed: 23,
        // Round-robin: every flow is touched in the first 2^20 packets —
        // no coupon-collector tail.
        sequential: true,
        ..TrafficConfig::default()
    };
    let mut cfg = live_cfg(4, &t, clean());
    cfg.capture = false; // 10^6 verdict records add nothing here
    cfg.max_packets = Some(FLOWS);
    let balancer = || lb::replicated(|| Box::new(lb::FixedFraction::new(0.5)));

    // Phase 1: clean occupancy. Drain-mode backpressure delivers every
    // packet, so the table must hold every distinct binding.
    let rep = live::run_sharded(&cfg, &build, &balancer());
    assert_eq!(rep.rx_dropped, 0, "clean gate run dropped at RX");
    assert_eq!(
        rep.health.stats.total_lost(),
        0,
        "clean gate run lost packets"
    );
    let flows = rep.flows.expect("NAT run carries a flow report");
    let totals = flows.totals();
    assert!(
        totals.live >= 1_000_000,
        "below the million-flow floor: {totals:?}"
    );
    assert_eq!(
        totals.inserts, totals.live,
        "clean run evicted flows: {totals:?}"
    );
    assert_eq!(
        totals.table_full_drops, 0,
        "table sized too small: {totals:?}"
    );
    assert_eq!(totals.evictions_total(), 0);
    let replay = flows
        .journal
        .replay()
        .expect("million-flow journal replays");
    let replay_live: u64 = replay.live.values().map(|s| s.len() as u64).sum();
    assert_eq!(
        replay_live, totals.live,
        "journal live set disagrees with the table gauge"
    );

    // Phase 2: the same load with worker 1 killed early, plus a second
    // pass of traffic so re-steered flows land on survivors. Every flow
    // the death costs is attributed: the journaled shard invalidation
    // matches evict_death exactly, migrations land only on survivors for
    // the dead worker's buckets, and insert conservation still holds.
    cfg.max_packets = Some(FLOWS + (FLOWS >> 2));
    cfg.fault = kill_plan(1, 100_000);
    let drill = live::run_sharded(&cfg, &build, &balancer());
    let flows = drill.flows.expect("NAT drill carries a flow report");
    let totals = flows.totals();
    assert!(totals.evict_death > 0, "the kill invalidated no flows");
    assert_eq!(
        totals.inserts,
        totals.live + totals.evictions_total(),
        "insert conservation broken under the kill: {totals:?}"
    );
    assert!(
        totals.live + totals.evict_death >= 1_000_000,
        "flows lost without attribution: {totals:?}"
    );
    let replay = flows.journal.replay().expect("kill-drill journal replays");
    let invalidated = replay.invalidated.get(&1).map_or(0, |s| s.len() as u64);
    assert_eq!(
        invalidated, totals.evict_death,
        "evict_death disagrees with the journaled invalidation"
    );
    // Under full blast the watchdog may declare an overloaded survivor
    // dead too (stall past the window budget) and re-steer its buckets —
    // legitimate, but it widens where migrations may come from. Validate
    // every migrate against the workers actually declared dead.
    let dead_homes: std::collections::BTreeSet<u32> = drill
        .health
        .log
        .events
        .iter()
        .filter(|e| e.to == WorkerState::Dead)
        .map(|e| e.worker)
        .collect();
    let migrates = flows
        .journal
        .ops
        .iter()
        .filter(|o| o.op == FlowOpKind::Migrate)
        .inspect(|m| {
            let home = u32::from(m.bucket) % 4;
            assert!(
                dead_homes.contains(&home),
                "migrate for bucket {} homed on live worker {home}",
                m.bucket
            );
            assert_ne!(m.shard, home, "migrate journaled on the bucket's home");
        })
        .count() as u64;
    assert_eq!(totals.migrated_in, migrates);
    assert!(
        drill.health.log.events.iter().any(|e| e.worker == 1
            && e.to == WorkerState::Dead
            && e.reason == TransitionReason::Crash),
        "no Dead(crash) edge in the supervisor log"
    );
}
