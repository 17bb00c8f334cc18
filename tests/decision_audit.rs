//! Decision-audit conformance: the balancer's decision log in logical-clock
//! mode is a pure function of the transmitted packet set, so the DES
//! runtime and the live runtime with one worker must produce bit-identical
//! [`DecisionRecord`] streams for the same seeded workload; the log must
//! replay bit-exactly through a fresh balancer; and a seeded fault storm
//! must trip the cost-model drift detector and raise a flight dump naming
//! the offending stage. Both runtimes build and close the audit, SLO,
//! trace and flow planes through one run assembly, so each plane is off on
//! both by default and reports on both when it is on.

use std::time::Duration;

use nba::apps::{pipelines, AppConfig};
use nba::core::audit::{
    replay, AuditConfig, DecisionClock, DecisionLog, DriftConfig, SloConfig, StageProfiles,
};
use nba::core::element::ComputeMode;
use nba::core::flow::FlowReport;
use nba::core::lb::{self, AlbConfig, LoadBalancer};
use nba::core::runtime::live::{self, LiveConfig};
use nba::core::runtime::{des, PipelineBuilder, RuntimeConfig};
use nba::core::telemetry::TraceEvent;
use nba::core::{FaultConfig, FaultPlan};
use nba::io::{
    IpVersion, L4Proto, Limited, PacketSource, PayloadFill, SizeDist, TrafficConfig, TrafficGen,
};
use nba::sim::topology::{GpuSpec, PortSpec, SocketSpec};
use nba::sim::{Time, Topology};

/// Total packets per run (drains in milliseconds on both runtimes).
const BUDGET: u64 = 1200;

/// The fault-storm drill needs enough offload tasks to get the drift
/// detector past its EWMA warm-up (`min_tasks`), so it runs longer.
const STORM_BUDGET: u64 = 6 * BUDGET;

/// Decision-clock quantum: one balancer update per 100 transmitted
/// packets, at most 64 updates.
const PKTS_PER_UPDATE: u64 = 100;
const MAX_UPDATES: u64 = 64;

/// Decision-log capacity (ample for `MAX_UPDATES` milestones).
const LOG_CAPACITY: usize = 256;

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

fn traffic() -> TrafficConfig {
    TrafficConfig {
        offered_gbps: 10.0,
        size: SizeDist::Fixed(256),
        ip_version: IpVersion::V4,
        flows: 64,
        zipf_alpha: 0.0,
        payload: PayloadFill::Zeros,
        seed: 7,
        ..TrafficConfig::default()
    }
}

fn alb_cfg() -> AlbConfig {
    AlbConfig {
        delta: 0.08,
        update_interval: Time::from_ms(4),
        avg_window: 2,
        min_wait: 0,
        max_wait: 2,
        initial_w: 0.5,
    }
}

/// An adaptive balancer pre-armed with the audit log and the logical
/// decision clock (the runtime leaves a pre-armed balancer alone when
/// `cfg.audit.decision_capacity == 0`).
fn audited_adaptive() -> lb::Adaptive {
    let mut a = lb::Adaptive::new(alb_cfg());
    a.enable_audit(LOG_CAPACITY);
    a.set_decision_clock(DecisionClock::new(PKTS_PER_UPDATE, MAX_UPDATES));
    a
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
        fault,
        ..RuntimeConfig::default()
    }
}

/// One DES run with an audited clock-mode balancer; returns its decision
/// log.
fn des_decisions(build: &PipelineBuilder) -> DecisionLog {
    let cfg = des_cfg(FaultConfig::default());
    let source = Limited::new(TrafficGen::new(traffic()), BUDGET);
    let report = des::run_with_sources(
        &cfg,
        build,
        &lb::shared(Box::new(audited_adaptive())),
        vec![Box::new(source) as Box<dyn PacketSource>],
        traffic().offered_gbps,
    );
    assert_eq!(report.rx_dropped, 0, "DES run must be lossless");
    report.decisions.expect("audited balancer must keep a log")
}

/// A draining live run with one worker over `traffic`, `BUDGET` packets.
fn live_cfg(traffic: TrafficConfig) -> LiveConfig {
    LiveConfig {
        workers: 1,
        duration: Duration::from_secs(20), // deadline only; drains in ms
        traffic,
        compute: ComputeMode::Full,
        io_threads: 1,
        max_packets: Some(BUDGET),
        drain: true,
        ..LiveConfig::default()
    }
}

/// One live run with a single audited worker; returns its decision log.
fn live_decisions(build: &PipelineBuilder) -> DecisionLog {
    let cfg = live_cfg(traffic());
    let factory = lb::replicated(|| Box::new(audited_adaptive()) as Box<dyn LoadBalancer>);
    let report = live::run_sharded(&cfg, build, &factory);
    assert_eq!(report.rx_dropped, 0, "draining live run must be lossless");
    let mut logs = report.decisions;
    assert_eq!(logs.len(), 1, "one worker, one decision log");
    logs.pop().unwrap()
}

fn router() -> PipelineBuilder {
    let app = AppConfig {
        ports: 4,
        v4_routes: 2048,
        ..AppConfig::default()
    };
    pipelines::ipv4_router(&app)
}

/// The tentpole conformance property: identical seeds produce identical
/// decision streams on both runtimes, and the stream replays bit-exactly.
#[test]
fn des_and_live_decision_streams_are_bit_identical() {
    let build = router();
    let des_log = des_decisions(&build);
    assert!(
        !des_log.records.is_empty(),
        "the clock-mode balancer must have decided at least once"
    );
    // Enough packets for several milestones, one record each.
    let milestones = (BUDGET / PKTS_PER_UPDATE).min(MAX_UPDATES);
    assert!(
        (2..=milestones).contains(&(des_log.records.len() as u64)),
        "expected up to {milestones} milestone records, got {}",
        des_log.records.len()
    );

    let live_log = live_decisions(&build);
    assert!(
        des_log.bit_eq(&live_log),
        "DES and live(1) decision streams diverge:\nDES:\n{}\nlive:\n{}",
        des_log.to_jsonl(),
        live_log.to_jsonl()
    );

    // Replay: the recorded inputs fed through a fresh balancer traverse
    // the same branches and reproduce every output bit.
    let replayed = replay(&des_log).expect("replay must succeed");
    assert!(replayed.bit_eq(&des_log), "replay diverged from the record");
}

/// Same binary, same seed, run twice: the DES stream is reproducible and
/// survives a JSONL round trip bit-exactly.
#[test]
fn decision_log_round_trips_and_reproduces() {
    let build = router();
    let a = des_decisions(&build);
    let b = des_decisions(&build);
    assert!(a.bit_eq(&b), "same seed, same config, different decisions");

    let parsed = DecisionLog::from_jsonl(&a.to_jsonl()).expect("round trip parses");
    assert!(parsed.bit_eq(&a), "JSONL round trip lost bits");
    let replayed = replay(&parsed).expect("replay after round trip");
    assert!(replayed.bit_eq(&a), "replay after round trip diverged");
}

/// A log cut short is refused, not read back as a shorter log that then
/// "replays bit-exactly" — the header declares the record count.
#[test]
fn truncated_decision_log_is_rejected() {
    let text = des_decisions(&router()).to_jsonl();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 2, "need records to cut");
    let cut = lines[..lines.len() - 1].join("\n") + "\n";
    let err = DecisionLog::from_jsonl(&cut).expect_err("truncated log accepted");
    assert!(err.contains("declares"), "{err}");
}

/// The drift drill: a seeded transient-fault storm makes measured launch
/// time (retry backoff the cost model never predicts) exceed the predicted
/// device cost, so the detector must latch an event, name the launch
/// stage, and dump the flight recorder.
#[test]
fn seeded_fault_storm_trips_drift_detector_with_flight_dump() {
    let fault = FaultConfig {
        plan: FaultPlan {
            seed: 99,
            transient: 0.45,
            ..FaultPlan::default()
        },
        ..FaultConfig::default()
    };
    let mut cfg = des_cfg(fault);
    cfg.audit = AuditConfig {
        decision_capacity: 0,
        stage_stats: true,
        drift: Some(DriftConfig::default()),
    };
    let source = Limited::new(TrafficGen::new(traffic()), STORM_BUDGET);
    let report = des::run_with_sources(
        &cfg,
        &router(),
        &lb::shared(Box::new(lb::FixedFraction::new(0.8))),
        vec![Box::new(source) as Box<dyn PacketSource>],
        traffic().offered_gbps,
    );
    assert!(
        report.faults.snapshot.retried > 0,
        "the storm must actually retry"
    );
    let stages = report.stages.expect("stage stats were on");
    assert!(stages.tasks > 0, "no offload tasks decomposed");
    let drift = report.drift.expect("drift detection was on");
    assert!(
        drift.events >= 1,
        "retry backoff must trip the drift detector (rel_err {})",
        drift.rel_err
    );
    assert_eq!(
        drift.worst_stage.as_deref(),
        Some("launch"),
        "the unpredicted time lives in the launch stage"
    );
    assert!(
        report.flight.iter().any(|d| d.reason.contains("launch")),
        "drift must dump the flight recorder naming the stage (got {:?})",
        report
            .flight
            .iter()
            .map(|d| d.reason.clone())
            .collect::<Vec<_>>()
    );
}

/// A clean, un-audited run stays clean on both runtimes: no stage stats,
/// no drift report, no SLO verdict, no decision log, no flight dumps — the
/// all-off default really is off.
#[test]
fn audit_plane_is_fully_off_by_default() {
    let cfg = des_cfg(FaultConfig::default());
    let source = Limited::new(TrafficGen::new(traffic()), BUDGET);
    let report = des::run_with_sources(
        &cfg,
        &router(),
        &lb::shared(Box::new(lb::FixedFraction::new(0.5))),
        vec![Box::new(source) as Box<dyn PacketSource>],
        traffic().offered_gbps,
    );
    assert!(report.stages.is_none());
    assert!(report.drift.is_none());
    assert!(report.slo.is_none());
    assert!(report.decisions.is_none());
    assert!(report.flight.is_empty());

    let live = live::run(
        &live_cfg(traffic()),
        &router(),
        &lb::shared(Box::new(lb::FixedFraction::new(0.5))),
    );
    assert!(live.stages.is_none(), "live(1) kept stage stats");
    assert!(live.drift.is_none(), "live(1) kept a drift report");
    assert!(live.slo.is_none(), "live(1) kept an SLO verdict");
    assert!(live.decisions.is_empty(), "live(1) kept a decision log");
    assert!(live.flight.is_empty(), "live(1) took flight dumps");
}

/// The router behind a NAT44 stage: stateful (every packet is a flow-table
/// operation) and offloading (the route lookup), so one run exercises
/// every plane.
const NAT_ROUTER: &str = "
src :: FromInput();
chk :: CheckIPHeader();
nat :: Nat44(\"ext_ips=4\", \"ports_per_ip=16384\", \"capacity=4096\");
lb  :: LoadBalance();
rt  :: IPLookup();
ttl :: DecIPTTL();
out :: ToOutput();

src -> chk;
chk [0] -> nat -> lb -> rt -> ttl -> out;
chk [1] -> Discard;
";

/// What one report carries of the run's planes, whichever runtime made it.
struct Planes<'a> {
    stages: Option<&'a StageProfiles>,
    drift: bool,
    slo: bool,
    decisions: Vec<&'a DecisionLog>,
    trace: &'a [TraceEvent],
    flows: Option<&'a FlowReport>,
}

fn assert_every_plane(label: &str, p: Planes<'_>) {
    let stages = p
        .stages
        .unwrap_or_else(|| panic!("{label}: no stage stats"));
    assert!(stages.tasks > 0, "{label}: no offload task decomposed");
    assert!(p.drift, "{label}: no drift report");
    assert!(p.slo, "{label}: no SLO verdict");
    assert_eq!(p.decisions.len(), 1, "{label}: one balancer, one log");
    assert!(
        !p.decisions[0].records.is_empty(),
        "{label}: the decision log is empty"
    );
    assert!(!p.trace.is_empty(), "{label}: tracing was on, no events");
    let flows = p.flows.unwrap_or_else(|| panic!("{label}: no flow report"));
    assert!(
        !flows.journal.canonical().is_empty(),
        "{label}: the flow journal is empty"
    );
    if let Err(e) = flows.journal.replay() {
        panic!("{label}: flow journal does not replay: {e}");
    }
}

/// Every plane on — the full decision audit, an SLO, tracing and the flow
/// journal, over a stateful pipeline that offloads — and every one reports,
/// on the DES and on live(1) alike.
#[test]
fn every_plane_reports_on_both_runtimes() {
    let app = AppConfig {
        ports: 4,
        v4_routes: 2048,
        ..AppConfig::default()
    };
    let build = pipelines::pipeline_from_config(NAT_ROUTER, &app);
    let tcp = TrafficConfig {
        l4: L4Proto::Tcp,
        ..traffic()
    };
    let audit = AuditConfig::full(LOG_CAPACITY);
    let slo = SloConfig::parse("p99=50ms,budget=0.1").expect("SLO parses");

    let mut cfg = des_cfg(FaultConfig::default());
    cfg.audit = audit.clone();
    cfg.slo = Some(slo.clone());
    cfg.telemetry.trace_capacity = 4096;
    cfg.flow_journal = true;
    let source = Limited::new(TrafficGen::new(tcp.clone()), BUDGET);
    let des = des::run_with_sources(
        &cfg,
        &build,
        &lb::shared(Box::new(audited_adaptive())),
        vec![Box::new(source) as Box<dyn PacketSource>],
        tcp.offered_gbps,
    );
    assert_every_plane(
        "DES",
        Planes {
            stages: des.stages.as_ref(),
            drift: des.drift.is_some(),
            slo: des.slo.is_some(),
            decisions: des.decisions.iter().collect(),
            trace: &des.trace,
            flows: des.flows.as_ref(),
        },
    );

    let mut cfg = live_cfg(tcp);
    cfg.audit = audit;
    cfg.slo = Some(slo);
    cfg.telemetry.trace_capacity = 4096;
    cfg.flow_journal = true;
    let factory = lb::replicated(|| Box::new(audited_adaptive()) as Box<dyn LoadBalancer>);
    let live = live::run_sharded(&cfg, &build, &factory);
    assert_every_plane(
        "live(1)",
        Planes {
            stages: live.stages.as_ref(),
            drift: live.drift.is_some(),
            slo: live.slo.is_some(),
            decisions: live.decisions.iter().collect(),
            trace: &live.trace,
            flows: live.flows.as_ref(),
        },
    );
}
