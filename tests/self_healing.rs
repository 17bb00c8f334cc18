//! Self-healing plane integration: worker supervision, RSS re-steering,
//! SLO-coupled overload shedding, and the replayable quarantine audit
//! trail, driven end-to-end through the live runtime's seeded drills.
//!
//! The heavy chaos gate at the bottom (`chaos_recovery_gate`) is
//! `#[ignore]`d for regular runs; CI invokes it explicitly with
//! `cargo test --release --test self_healing -- --ignored` and uploads
//! the artifacts it writes to `$NBA_CHAOS_DIR` when the gate fails.

use std::sync::Arc;
use std::time::Duration;

use nba::apps::{pipelines, AppConfig};
use nba::core::audit::{self, AuditConfig, DecisionKind};
use nba::core::batch::{Anno, PacketResult};
use nba::core::element::{ComputeMode, ElemCtx, Element};
use nba::core::fault::WorkerKill;
use nba::core::graph::GraphBuilder;
use nba::core::lb;
use nba::core::runtime::live::{self, LiveConfig, LiveReport};
use nba::core::runtime::{BuildCtx, PipelineBuilder};
use nba::core::supervise::TransitionReason;
use nba::core::telemetry::samples_to_jsonl;
use nba::core::{FaultConfig, FaultPlan, ShedConfig, ShedPolicy, WorkerState};
use nba::io::{IpVersion, Packet, PayloadFill, SizeDist, TrafficConfig};

/// Fixed workload for the drain-mode tests: every generated packet is
/// delivered exactly once unless the healing plane accounts otherwise.
const BUDGET: u64 = 1200;

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

fn router() -> PipelineBuilder {
    pipelines::ipv4_router(&AppConfig {
        ports: 4,
        v4_routes: 2048,
        ..AppConfig::default()
    })
}

fn base_cfg(workers: usize) -> LiveConfig {
    LiveConfig {
        workers,
        duration: Duration::from_secs(20), // deadline only; drains in ms
        traffic: traffic(),
        compute: ComputeMode::Full,
        io_threads: 1,
        max_packets: Some(BUDGET),
        drain: true,
        capture: true,
        ..LiveConfig::default()
    }
}

fn kill(worker: u32, at_packet: u64) -> FaultConfig {
    FaultConfig {
        plan: FaultPlan {
            worker_kill: vec![WorkerKill { worker, at_packet }],
            ..FaultPlan::default()
        },
        ..FaultConfig::default()
    }
}

fn run(cfg: &LiveConfig) -> LiveReport {
    live::run_sharded(
        cfg,
        &router(),
        &lb::replicated(|| Box::new(lb::FixedFraction::new(0.5))),
    )
}

/// A fault-free run must lose nothing, shed nothing, respawn nothing and
/// log no supervision edge: not even a Suspect one.
#[test]
fn clean_run_loses_nothing_and_never_contains() {
    let rep = run(&base_cfg(4));
    assert!(
        rep.health.is_clean(),
        "clean run not clean: {:?}",
        rep.health
    );
    assert_eq!(rep.health.states.len(), 4);
}

/// Drop-tail at a zero occupancy threshold sheds *every* packet before
/// enqueue — nothing reaches a worker, and every drop is accounted.
#[test]
fn drop_tail_at_zero_threshold_sheds_everything() {
    let mut cfg = base_cfg(2);
    cfg.shed = ShedConfig {
        policy: ShedPolicy::DropTail,
        occupancy: 0.0,
        slo_coupled: false,
    };
    let rep = run(&cfg);
    assert_eq!(rep.health.stats.shed_drop_tail, BUDGET);
    assert!(rep.tx_capture.is_empty(), "shed packets were transmitted");
    assert_eq!(rep.totals.tx_packets, 0);
    assert_eq!(rep.rx_dropped, 0, "shed happens before the ring, not at it");
}

/// The priority policy spares classes 0–1 below full pressure and sheds
/// the best-effort classes 2–3; the split is seed-deterministic and the
/// ledger balances exactly.
#[test]
fn priority_shedding_spares_high_classes_and_balances() {
    let mut cfg = base_cfg(2);
    cfg.shed = ShedConfig {
        policy: ShedPolicy::Priority,
        occupancy: 0.0,
        slo_coupled: false,
    };
    let rep = run(&cfg);
    let shed = rep.health.stats.shed_priority;
    assert!(shed > 0, "no best-effort traffic shed");
    assert!(!rep.tx_capture.is_empty(), "high-priority traffic shed too");
    assert_eq!(
        rep.tx_capture.len() as u64 + shed + rep.totals.dropped,
        BUDGET,
        "shed ledger does not balance"
    );
    assert_eq!(rep.health.stats.shed_drop_tail, 0);
    assert_eq!(rep.health.stats.shed_probabilistic, 0);
}

/// SLO-coupled shedding: an unmeetable throughput floor pushes the
/// burn-rate over 1 at the first reporter window, after which IO threads
/// shed at full pressure instead of queueing more work.
#[test]
fn slo_burn_triggers_shedding() {
    let mut cfg = base_cfg(2);
    cfg.max_packets = None;
    cfg.drain = false;
    cfg.capture = false;
    cfg.duration = Duration::from_millis(150);
    cfg.slo = Some(nba::core::audit::SloConfig {
        latency_ns: None,
        min_mpps: Some(1e9), // unmeetable: every window violates
        error_budget: 0.05,
    });
    cfg.shed = ShedConfig {
        policy: ShedPolicy::DropTail,
        occupancy: 1.0, // occupancy trigger off — only the SLO coupling
        slo_coupled: true,
    };
    let rep = run(&cfg);
    let slo = rep.slo.expect("SLO was configured");
    assert!(!slo.met, "a 1000 Gpps floor cannot be met");
    assert!(
        rep.health.stats.shed_drop_tail > 0,
        "burn-rate never engaged the shedder"
    );
}

/// A kill drill with decision-auditing balancers: the dead shard's
/// balancer records the quarantine (`HealthDown`) and the respawn
/// re-admission (`HealthUp`), and the log replays bit-identically —
/// the same trail the device circuit breaker leaves.
#[test]
fn kill_drill_records_replayable_quarantine_audit() {
    let mut cfg = base_cfg(4);
    cfg.fault = kill(2, 100);
    cfg.audit = AuditConfig {
        decision_capacity: 256,
        ..AuditConfig::default()
    };
    let rep = live::run_sharded(
        &cfg,
        &router(),
        &lb::replicated(|| Box::new(lb::Adaptive::new(lb::AlbConfig::default()))),
    );
    assert_eq!(rep.health.stats.respawns, 1);
    assert!(
        rep.health.log.events.iter().any(|e| e.worker == 2
            && e.to == WorkerState::Dead
            && e.reason == TransitionReason::Crash),
        "no Dead(crash) edge for worker 2"
    );
    assert_eq!(rep.decisions.len(), 4, "one audit log per replica");
    let dead_log = &rep.decisions[2];
    let kinds: Vec<DecisionKind> = dead_log.records.iter().map(|r| r.kind).collect();
    assert!(
        kinds.contains(&DecisionKind::HealthDown),
        "quarantine not recorded in the decision audit: {kinds:?}"
    );
    assert!(
        kinds.contains(&DecisionKind::HealthUp),
        "respawn re-admission not recorded: {kinds:?}"
    );
    let replayed = audit::replay(dead_log).expect("audit log must replay");
    assert!(
        dead_log.bit_eq(&replayed),
        "decision-audit replay diverged from the recorded log"
    );
    // The supervisor's own log replays to the states the report carries.
    let states = rep.health.log.replay().expect("supervisor log must replay");
    for (w, s) in &states {
        assert_eq!(rep.health.states[*w as usize], *s);
    }
    // Buffers: what the dead shard left queued died with its ring and is
    // written off, a lost packet at a time; everything else went home.
    let h = &rep.health.stats;
    assert_eq!(h.buffers_unreturned, 0, "{h:?}");
    assert!(h.buffers_lost <= h.lost_in_ring + h.lost_in_flight, "{h:?}");
    assert_eq!(
        rep.totals.tx_packets + rep.totals.dropped + h.total_lost(),
        BUDGET,
        "{h:?}"
    );
}

/// An element that panics on every `every`-th packet it sees.
struct PanicEvery {
    every: u64,
    seen: u64,
}

impl Element for PanicEvery {
    fn class_name(&self) -> &'static str {
        "PanicEvery"
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, _: &mut Packet, _: &mut Anno) -> PacketResult {
        self.seen += 1;
        if self.seen.is_multiple_of(self.every) {
            panic!("injected element panic (expected in this test)");
        }
        PacketResult::Out(0)
    }
}

/// The poison drill on two IO threads into two workers: every RX batch
/// mixes buffers of two home pools. A contained panic loses its batch, and
/// each home writes off exactly its share of it, so the lost buffers equal
/// the dropped packets and none goes missing.
#[test]
fn poison_drill_writes_off_exactly_the_lost_buffers() {
    let pipeline: PipelineBuilder = Arc::new(|_: &BuildCtx| {
        let mut gb = GraphBuilder::new();
        let p = gb.add(Box::new(PanicEvery {
            every: 250,
            seen: 0,
        }));
        gb.connect_exit(p, 0);
        gb.entry(p);
        gb.build().expect("poison pipeline")
    });
    let mut cfg = base_cfg(2);
    cfg.io_threads = 2;
    let rep = live::run_sharded(&cfg, &pipeline, &lb::replicated(|| Box::new(lb::CpuOnly)));
    let (t, f, h) = (&rep.totals, &rep.faults.snapshot, &rep.health.stats);
    assert!(f.panics_contained >= 2, "{f:?}");
    assert_eq!(t.rx_packets, BUDGET);
    assert_eq!(t.rx_packets, t.tx_packets + t.dropped, "{t:?}");
    assert_eq!(h.buffers_lost, f.dropped_packets, "{h:?}");
    assert_eq!(h.buffers_unreturned, 0, "{h:?}");
}

/// SYN-flood robustness: a conntrack firewall under a 40% one-shot SYN
/// flood with the priority shedder armed. Best-effort classes shed at
/// the IO threads before enqueue, the short embryonic TTL reaps every
/// flood entry that gets in, and no ESTABLISHED connection ever loses
/// its table entry — overload is absorbed by shedding and embryonic
/// expiry, never by displacing tracked state.
#[test]
fn syn_flood_sheds_without_evicting_established() {
    use nba::apps::stateful::FirewallConfig;
    use nba::core::flow::FlowTableConfig;
    use nba::io::gen::L4Proto;

    let mut cfg = base_cfg(2);
    cfg.traffic = TrafficConfig {
        l4: L4Proto::Tcp,
        flows: 48,
        syn_flood_per_mille: 400,
        ..traffic()
    };
    cfg.shed = ShedConfig {
        policy: ShedPolicy::Priority,
        occupancy: 0.0,
        slo_coupled: false,
    };
    let fw = FirewallConfig {
        table: FlowTableConfig {
            capacity: 4096,
            // Established entries effectively never idle out; embryonic
            // ones go after two short epochs — long enough for a legit
            // handshake's second packet, far too short for flood slots.
            ttl_epochs: 1 << 20,
            embryonic_ttl_epochs: 2,
            epoch_pkts: 4,
        },
    };
    let rep = live::run_sharded(
        &cfg,
        &pipelines::conntrack_fw(&fw),
        &lb::replicated(|| Box::new(lb::FixedFraction::new(0.5))),
    );
    let shed = rep.health.stats.shed_priority;
    assert!(shed > 0, "the shedder never engaged under flood");
    assert!(
        !rep.tx_capture.is_empty(),
        "established traffic shed along with the flood"
    );

    let totals = rep
        .flows
        .expect("firewall run carries a flow report")
        .totals();
    assert!(
        totals.evict_embryonic > 0,
        "flood entries were never reaped: {totals:?}"
    );
    assert_eq!(
        totals.evict_idle, 0,
        "an established connection idled out of the table: {totals:?}"
    );
    assert_eq!(totals.evict_death, 0, "no worker died in this drill");
    assert_eq!(
        totals.table_full_drops, 0,
        "the flood displaced table capacity: {totals:?}"
    );
    assert_eq!(
        totals.out_of_state_drops, 0,
        "an established flow lost state mid-connection: {totals:?}"
    );
    // The overload ledger balances exactly: every offered packet was
    // transmitted, shed at IO, or dropped by an element.
    assert_eq!(
        rep.tx_capture.len() as u64 + shed + rep.totals.dropped,
        BUDGET,
        "flood ledger does not balance"
    );
}

/// The CI chaos gate: kill worker 2 of 4 under continuous load, then gate
/// on recovery (respawn observed, shard Healthy again at teardown) and on
/// post-recovery throughput holding at least 70% of the pre-kill rate.
/// Artifacts (supervisor log, flight dumps, time series) are written to
/// `$NBA_CHAOS_DIR` *before* the asserts so a failing run leaves evidence.
#[test]
#[ignore = "heavy chaos drill — CI runs it with --ignored"]
fn chaos_recovery_gate() {
    let mut cfg = base_cfg(4);
    cfg.max_packets = None;
    cfg.drain = false;
    cfg.capture = false;
    cfg.duration = Duration::from_secs(3);
    cfg.fault = kill(2, 20_000);
    let rep = run(&cfg);

    if let Ok(dir) = std::env::var("NBA_CHAOS_DIR") {
        let dir = std::path::Path::new(&dir);
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(dir.join("supervisor.jsonl"), rep.health.log.to_jsonl());
        let _ = std::fs::write(dir.join("samples.jsonl"), samples_to_jsonl(&rep.samples));
        for (i, dump) in rep.flight.iter().enumerate() {
            let _ = std::fs::write(
                dir.join(format!("flight_{i}_{}.json", dump.reason)),
                dump.to_json(),
            );
        }
    }

    assert_eq!(rep.health.stats.respawns, 1, "worker 2 was not respawned");
    let dead_t = rep
        .health
        .log
        .events
        .iter()
        .find(|e| e.worker == 2 && e.to == WorkerState::Dead)
        .expect("no Dead edge for worker 2")
        .t_ns;
    let recover_t = rep
        .health
        .log
        .events
        .iter()
        .find(|e| e.worker == 2 && e.reason == TransitionReason::Respawn)
        .expect("no Respawn edge for worker 2")
        .t_ns;
    assert!(recover_t >= dead_t);
    assert_eq!(
        rep.health.states[2],
        WorkerState::Healthy,
        "worker 2 never returned to Healthy after the respawn"
    );
    assert!(rep.health.log.replay().is_ok());

    // Throughput gate: windows strictly before the kill vs windows after
    // recovery plus a settle period.
    let mpps = |pred: &dyn Fn(u64) -> bool| {
        let w: Vec<f64> = rep
            .samples
            .iter()
            .filter(|s| pred(s.t.as_ns()))
            .map(|s| s.tx_mpps)
            .collect();
        (!w.is_empty()).then(|| w.iter().sum::<f64>() / w.len() as f64)
    };
    let settle = 100_000_000u64; // 100 ms
    let post = mpps(&|t| t > recover_t + settle).expect("no post-recovery windows sampled");
    // Fall back to the whole-run mean if the kill fired before the first
    // sampler window (fast machines reach 20k packets in under 2 ms).
    let pre = mpps(&|t| t < dead_t).or_else(|| mpps(&|_| true)).unwrap();
    assert!(
        post >= 0.7 * pre,
        "post-recovery throughput {post:.3} Mpps below 70% of pre-kill {pre:.3} Mpps"
    );
}
