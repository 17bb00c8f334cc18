//! `supervise::Supervisor` driven directly — no threads, no engine: the
//! per-tick reactions both runtimes share.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use nba_core::flow::FlowRegistry;
use nba_core::lb;
use nba_core::supervise::{
    HealthStats, Supervisor, SupervisorConfig, TransitionReason, WorkerHealth, WorkerState,
};
use nba_io::{RssTable, RSS_BUCKETS};

struct Rig {
    sup: Supervisor,
    health: Arc<Vec<WorkerHealth>>,
    hstats: Arc<HealthStats>,
    tables: Vec<Arc<RssTable>>,
    flows: FlowRegistry,
    t_ns: u64,
}

/// `tables` RSS tables of `stride` workers each, all sharing one balancer.
fn rig(tables: usize, stride: usize) -> Rig {
    let workers = tables * stride;
    let health: Arc<Vec<WorkerHealth>> =
        Arc::new((0..workers).map(|_| WorkerHealth::new()).collect());
    let hstats = Arc::new(HealthStats::default());
    let tables: Vec<Arc<RssTable>> = (0..tables)
        .map(|_| Arc::new(RssTable::new(stride as u16)))
        .collect();
    let flows = FlowRegistry::new();
    let balancer = lb::shared(Box::new(lb::CpuOnly));
    let sup = Supervisor::new(
        &SupervisorConfig::default(),
        health.clone(),
        hstats.clone(),
        tables.clone(),
        vec![balancer; workers],
        flows.clone(),
    );
    Rig {
        sup,
        health,
        hstats,
        tables,
        flows,
        t_ns: 0,
    }
}

impl Rig {
    /// One tick with `backlog` items waiting on every shard.
    fn tick(&mut self, backlog: u64) -> Vec<(usize, WorkerState, TransitionReason)> {
        self.t_ns += 500_000;
        self.sup
            .tick(self.t_ns, |_| backlog)
            .into_iter()
            .map(|(w, t)| (w, t.to, t.reason))
            .collect()
    }

    fn owners(&self, table: usize) -> Vec<u16> {
        self.tables[table].snapshot()
    }
}

#[test]
fn crash_resteers_onto_live_survivors_invalidates_and_recovers() {
    let mut r = rig(1, 4);
    r.flows.shard(1).stats.live.store(7, Ordering::Relaxed);
    assert!(r.tick(0).is_empty(), "first sighting is only a baseline");

    // Worker 3 already finished its drain; worker 1 crashes.
    r.health[3].finish();
    r.health[1].crash();
    assert_eq!(
        r.tick(0),
        vec![(1, WorkerState::Dead, TransitionReason::Crash)]
    );
    assert_eq!(r.sup.state(1), WorkerState::Dead);
    assert_eq!(r.health[1].observed_state(), WorkerState::Dead);

    // Its 32 buckets moved only onto live, not-done survivors (0 and 2);
    // nobody else's bucket was touched.
    let owners = r.owners(0);
    for (bucket, &owner) in owners.iter().enumerate() {
        match bucket % 4 {
            1 => assert!(owner == 0 || owner == 2, "bucket {bucket} -> {owner}"),
            home => assert_eq!(usize::from(owner), home, "live bucket {bucket} moved"),
        }
    }
    let stats = r.hstats.snapshot();
    assert_eq!((stats.resteers, stats.buckets_moved), (1, 32));
    // Invalidate-on-crash: the shard's flows are accounted as lost.
    let flows = r.flows.report().expect("flow report");
    assert_eq!(flows.shards[&1].evict_death, 7);
    assert_eq!(flows.shards[&1].live, 0);

    // The driver respawned the shard: home buckets restored, logged.
    r.health[1].rearm();
    r.sup.recovered(1, r.t_ns + 1);
    assert_eq!(r.sup.state(1), WorkerState::Recovering);
    let boot: Vec<u16> = (0..RSS_BUCKETS as u16).map(|b| b % 4).collect();
    assert_eq!(r.owners(0), boot);
    r.health[1].advance(10);
    assert_eq!(
        r.tick(0),
        vec![(1, WorkerState::Healthy, TransitionReason::Progress)]
    );

    let report = r.sup.finish(true, 0, |_| (0, 0));
    let replayed = report.log.replay().expect("log replays");
    assert_eq!(replayed[&1], WorkerState::Healthy);
    assert_eq!(report.log.events[0].buckets_moved, 32);
    assert_eq!(report.log.events[1].reason, TransitionReason::Respawn);
    assert_eq!(report.log.events[1].buckets_moved, 32);
    assert_eq!(report.stats.total_lost(), 0);
    assert_eq!(report.stats.respawns, 1);
}

#[test]
fn stall_keeps_the_flow_shard_and_resumes_through_recovering() {
    let mut r = rig(1, 2);
    r.flows.shard(0).stats.live.store(5, Ordering::Relaxed);
    r.tick(3);
    // Worker 1 keeps moving; worker 0 sits on its backlog.
    let mut edges = Vec::new();
    for _ in 0..SupervisorConfig::default().stall_windows {
        r.health[1].advance(1);
        edges.extend(r.tick(3));
    }
    assert_eq!(
        edges,
        vec![
            (0, WorkerState::Suspect, TransitionReason::Stall),
            (0, WorkerState::Dead, TransitionReason::Stall),
        ]
    );
    assert!(
        r.owners(0).iter().all(|&o| o == 1),
        "buckets not re-steered"
    );
    assert_eq!(
        r.flows.report().expect("flow report").shards[&0].evict_death,
        0,
        "a stalled shard still owns its flows"
    );

    r.health[0].advance(4);
    r.health[1].advance(1);
    assert_eq!(
        r.tick(3),
        vec![(0, WorkerState::Recovering, TransitionReason::Resumed)]
    );
    assert_eq!(r.owners(0)[0], 0, "home buckets not handed back");
    assert_eq!(r.hstats.snapshot().resteers, 2);
}

#[test]
fn a_finished_worker_never_produces_a_transition() {
    let mut r = rig(1, 2);
    r.tick(9);
    r.health[0].finish();
    for _ in 0..10 {
        r.health[1].advance(1);
        assert!(r.tick(9).is_empty());
    }
    let report = r.sup.finish(true, 0, |_| (4, 0));
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.states, vec![WorkerState::Healthy; 2]);
}

#[test]
fn tables_with_stride_keep_survivors_per_socket() {
    // Two sockets of three workers, the DES layout: worker 4 is queue 1 of
    // table 1, and only its own socket's workers may inherit from it.
    let mut r = rig(2, 3);
    r.tick(0);
    r.health[4].crash();
    assert_eq!(
        r.tick(0),
        vec![(4, WorkerState::Dead, TransitionReason::Crash)]
    );
    let boot: Vec<u16> = (0..RSS_BUCKETS as u16).map(|b| b % 3).collect();
    assert_eq!(r.owners(0), boot, "the other socket's table moved");
    for (bucket, &owner) in r.owners(1).iter().enumerate() {
        match bucket % 3 {
            1 => assert!(owner == 0 || owner == 2, "bucket {bucket} -> {owner}"),
            home => assert_eq!(usize::from(owner), home),
        }
    }

    // Teardown: a crashed, never-replaced shard's leftovers are loss; a
    // horizon cut (`drained = false`) leaves live shards' queues alone.
    let report = r.sup.finish(false, 0, |w| (10 + w as u64, 2));
    assert_eq!(report.stats.lost_in_ring, 14);
    assert_eq!(report.stats.lost_in_flight, 2);
    assert_eq!(report.states[4], WorkerState::Dead);
}
