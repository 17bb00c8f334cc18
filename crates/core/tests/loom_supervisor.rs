//! `loom` model of the heartbeat's finish/watchdog handshake
//! (`WorkerHealth::finish` racing `Supervisor::tick`, `supervise.rs`).
//!
//! Build with `RUSTFLAGS="--cfg loom"` to enable. A worker ending its drain
//! stores `done` then clears `alive` (both Release); the watchdog loads
//! `alive` then `done` (both Acquire). The property, under every explored
//! interleaving: the watchdog never observes `!alive && !done` — the pair
//! that means "crashed" — for a worker that finished cleanly. The first
//! model re-implements the two-flag protocol over loom-instrumented
//! atomics (what the real checker permutes); the second races the real
//! `Supervisor::tick` against the real `finish()` on model threads.
#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::Arc;
use loom::thread;

use nba_core::flow::FlowRegistry;
use nba_core::lb;
use nba_core::supervise::{HealthStats, Supervisor, SupervisorConfig, WorkerHealth};
use nba_io::RssTable;

#[test]
fn finish_is_never_observed_as_a_crash() {
    loom::model(|| {
        let done = Arc::new(AtomicBool::new(false));
        let alive = Arc::new(AtomicBool::new(true));
        let worker = {
            let (done, alive) = (Arc::clone(&done), Arc::clone(&alive));
            thread::spawn(move || {
                done.store(true, Ordering::Release);
                alive.store(false, Ordering::Release);
            })
        };
        // Two watchdog looks, so one can land between the two stores.
        for _ in 0..2 {
            let alive_seen = alive.load(Ordering::Acquire);
            let done_seen = done.load(Ordering::Acquire);
            assert!(alive_seen || done_seen, "a clean finish read as a crash");
            thread::yield_now();
        }
        worker.join().unwrap();
    });
}

#[test]
fn tick_never_yields_a_crash_transition_for_a_finishing_worker() {
    loom::model(|| {
        let health: Arc<Vec<WorkerHealth>> = Arc::new(vec![WorkerHealth::new()]);
        let mut sup = Supervisor::new(
            &SupervisorConfig::default(),
            health.clone(),
            Arc::new(HealthStats::default()),
            vec![Arc::new(RssTable::new(1))],
            vec![lb::shared(Box::new(lb::CpuOnly))],
            FlowRegistry::new(),
        );
        let worker = {
            let health = Arc::clone(&health);
            thread::spawn(move || {
                health[0].advance(1);
                thread::yield_now();
                health[0].finish();
            })
        };
        let mut t_ns = 0;
        loop {
            t_ns += 1;
            // No backlog, so a stall can never fire: any edge is a crash.
            let fired = sup.tick(t_ns, |_| 0);
            assert!(fired.is_empty(), "a clean finish fired {fired:?}");
            if health[0].done.load(Ordering::Acquire) {
                break;
            }
            thread::yield_now();
        }
        worker.join().unwrap();
        assert!(sup.finish(true, 0, |_| (1, 0)).is_clean());
    });
}
