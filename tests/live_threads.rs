//! Thread census of a live run: it starts IO, worker and device threads
//! and nothing else. Supervision, sampling and the run's deadline and
//! drain all run on the calling thread.
//!
//! This is its own test binary because it counts every thread of the
//! process: a concurrent test would skew the count.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nba::apps::{pipelines, AppConfig};
use nba::core::lb;
use nba::core::runtime::live::{self, LiveConfig};

/// Threads of this process right now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn a_live_run_starts_only_io_worker_and_device_threads() {
    let cfg = LiveConfig {
        workers: 2,
        io_threads: 1,
        duration: Duration::from_millis(200),
        ..LiveConfig::default()
    };
    assert!(cfg.telemetry.sample_interval.is_some(), "sampling is on");

    // The watcher samples the census until the run returns; it is already
    // counted in the pre-run figure.
    let done = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let watcher = {
        let (done, peak) = (done.clone(), peak.clone());
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                peak.fetch_max(threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };
    while peak.load(Ordering::Relaxed) == 0 {
        std::thread::yield_now();
    }
    let before = threads();

    let app = AppConfig {
        ports: 4,
        v4_routes: 1024,
        ..AppConfig::default()
    };
    let report = live::run(
        &cfg,
        &pipelines::ipv4_router(&app),
        &lb::shared(Box::new(lb::CpuOnly)),
    );
    done.store(true, Ordering::Relaxed);
    watcher.join().expect("watcher");

    let device = 1;
    assert_eq!(
        peak.load(Ordering::Relaxed) - before,
        cfg.io_threads + cfg.workers + device,
        "a live run started threads beyond IO, workers and the device"
    );
    assert!(report.totals.tx_packets > 0, "nothing forwarded");
    assert!(!report.samples.is_empty(), "no sampler window closed");
}
