//! Runs the live (OS-thread) runtime for a moment and prints its telemetry:
//! the merged per-element profile table, the sampler's time-series,
//! and the first few batch-lifecycle trace events.
//!
//! ```sh
//! cargo run --release --example live_telemetry
//! ```

use std::time::Duration;

use nba::apps::{pipelines, AppConfig};
use nba::core::lb;
use nba::core::runtime::live::{self, LiveConfig};
use nba::core::telemetry::{profile_table, samples_to_jsonl, trace_to_jsonl, TelemetryConfig};
use nba::sim::Time;

fn main() {
    let cfg = LiveConfig {
        workers: 2,
        duration: Duration::from_millis(300),
        telemetry: TelemetryConfig {
            sample_interval: Some(Time::from_ms(50)),
            trace_capacity: 256,
        },
        ..LiveConfig::default()
    };
    let app = AppConfig {
        ports: 4,
        v4_routes: 1024,
        ..AppConfig::default()
    };
    let r = live::run(
        &cfg,
        &pipelines::ipv4_router(&app),
        &lb::shared(Box::new(lb::CpuOnly)),
    );
    println!(
        "live: {:.2} Gbps ({} samples, {} trace events)\n",
        r.gbps,
        r.samples.len(),
        r.trace.len()
    );
    print!("{}", profile_table(&r.elements));
    println!("\n== time-series (JSONL) ==");
    print!("{}", samples_to_jsonl(&r.samples));
    println!("\n== first trace events (JSONL) ==");
    print!("{}", trace_to_jsonl(&r.trace[..r.trace.len().min(6)]));
}
