//! `nba-bench`: the harness that regenerates every table and figure of the
//! paper's evaluation (§4) on the simulated testbed.
//!
//! * [`experiments`] — one function per figure/table, each printing the
//!   rows the paper plots and returning them for shape assertions,
//! * [`report`] — versioned `BENCH_*.json` benchmark artifacts and the
//!   regression gate (`nba-bench run` / `nba-bench compare`),
//! * [`lint`] — the static-analysis front end behind `nba-lint` and
//!   `probe --check`,
//! * `benches/figures.rs` (`cargo bench`) runs all of them,
//! * `src/bin/repro.rs` runs a single one (`cargo run -p nba-bench --bin
//!   repro -- fig12`).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod lint;
pub mod report;
pub mod table;
