//! `nba-bench`: the harness that regenerates every table and figure of the
//! paper's evaluation (§4) on the simulated testbed, behind one binary of
//! the same name (`run`, `compare`, `top`, `explain`, `lint`, `repro`).
//!
//! * [`experiments`] — one function per figure/table, each printing the
//!   rows the paper plots and returning them for shape assertions, and the
//!   one dispatch table `nba-bench repro` and `cargo bench --bench
//!   figures` share,
//! * [`report`] — versioned `BENCH_*.json` benchmark artifacts and the
//!   regression gate (`nba-bench run` / `nba-bench compare`),
//! * [`lint`] — the static-analysis front end behind `nba-bench lint`,
//! * [`cli`] — the parsers every subcommand shares: options, app names,
//!   balancer modes.

#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod lint;
pub mod report;
pub mod table;
