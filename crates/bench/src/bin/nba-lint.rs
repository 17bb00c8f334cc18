//! `nba-lint`: the standalone static-analysis CLI.
//!
//! Usage: `nba-lint [--json] [--deny-warnings] [--timing]
//! [--max-overhead=PCT] <config.click>...`
//!
//! Builds each pipeline configuration and runs the one analysis a runtime
//! preflight runs — structural, annotation-slot, datablock, branch-shape
//! and path checks, plus the `NBA05x` queue laws against the live
//! runtime's default capacity model — without starting a run. Flags and
//! exit status are those of the shared front end (`nba_bench::lint`),
//! which `probe --check` runs too with `--deny-warnings` always on.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let status = nba_bench::lint::run("nba-lint", &args, false, &mut std::io::stdout());
    ExitCode::from(status.expect("write to stdout"))
}
