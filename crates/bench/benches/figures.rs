//! Regenerates every paper figure/table (`cargo bench --bench figures`),
//! or the ones named (`cargo bench --bench figures -- fig12`), through the
//! dispatch `nba-bench repro` uses. Honors `NBA_QUICK=1` for reduced
//! sweeps; an unknown name exits 2.

use std::process::ExitCode;

fn main() -> ExitCode {
    // `cargo bench` passes --bench; the other arguments name experiments.
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    ExitCode::from(nba_bench::experiments::repro(&names))
}
