//! `nba-bench lint`, the static-analysis front end: build each
//! configuration file, run the analyser over it against the live runtime's
//! default capacity model, and print the report — the one analysis a
//! runtime preflight runs, without starting a run.
//!
//! Flags:
//!
//! * `--json`           — one schema-versioned JSON report per file, one
//!   object per line.
//! * `--deny-warnings`  — exit nonzero on *any* diagnostic, warnings
//!   included (CI keeps shipped configs spotless).
//! * `--timing`         — print, per file, how long the analysis takes
//!   relative to the whole pipeline-construction step (parse, element
//!   instantiation, wiring, analysis) — the price a runtime preflight pays
//!   at startup.
//! * `--max-overhead=P` — with `--timing`, exit nonzero if the analysis
//!   exceeds `P` percent of pipeline construction summed over all files
//!   (aggregate, because expensive element state — routing tables, match
//!   automata — is built once and shared, so per-file ratios are noisy).
//!
//! Exit status: 0 clean (or warnings without `--deny-warnings`), 1 any
//! error-severity diagnostic / denied warning / unreadable file / overhead
//! breach, 2 usage errors.

use std::io::{self, Write};
use std::time::{Duration, Instant};

use nba_apps::{pipelines, AppConfig};
use nba_core::analysis::{analyze, check_capacity, CapacityModel};
use nba_core::graph::BranchPolicy;
use nba_core::lb;
use nba_core::nls::NodeLocalStorage;
use nba_core::runtime::live::LiveConfig;
use nba_core::runtime::BuildCtx;

/// Runs the front end over `args` (flags and configuration files), printing
/// reports to `out` and per-file errors to stderr. Returns the exit status.
pub fn run(args: &[String], out: &mut dyn Write) -> io::Result<u8> {
    let (mut json, mut deny, mut timing) = (false, false, false);
    let mut max_overhead: Option<f64> = None;
    let mut files: Vec<&str> = Vec::new();
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny = true,
            "--timing" => timing = true,
            flag if flag.starts_with("--") => {
                match flag.strip_prefix("--max-overhead=").map(str::parse) {
                    Some(Ok(pct)) => max_overhead = Some(pct),
                    _ => return Ok(usage()),
                }
            }
            file => files.push(file),
        }
    }
    if files.is_empty() {
        return Ok(usage());
    }

    // A throwaway build context: the analyser instantiates elements only to
    // read their static metadata (ports, claims, effects, offload specs).
    let bctx = BuildCtx {
        worker: 0,
        socket: 0,
        nls: NodeLocalStorage::new(),
        balancer: lb::shared(Box::new(lb::CpuOnly)),
        policy: BranchPolicy::Predict,
    };
    let reg = pipelines::registry(&bctx, &AppConfig::default());
    let cap = CapacityModel::from_live(&LiveConfig::default());

    let mut failed = false;
    let (mut total_build, mut total_analysis) = (Duration::ZERO, Duration::ZERO);
    for f in files {
        let src = match std::fs::read_to_string(f) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{f}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        let t0 = Instant::now();
        let checked = match nba_core::build_graph_checked(&src, &reg, bctx.policy) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{f}: configuration error: {e}");
                failed = true;
                continue;
            }
        };
        let build_time = t0.elapsed();
        let mut report = checked.report;
        report.diagnostics.extend(check_capacity(&cap).diagnostics);

        if json {
            write!(out, "{}", report.render_json())?;
        } else if report.is_clean() {
            writeln!(out, "{f}: ok ({} elements)", checked.graph.len())?;
        } else {
            write!(out, "{}", report.render_text())?;
            writeln!(out, "{f}: {} diagnostic(s)", report.diagnostics.len())?;
        }
        failed |= report.has_errors() || (deny && !report.is_clean());

        if timing {
            // The analysis re-run in isolation, amortized: what fraction of
            // the pipeline-construction step (which a runtime preflight
            // repeats wholesale at startup) it accounts for.
            const ITERS: u32 = 100;
            let t1 = Instant::now();
            for _ in 0..ITERS {
                analyze(&checked.graph, Some(&checked.source), Some(&cap));
            }
            let analysis_time = t1.elapsed() / ITERS;
            total_build += build_time;
            total_analysis += analysis_time;
            writeln!(
                out,
                "{f}: analysis {:.1} us of {:.1} us construction ({:.2}%)",
                analysis_time.as_secs_f64() * 1e6,
                build_time.as_secs_f64() * 1e6,
                100.0 * analysis_time.as_secs_f64() / build_time.as_secs_f64().max(1e-9)
            )?;
        }
    }
    if timing {
        let pct = 100.0 * total_analysis.as_secs_f64() / total_build.as_secs_f64().max(1e-9);
        writeln!(
            out,
            "total: analysis {:.1} us of {:.1} us construction ({pct:.2}%)",
            total_analysis.as_secs_f64() * 1e6,
            total_build.as_secs_f64() * 1e6
        )?;
        if let Some(limit) = max_overhead.filter(|&limit| pct > limit) {
            eprintln!("analysis overhead {pct:.2}% exceeds limit {limit}%");
            failed = true;
        }
    }
    Ok(u8::from(failed))
}

fn usage() -> u8 {
    eprintln!(
        "usage: nba-bench lint [--json] [--deny-warnings] [--timing] [--max-overhead=PCT] \
         <config.click>..."
    );
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_prints_one_object_per_line_per_file() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/click");
        let mut files: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path().display().to_string())
            .filter(|p| p.ends_with(".click"))
            .collect();
        files.sort();
        assert!(!files.is_empty());
        let mut args = vec!["--json".to_owned(), "--deny-warnings".to_owned()];
        args.extend(files.iter().cloned());

        let mut out = Vec::new();
        assert_eq!(run(&args, &mut out).unwrap(), 0);
        let text = String::from_utf8(out).unwrap();
        assert!(text.ends_with('\n'));
        let lines: Vec<&str> = text.split_terminator('\n').collect();
        assert_eq!(lines.len(), files.len(), "{text}");
        for line in lines {
            let v = nba_core::json::parse(line).unwrap_or_else(|e| panic!("{e:?}: {line}"));
            assert!(v.get("schema_version").is_some(), "{line}");
        }
    }

    #[test]
    fn removed_flags_are_usage_errors() {
        for flag in [
            "--deep",
            "--workers=2",
            "--ring=64",
            "--drain",
            "--max-overhead=x",
        ] {
            let args = [flag.to_owned(), "x.click".to_owned()];
            assert_eq!(run(&args, &mut Vec::new()).unwrap(), 2);
        }
        assert_eq!(run(&["--json".to_owned()], &mut Vec::new()).unwrap(), 2);
    }
}
