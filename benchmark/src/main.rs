//! The repo benchmark: wall-clock numbers of the live runtime and host
//! speed of the DES runtime on seven workloads, with a ladder of per-layer
//! timings taken from outside. See `README.md` beside this package.
//!
//! ```text
//! nba-benchmark --workload W --seed N --seconds S --trace 0|1   one measurement, JSON on the last line
//! nba-benchmark run    [--seed N] [--workloads a,b] [--seconds S] [--out DIR]
//! nba-benchmark repeat [--seed N] [--workloads a,b] [--seconds S] [--out DIR]
//! nba-benchmark manifest                                        prints BENCHMARK.json
//! ```
//!
//! The parent process only orchestrates: everything that touches the
//! system under test runs in child processes (this executable re-executed
//! with `child ...`), one per repetition, so every repetition pays its own
//! set-up, owns its peak memory, and cannot take the parent down.

#![forbid(unsafe_code)]

mod child;
mod ladder;
mod metrics;
mod procfs;
mod span;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use metrics::{EndToEnd, PerLayer, Reduce, END_TO_END, PER_LAYER, RUN_SECONDS};
use stats::Summary;
use workloads::{Workload, WORKLOADS};

/// `TrafficConfig::default().seed` ("nba_rg").
const DEFAULT_SEED: u64 = 0x6e62_615f_7267;
/// Repetition processes per measurement, sharing its `--seconds`: five
/// set-ups for the median set-up time, and no process runs long enough for
/// one bad stretch of the host to own the result.
const REPS: usize = 5;
const DEFAULT_OUT: &str = "benchmark/out";

// ───────────────────────────── arguments ─────────────────────────────

struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            flags.insert(name.to_owned(), value.clone());
        }
        Ok(Args { flags })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{name} {v:?}")),
        }
    }

    fn seed(&self) -> Result<u64, String> {
        match self.flags.get("seed") {
            None => Ok(DEFAULT_SEED),
            Some(v) => match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => v.parse().ok(),
            }
            .ok_or_else(|| format!("bad --seed {v:?}")),
        }
    }

    fn out_dir(&self) -> Result<String, String> {
        self.get("out", DEFAULT_OUT.to_owned())
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name = self.flags.get("workload").ok_or("--workload is required")?;
        workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn workloads(&self) -> Result<Vec<&'static Workload>, String> {
        match self.flags.get("workloads") {
            None => Ok(WORKLOADS.iter().collect()),
            Some(list) => list
                .split(',')
                .map(|n| workloads::find(n).ok_or_else(|| format!("unknown workload {n:?}")))
                .collect(),
        }
    }
}

// ───────────────────────────── children ─────────────────────────────

/// What one child process said.
#[derive(Default)]
struct ChildOutput {
    samples: BTreeMap<String, Vec<f64>>,
    values: BTreeMap<String, f64>,
    counts: BTreeMap<String, Vec<u64>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn parse_child_output(text: &str, out: &mut ChildOutput) {
    for line in text.lines() {
        let mut parts = line.splitn(3, ' ');
        let (Some(kind), Some(name), Some(value)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        match kind {
            "sample" => {
                if let Ok(v) = value.parse() {
                    out.samples.entry(name.to_owned()).or_default().push(v);
                }
            }
            "value" => {
                if let Ok(v) = value.parse() {
                    out.values.insert(name.to_owned(), v);
                }
            }
            "count" => {
                if let Ok(v) = value.parse() {
                    out.counts.entry(name.to_owned()).or_default().push(v);
                }
            }
            "attempted" => out.attempted += value.parse().unwrap_or(0),
            "failed" => out.failed += value.parse().unwrap_or(0),
            "error" => out.errors.push(format!("{name}: {value}")),
            _ => {}
        }
    }
}

/// Re-executes this program as `child <mode> ...`, waits for it (killing
/// it once `until` has passed), and parses what it printed.
fn spawn_child(
    mode: &str,
    w: &Workload,
    seed: u64,
    seconds: f64,
    out_dir: &str,
    until: Instant,
) -> ChildOutput {
    let mut out = ChildOutput::default();
    let spawned = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["child", mode, "--workload", w.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--out", out_dir])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
    });
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(format!("{mode}: cannot start child: {e}"));
            return out;
        }
    };
    let stdout = child.stdout.take();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        if let Some(mut stdout) = stdout {
            let _ = stdout.read_to_string(&mut text);
        }
        text
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() < until => std::thread::sleep(Duration::from_millis(5)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    parse_child_output(&reader.join().unwrap_or_default(), &mut out);
    match status {
        Some(s) if s.success() => {}
        Some(s) => out.errors.push(format!("{mode}: child ended with {s}")),
        None => out
            .errors
            .push(format!("{mode}: child killed at its deadline")),
    }
    out
}

// ───────────────────────────── one measurement ─────────────────────────────

/// Everything known about one workload after a measurement.
struct Measurement {
    workload: &'static Workload,
    /// End-to-end samples by metric name (untraced repetitions only).
    end_to_end: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values in table order (traced run only).
    per_layer: Vec<(&'static PerLayer, f64)>,
    /// Seed-exact counters of the timed runs.
    counts: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Measurement {
    fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// Packets not accounted for. A failed output check, child or counter
    /// comparison fails every packet of the workload.
    fn failed_packets(&self) -> u64 {
        if self.errors.is_empty() {
            self.failed
        } else {
            self.attempted.max(1)
        }
    }

    fn fail_ratio(&self) -> f64 {
        self.failed_packets() as f64 / self.attempted.max(1) as f64
    }

    fn summary(&self, metric: &str) -> Option<Summary> {
        self.end_to_end.get(metric).and_then(|v| Summary::of(v))
    }

    /// The value reported for an end-to-end metric.
    fn reported(&self, e: &EndToEnd) -> Option<f64> {
        let s = self.summary(e.name)?;
        Some(match e.reduce {
            Reduce::Median => s.median,
            Reduce::Max => s.max,
        })
    }
}

/// Measures one workload: the output check, then [`REPS`] untraced
/// repetition processes sharing `seconds` (when `untraced`), then the
/// traced run (when `traced`).
fn measure(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    untraced: bool,
    traced: bool,
    out_dir: &str,
) -> Measurement {
    let mut m = Measurement {
        workload: w,
        end_to_end: BTreeMap::new(),
        per_layer: Vec::new(),
        counts: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    // Generous: a child still running then is hung, not slow. The whole
    // measurement stays inside the contract's 180 s per invocation.
    let until = Instant::now() + Duration::from_secs_f64((60.0 + 4.0 * seconds).min(170.0));

    let check = spawn_child("check", w, seed, 0.0, out_dir, until);
    m.errors.extend(check.errors);

    if untraced {
        let mut counts: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for _ in 0..REPS {
            let rep = spawn_child("rep", w, seed, seconds / REPS as f64, out_dir, until);
            m.attempted += rep.attempted;
            m.failed += rep.failed;
            m.errors.extend(rep.errors);
            for e in &END_TO_END {
                let samples = m.end_to_end.entry(e.name).or_default();
                samples.extend(rep.samples.get(e.name).into_iter().flatten());
                samples.extend(rep.values.get(e.name));
            }
            for (name, values) in rep.counts {
                counts.entry(name).or_default().extend(values);
            }
        }
        for e in &END_TO_END {
            if m.end_to_end.get(e.name).is_none_or(Vec::is_empty) {
                m.errors.push(format!("no reading of {}", e.name));
            }
        }
        for (name, values) in counts {
            if values.iter().any(|v| *v != values[0]) {
                m.errors
                    .push(format!("counter {name} is not seed-exact: {values:?}"));
            }
            m.counts.insert(name, values[0]);
        }
    }

    if traced {
        let t = spawn_child("traced", w, seed, seconds, out_dir, until);
        m.attempted += t.attempted;
        m.failed += t.failed;
        m.errors.extend(t.errors);
        for p in &PER_LAYER {
            match t.values.get(p.name) {
                Some(v) if v.is_finite() => m.per_layer.push((p, *v)),
                _ => m.errors.push(format!("no reading of {}", p.name)),
            }
        }
    }
    m
}

// ───────────────────────────── output ─────────────────────────────

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// The contract's result line: end-to-end metrics of an untraced
/// measurement, per-layer metrics of a traced one.
fn result_line(m: &Measurement, traced: bool) -> String {
    let metrics: Vec<String> = if traced {
        m.per_layer
            .iter()
            .map(|(p, v)| json_metric(p.name, *v, p.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter_map(|e| m.reported(e).map(|v| json_metric(e.name, v, e.unit)))
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.correct(),
        m.attempted.max(1),
        m.failed_packets(),
        metrics.join(", ")
    )
}

fn print_measurement(m: &Measurement) {
    println!("== {} ==", m.workload.name);
    println!("   {}", m.workload.why);
    for e in &END_TO_END {
        if let (Some(s), Some(v)) = (m.summary(e.name), m.reported(e)) {
            println!(
                "  {:<16} {:>14.4} {:<7} q1 {:.4}  q3 {:.4}  n {}  spread {:.2}%  ({} is better, bound {:.0}%)",
                e.name,
                v,
                e.unit,
                s.q1,
                s.q3,
                s.n,
                s.spread() * 100.0,
                e.better.as_str(),
                e.bound * 100.0
            );
        }
    }
    println!(
        "  {:<16} {:>14.6} ratio   ({} of {} packets)",
        "fail_ratio",
        m.fail_ratio(),
        m.failed_packets(),
        m.attempted
    );
    for (name, v) in &m.counts {
        println!("  count {name:<24} {v}");
    }
    for (p, v) in &m.per_layer {
        println!("  {:<42} {v:>14.4} {}", p.name, p.unit);
    }
    for e in &m.errors {
        println!("  ERROR {e}");
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The results file of a `run`: host fingerprint, calibration, and every
/// metric of every workload with its quartiles.
fn results_json(seed: u64, seconds: f64, set: &[Measurement]) -> String {
    let host = procfs::Host::probe();
    let mut out = String::from("{\n");
    out.push_str("  \"claim\": null,\n");
    out.push_str(&format!(
        "  \"host\": {{\"cpu_model\": {}, \"nproc\": {}, \"governor\": {}, \"rustc\": {}, \"git_sha\": {}}},\n",
        json_string(&host.cpu_model),
        host.nproc,
        json_string(&host.governor),
        json_string(&host.rustc),
        json_string(&host.git_sha)
    ));
    out.push_str(&format!("  \"calib_ns\": {},\n", procfs::calib_ns()));
    out.push_str(&format!("  \"seed\": {seed},\n  \"seconds\": {seconds},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, m) in set.iter().enumerate() {
        out.push_str(&format!("    {{\"name\": \"{}\",\n", m.workload.name));
        out.push_str(&format!(
            "     \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"fail_ratio\": {},\n",
            m.correct(),
            m.attempted,
            m.failed_packets(),
            m.fail_ratio()
        ));
        let errors: Vec<String> = m.errors.iter().map(|e| json_string(e)).collect();
        out.push_str(&format!("     \"errors\": [{}],\n", errors.join(", ")));
        let e2e: Vec<String> = END_TO_END
            .iter()
            .filter_map(|e| {
                let s = m.summary(e.name)?;
                Some(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}, \"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}, \"definition\": {}}}",
                    e.name, m.reported(e)?, e.unit, e.better.as_str(), e.bound, s.n, s.min, s.q1, s.median, s.q3, s.max, json_string(e.definition)
                ))
            })
            .collect();
        out.push_str(&format!("     \"end_to_end\": {{{}}},\n", e2e.join(", ")));
        let counts: Vec<String> = m
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        out.push_str(&format!("     \"counts\": {{{}}},\n", counts.join(", ")));
        let layers: Vec<String> = m
            .per_layer
            .iter()
            .map(|(p, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\", \"moves\": {}}}",
                    p.name,
                    p.unit,
                    json_string(p.moves)
                )
            })
            .collect();
        out.push_str(&format!("     \"per_layer\": {{{}}},\n", layers.join(", ")));
        out.push_str(&format!(
            "     \"trace\": \"trace_{}.json\"}}{}\n",
            m.workload.name,
            if i + 1 < set.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ───────────────────────────── subcommands ─────────────────────────────

/// One full set: every selected workload, untraced repetitions then the
/// traced run.
fn run_set(args: &Args, traced: bool) -> Result<(u64, f64, Vec<Measurement>), String> {
    let seed = args.seed()?;
    // Five repetitions of four seconds each, as the issue sizes them.
    let seconds: f64 = args.get("seconds", 20.0)?;
    let out_dir = args.out_dir()?;
    let set = args
        .workloads()?
        .into_iter()
        .map(|w| {
            eprintln!("measuring {} ...", w.name);
            let m = measure(w, seed, seconds, true, traced, &out_dir);
            print_measurement(&m);
            m
        })
        .collect();
    Ok((seed, seconds, set))
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    let (seed, seconds, set) = run_set(args, true)?;
    let out_dir = args.out_dir()?;
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
    let path = format!("{out_dir}/results.json");
    std::fs::write(&path, results_json(seed, seconds, &set)).map_err(|e| format!("{path}: {e}"))?;
    println!("results written to {path}; traces to {out_dir}/trace_<workload>.json");
    Ok(set.iter().all(Measurement::correct))
}

/// Two sets of untraced repetitions back to back: per (metric, workload)
/// both medians, how much worse the second is, the bound, and whether the
/// comparison resolves (the spread of either set may exceed the bound).
fn cmd_repeat(args: &Args) -> Result<bool, String> {
    let (_, _, first) = run_set(args, false)?;
    let (_, _, second) = run_set(args, false)?;
    let mut ok = first.iter().chain(&second).all(Measurement::correct);
    println!(
        "{:<18} {:<16} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for e in &END_TO_END {
            let (Some(x), Some(y)) = (a.reported(e), b.reported(e)) else {
                continue;
            };
            let worse = e.better.worsening(x, y);
            let spread = a
                .summary(e.name)
                .into_iter()
                .chain(b.summary(e.name))
                .map(|s| s.spread())
                .fold(0.0, f64::max);
            let verdict = if worse.abs() > e.bound {
                ok = false;
                "EXCEEDS"
            } else if spread > e.bound {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{:<18} {:<16} {:>12.4} {:>12.4} {:>8.2}% {:>6.0}%  {verdict}",
                a.workload.name,
                e.name,
                x,
                y,
                worse * 100.0,
                e.bound * 100.0
            );
        }
        if a.counts != b.counts {
            ok = false;
            println!(
                "{:<18} seed-exact counters differ between the sets: {:?} vs {:?}",
                a.workload.name, a.counts, b.counts
            );
        }
    }
    Ok(ok)
}

/// The contract's invocation: one workload, one JSON object on the last
/// line of standard output.
fn cmd_driver(args: &Args) -> Result<bool, String> {
    let w = args.workload()?;
    let seed = args.seed()?;
    let seconds: f64 = args.get("seconds", RUN_SECONDS as f64)?;
    let traced = args.get("trace", 0u8)? != 0;
    let out_dir = args.out_dir()?;
    let m = measure(w, seed, seconds, !traced, traced, &out_dir);
    for e in &m.errors {
        eprintln!("ERROR {}: {e}", w.name);
    }
    println!("{}", result_line(&m, traced));
    Ok(m.correct())
}

fn cmd_child(mode: &str, args: &Args, started: Instant) -> Result<bool, String> {
    let w = args.workload()?;
    let seed = args.seed()?;
    let seconds: f64 = args.get("seconds", 1.0)?;
    match mode {
        "rep" => child::rep(w, seed, seconds, started),
        "check" => {
            if let Err(e) = child::check(w, seed, workloads::CHECK_PACKETS) {
                println!("error check {e}");
            }
        }
        "traced" => {
            let out_dir = args.out_dir()?;
            child::traced(w, seed, seconds, &out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
        }
        other => return Err(format!("unknown child mode {other:?}")),
    }
    Ok(true)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &argv[1..]),
        _ => ("", &argv[..]),
    };
    let outcome = match command {
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        "child" => match rest.split_first() {
            Some((mode, rest)) => Args::parse(rest).and_then(|a| cmd_child(mode, &a, started)),
            None => Err("child needs a mode".to_owned()),
        },
        "run" => Args::parse(rest).and_then(|a| cmd_run(&a)),
        "repeat" => Args::parse(rest).and_then(|a| cmd_repeat(&a)),
        "" => Args::parse(rest).and_then(|a| cmd_driver(&a)),
        other => Err(format!("unknown command {other:?}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("nba-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_lines_are_parsed_and_junk_is_ignored() {
        let mut out = ChildOutput::default();
        parse_child_output(
            "sample mpps 1.5\nsample mpps 1.25\nvalue setup_s 0.5\ncount tx_packets 10\n\
             count tx_packets 10\nattempted pkts 100\nattempted pkts 50\nfailed pkts 3\n\
             error check \"verdicts diverge\"\nnoise\nsample mpps not-a-number\n",
            &mut out,
        );
        assert_eq!(out.samples["mpps"], vec![1.5, 1.25]);
        assert_eq!(out.values["setup_s"], 0.5);
        assert_eq!(out.counts["tx_packets"], vec![10, 10]);
        assert_eq!((out.attempted, out.failed), (150, 3));
        assert_eq!(out.errors, vec!["check: \"verdicts diverge\"".to_owned()]);
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        let args = |v: &str| Args::parse(&["--seed".to_owned(), v.to_owned()]).unwrap();
        assert_eq!(args("42").seed(), Ok(42));
        assert_eq!(args("0x6e62615f7267").seed(), Ok(DEFAULT_SEED));
        assert!(args("nope").seed().is_err());
        assert_eq!(Args::parse(&[]).unwrap().seed(), Ok(DEFAULT_SEED));
        assert!(Args::parse(&["stray".to_owned()]).is_err());
    }

    /// A smoke run of every workload at a 4096-packet budget: the check
    /// relation and the accounting hold, and every metric gets a reading.
    #[test]
    fn every_workload_runs_at_a_small_budget() {
        for w in &WORKLOADS {
            assert_eq!(child::smoke(w, DEFAULT_SEED, 4096), Ok(()), "{}", w.name);
        }
    }
}
