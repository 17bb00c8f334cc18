//! What the host tells us about this process and itself: CPU time and peak
//! memory from `/proc`, the host fingerprint, and the calibration loop that
//! lets results from different hosts be compared as ratios.

use std::time::Instant;

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is 100
/// on every mainstream architecture (std offers no `sysconf` to ask).
const USER_HZ: u64 = 100;

/// `utime + stime` in clock ticks out of a `/proc/<pid>/stat` line. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB out of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// User + system CPU seconds this process (all threads, exited ones
/// included) has consumed so far.
pub fn cpu_seconds() -> f64 {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .unwrap_or(0);
    ticks as f64 / USER_HZ as f64
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .unwrap_or(0);
    kib as f64 / 1024.0
}

/// Nanoseconds the host needs for a fixed integer loop (2^24 dependent
/// xorshift steps; best of three). Divide a timing by this to compare
/// artifacts from different hosts.
pub fn calib_ns() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
        for _ in 0..(1u32 << 24) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

/// Where and with what a result set was produced.
#[derive(Debug, Clone)]
pub struct Host {
    pub cpu_model: String,
    pub nproc: usize,
    pub governor: String,
    pub rustc: String,
    pub git_sha: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

impl Host {
    /// Reads the fingerprint; every field degrades to `"unknown"`.
    pub fn probe() -> Host {
        let unknown = || "unknown".to_owned();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(unknown);
        let governor =
            std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .map(|s| s.trim().to_owned())
                .unwrap_or_else(|_| unknown());
        Host {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            governor,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(unknown),
            git_sha: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_survive_hostile_command_names() {
        let plain =
            "8547 (cat) R 8502 8547 8502 0 -1 4194304 81 0 0 0 7 5 0 0 20 0 1 0 202796 2703360 284";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(12));
        let hostile = "1 (a b) c) (d) S 0 1 1 0 -1 4194304 81 0 0 0 123 456 9 9 20 0 1 0 1 1 1";
        assert_eq!(parse_stat_cpu_ticks(hostile), Some(579));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_found_and_parsed() {
        let status = "Name:\tcat\nVmPeak:\t    5000 kB\nVmHWM:\t    1680 kB\nVmRSS:\t    1500 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(1680));
        assert_eq!(parse_vm_hwm_kib("Name:\tcat\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(calib_ns() > 0.0);
    }
}
