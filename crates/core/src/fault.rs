//! Fault tolerance for the offload path: the degradation ladder.
//!
//! A device fault degrades throughput toward the CPU-only curve, never
//! correctness or liveness. The ladder, identical in the DES and live
//! runtimes:
//!
//! 1. **retry** — transient errors are retried with a bounded backoff,
//! 2. **fallback** — failed/timed-out/corrupted tasks re-execute on the CPU
//!    path of the same offloadable element (bit-identical output, since
//!    kernels are functionally equivalent host closures), so in-flight
//!    packets are never lost,
//! 3. **quarantine** — consecutive failures trip a [`CircuitBreaker`]; the
//!    load balancer is told the device is unhealthy and drives `w` to 0,
//! 4. **re-admit** — after the quarantine interval, half-open probes test
//!    the device; a success re-closes the breaker and the balancer resumes
//!    its hill-climb.
//!
//! Fault *injection* (the seeded [`FaultPlan`]/[`FaultInjector`]) lives in
//! the GPU crate next to the timeline it breaks; this module owns detection,
//! recovery policy, and accounting.

use std::sync::atomic::{AtomicU64, Ordering};

use nba_sim::Time;

pub use nba_gpu::fault::{
    FaultInjector, FaultKind, FaultPlan, PlanParseError, WorkerKill, WorkerStall,
};

use crate::config::ConfigError;
use crate::supervise::SupervisorConfig;

/// Parses a `--faults` flag value into a [`FaultPlan`], converting the
/// spanned [`PlanParseError`] into the repo's [`ConfigError`] convention:
/// the message embeds the exact offending token (byte span into the flag
/// value) so the CLI error points at what to fix.
pub fn parse_faults_flag(spec: &str) -> Result<FaultPlan, ConfigError> {
    FaultPlan::parse_spanned(spec).map_err(|e| {
        let token = spec.get(e.offset..e.offset + e.len).unwrap_or("");
        ConfigError {
            msg: format!(
                "--faults: {} (at byte {}..{}: `{}`)",
                e.msg,
                e.offset,
                e.offset + e.len,
                token
            ),
            line: 1,
        }
    })
}

/// Knobs of the degradation ladder, grouped under
/// [`crate::runtime::RuntimeConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// What to inject (inactive by default — a clean run).
    pub plan: FaultPlan,
    /// Worker-plane supervision knobs (watchdog tick, stall budget,
    /// respawn policy) — the worker analogue of the breaker fields below.
    pub supervisor: SupervisorConfig,
    /// Watchdog deadline per in-flight device task: a task whose
    /// completion has not landed this long after submission is declared
    /// failed and its batches fall back to the CPU path.
    pub watchdog: Time,
    /// Retries (with backoff) of a transient attempt before fallback.
    pub max_retries: u32,
    /// Delay before each retry attempt.
    pub retry_backoff: Time,
    /// Consecutive task failures that trip the device into quarantine.
    pub breaker_threshold: u32,
    /// Quarantine length before a half-open probe is admitted.
    pub quarantine: Time,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            plan: FaultPlan::default(),
            supervisor: SupervisorConfig::default(),
            watchdog: Time::from_ms(2),
            max_retries: 2,
            retry_backoff: Time::from_us(50),
            breaker_threshold: 3,
            quarantine: Time::from_ms(5),
        }
    }
}

/// Shared fault accounting (relaxed atomics, mirroring
/// [`crate::stats::Counters`]): written by device threads and workers,
/// snapshotted into reports.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Injected task timeouts (watchdog-detected).
    pub injected_timeout: AtomicU64,
    /// Injected transient errors (includes retried attempts).
    pub injected_transient: AtomicU64,
    /// Injected corrupted output blocks.
    pub injected_corrupt: AtomicU64,
    /// Attempts refused by a dead device.
    pub injected_dead: AtomicU64,
    /// Retry attempts performed (transient errors and allocation failures).
    pub retried: AtomicU64,
    /// Batches re-executed on the CPU path after a device failure.
    pub fell_back_batches: AtomicU64,
    /// Packets in those batches (all of them survive — that is the point).
    pub fell_back_packets: AtomicU64,
    /// Poison batches dropped by panic containment.
    pub dropped_batches: AtomicU64,
    /// Packets lost with those poison batches.
    pub dropped_packets: AtomicU64,
    /// Panics caught and contained (worker and device steps).
    pub panics_contained: AtomicU64,
    /// Times the circuit breaker tripped into quarantine.
    pub quarantine_entered: AtomicU64,
    /// Times a half-open probe re-admitted the device.
    pub quarantine_exited: AtomicU64,
}

impl FaultStats {
    /// Relaxed add — fault counters are diagnostics, not synchronization.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A consistent-enough copy of all counters.
    pub fn snapshot(&self) -> FaultSnapshot {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        FaultSnapshot {
            injected_timeout: g(&self.injected_timeout),
            injected_transient: g(&self.injected_transient),
            injected_corrupt: g(&self.injected_corrupt),
            injected_dead: g(&self.injected_dead),
            retried: g(&self.retried),
            fell_back_batches: g(&self.fell_back_batches),
            fell_back_packets: g(&self.fell_back_packets),
            dropped_batches: g(&self.dropped_batches),
            dropped_packets: g(&self.dropped_packets),
            panics_contained: g(&self.panics_contained),
            quarantine_entered: g(&self.quarantine_entered),
            quarantine_exited: g(&self.quarantine_exited),
        }
    }
}

/// A point-in-time copy of [`FaultStats`] (reports, determinism asserts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSnapshot {
    /// Injected task timeouts.
    pub injected_timeout: u64,
    /// Injected transient errors.
    pub injected_transient: u64,
    /// Injected corrupted output blocks.
    pub injected_corrupt: u64,
    /// Attempts refused by a dead device.
    pub injected_dead: u64,
    /// Retry attempts performed.
    pub retried: u64,
    /// Batches that fell back to the CPU path.
    pub fell_back_batches: u64,
    /// Packets in those batches.
    pub fell_back_packets: u64,
    /// Poison batches dropped by panic containment.
    pub dropped_batches: u64,
    /// Packets lost with them.
    pub dropped_packets: u64,
    /// Panics caught and contained.
    pub panics_contained: u64,
    /// Quarantine entries.
    pub quarantine_entered: u64,
    /// Quarantine exits (device re-admitted).
    pub quarantine_exited: u64,
}

impl FaultSnapshot {
    /// Total faults injected, all kinds.
    pub fn injected(&self) -> u64 {
        self.injected_timeout + self.injected_transient + self.injected_corrupt + self.injected_dead
    }

    /// `true` when the run saw no fault activity at all — what
    /// `nba-bench compare` asserts on clean runs.
    pub fn is_clean(&self) -> bool {
        *self == FaultSnapshot::default()
    }

    /// Renders the snapshot as a flat JSON object (the stats endpoint's
    /// `faults` block and the flight-recorder dump; dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"injected_timeout\":{},\"injected_transient\":{},\"injected_corrupt\":{},\"injected_dead\":{},\"retried\":{},\"fell_back_batches\":{},\"fell_back_packets\":{},\"dropped_batches\":{},\"dropped_packets\":{},\"panics_contained\":{},\"quarantine_entered\":{},\"quarantine_exited\":{}}}",
            self.injected_timeout,
            self.injected_transient,
            self.injected_corrupt,
            self.injected_dead,
            self.retried,
            self.fell_back_batches,
            self.fell_back_packets,
            self.dropped_batches,
            self.dropped_packets,
            self.panics_contained,
            self.quarantine_entered,
            self.quarantine_exited,
        )
    }
}

/// How the breaker admits the next task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Closed: tasks flow to the device normally.
    Normal,
    /// Half-open: this one attempt probes a possibly recovered device.
    Probe,
    /// Open: quarantined — the task must fall back without touching the
    /// device.
    Blocked,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open { until: Time },
    HalfOpen,
}

/// The per-device circuit breaker: closed → open (quarantine) → half-open
/// (probe) → closed. Quarantine intervals are recorded for the bench
/// reports, so a fault drill shows *when* the device was out, not just that
/// it was.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    quarantine: Time,
    consecutive: u32,
    state: BreakerState,
    intervals: Vec<(Time, Option<Time>)>,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// into a `quarantine`-long open interval.
    pub fn new(threshold: u32, quarantine: Time) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            quarantine,
            consecutive: 0,
            state: BreakerState::Closed,
            intervals: Vec::new(),
        }
    }

    /// Decides how the next task attempt at `now` is admitted.
    pub fn admit(&mut self, now: Time) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Normal,
            BreakerState::Open { until } if now >= until => {
                self.state = BreakerState::HalfOpen;
                Admission::Probe
            }
            BreakerState::Open { .. } => Admission::Blocked,
            BreakerState::HalfOpen => Admission::Probe,
        }
    }

    /// Records a completed task. Returns `true` when this success
    /// re-admits a quarantined device (half-open probe passed).
    pub fn record_success(&mut self, now: Time) -> bool {
        self.consecutive = 0;
        if self.state == BreakerState::Closed {
            return false;
        }
        self.state = BreakerState::Closed;
        if let Some(last) = self.intervals.last_mut() {
            if last.1.is_none() {
                last.1 = Some(now);
            }
        }
        true
    }

    /// Records a failed task. Returns `true` when this failure freshly
    /// trips the device into quarantine.
    pub fn record_failure(&mut self, now: Time) -> bool {
        self.consecutive = self.consecutive.saturating_add(1);
        match self.state {
            BreakerState::HalfOpen => {
                // The probe failed: back to quarantine, same open interval.
                self.state = BreakerState::Open {
                    until: now + self.quarantine,
                };
                false
            }
            BreakerState::Closed if self.consecutive >= self.threshold => {
                self.state = BreakerState::Open {
                    until: now + self.quarantine,
                };
                self.intervals.push((now, None));
                true
            }
            _ => false,
        }
    }

    /// `true` while the device is quarantined (open or probing).
    pub fn quarantined(&self) -> bool {
        self.state != BreakerState::Closed
    }

    /// Consumes the breaker into its recorded quarantine intervals; an
    /// open `None` end means the device was still out at teardown.
    pub fn into_intervals(self) -> Vec<(Time, Option<Time>)> {
        self.intervals
    }
}

/// Fault activity of one run, surfaced through [`crate::runtime::RunReport`]
/// and the live report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Final fault counters.
    pub snapshot: FaultSnapshot,
    /// Quarantine windows over all devices, sorted by start; a `None` end
    /// means the device was still quarantined at teardown.
    pub quarantines: Vec<(Time, Option<Time>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_after_threshold_and_readmits_on_probe() {
        let mut br = CircuitBreaker::new(3, Time::from_ms(5));
        let t0 = Time::from_ms(10);
        assert_eq!(br.admit(t0), Admission::Normal);
        assert!(!br.record_failure(t0));
        assert!(!br.record_failure(t0));
        assert!(br.record_failure(t0), "third consecutive failure trips");
        assert!(br.quarantined());
        // Inside the quarantine window everything is blocked.
        assert_eq!(br.admit(Time::from_ms(12)), Admission::Blocked);
        // After it, exactly one probe goes through.
        assert_eq!(br.admit(Time::from_ms(16)), Admission::Probe);
        assert!(br.record_success(Time::from_ms(16)));
        assert!(!br.quarantined());
        assert_eq!(br.admit(Time::from_ms(17)), Admission::Normal);
        assert_eq!(br.into_intervals(), [(t0, Some(Time::from_ms(16)))]);
    }

    #[test]
    fn failed_probe_extends_the_quarantine() {
        let mut br = CircuitBreaker::new(1, Time::from_ms(5));
        assert!(br.record_failure(Time::from_ms(0)));
        assert_eq!(br.admit(Time::from_ms(6)), Admission::Probe);
        assert!(!br.record_failure(Time::from_ms(6)), "no fresh trip");
        // Re-opened: blocked until a fresh quarantine elapses.
        assert_eq!(br.admit(Time::from_ms(8)), Admission::Blocked);
        assert_eq!(br.admit(Time::from_ms(11)), Admission::Probe);
        assert!(br.record_success(Time::from_ms(11)));
        // One interval covering the whole outage, ends at the re-admit.
        assert_eq!(
            br.into_intervals(),
            [(Time::from_ms(0), Some(Time::from_ms(11)))]
        );
    }

    #[test]
    fn successes_reset_the_consecutive_count() {
        let mut br = CircuitBreaker::new(2, Time::from_ms(1));
        assert!(!br.record_failure(Time::ZERO));
        assert!(!br.record_success(Time::ZERO), "closed stays closed");
        assert!(!br.record_failure(Time::ZERO), "count restarted");
        assert!(br.record_failure(Time::ZERO));
    }

    #[test]
    fn snapshot_equality_and_cleanliness() {
        let stats = FaultStats::default();
        assert!(stats.snapshot().is_clean());
        FaultStats::add(&stats.retried, 2);
        FaultStats::add(&stats.injected_transient, 2);
        let s = stats.snapshot();
        assert!(!s.is_clean());
        assert_eq!(s.injected(), 2);
        assert_eq!(s, stats.snapshot());
    }
}
