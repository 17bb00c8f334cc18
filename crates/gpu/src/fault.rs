//! Deterministic fault injection for the simulated device.
//!
//! A [`FaultPlan`] makes the simulated accelerator fail in *typed*,
//! *reproducible* ways: per-attempt probabilities for timeouts, transient
//! errors, and corrupted output blocks, plus an optional whole-device death
//! window. The [`FaultInjector`] draws from a seeded splitmix64 stream — a
//! pure function of (seed, draw index) with no wall-clock input — so a DES
//! run under a fixed plan is bit-reproducible: same seed, same faults, same
//! recovery, same packet counts.

use nba_sim::Time;

/// The typed ways a device task attempt can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The task never completes; only a watchdog deadline detects it.
    Timeout,
    /// A retryable submission error (the ECC-hiccup / queue-glitch class).
    Transient,
    /// The task completes but its output block has the wrong length.
    CorruptOutput,
    /// The whole device is dead (inside the plan's death window).
    DeviceDeath,
}

/// A scheduled worker-thread kill, keyed on that worker's own processed
/// packet counter (not wall clock), so the trigger point is deterministic
/// under flow-affine steering: `worker_kill=2@300` kills worker 2 once it
/// has pulled its 300th packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerKill {
    /// Worker (shard) index to kill.
    pub worker: u32,
    /// Trigger once the worker has processed this many packets.
    pub at_packet: u64,
}

/// A scheduled worker stall: the worker stops consuming for a wall-clock
/// window, then resumes (`worker_stall=1@300+5` = worker 1 sleeps 5 ms at
/// its 300th packet). Output-preserving in drain mode — the supervisor may
/// still presume it dead and re-steer its buckets meanwhile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerStall {
    /// Worker (shard) index to stall.
    pub worker: u32,
    /// Trigger once the worker has processed this many packets.
    pub at_packet: u64,
    /// Stall duration in milliseconds.
    pub millis: f64,
}

/// A seeded, declarative fault schedule for one device.
///
/// Probabilities apply independently to every kernel *attempt* (retries
/// draw again). The default plan is inactive: no faults, identical behavior
/// to a build without the fault layer.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-attempt fault draws.
    pub seed: u64,
    /// Probability an attempt times out (no completion), in `[0, 1]`.
    pub timeout: f64,
    /// Probability of a retryable transient error, in `[0, 1]`.
    pub transient: f64,
    /// Probability the output block comes back truncated, in `[0, 1]`.
    pub corrupt: f64,
    /// The device dies at this time…
    pub die_at: Option<Time>,
    /// …and revives at this time (`None` = stays dead).
    pub revive_at: Option<Time>,
    /// Scheduled worker-thread kills (supervision drills).
    pub worker_kill: Vec<WorkerKill>,
    /// Scheduled worker-thread stalls (supervision drills).
    pub worker_stall: Vec<WorkerStall>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 42,
            timeout: 0.0,
            transient: 0.0,
            corrupt: 0.0,
            die_at: None,
            revive_at: None,
            worker_kill: Vec::new(),
            worker_stall: Vec::new(),
        }
    }
}

/// A [`FaultPlan::parse_spanned`] error carrying the byte span of the
/// offending token inside the (single-line) spec string, so CLI surfaces
/// can point at the exact character instead of the whole flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError {
    /// Byte offset of the offending token within the spec.
    pub offset: usize,
    /// Byte length of the offending token.
    pub len: usize,
    /// What is wrong with it.
    pub msg: String,
}

impl std::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "at {}..{}: {}",
            self.offset,
            self.offset + self.len,
            self.msg
        )
    }
}

impl std::error::Error for PlanParseError {}

impl FaultPlan {
    /// `true` if the plan can ever inject anything.
    pub fn is_active(&self) -> bool {
        self.device_active() || self.worker_faults_active()
    }

    /// `true` if the *device* path can ever see a fault. The injector and
    /// circuit breaker stay out of the data path entirely when this is
    /// false, even if worker drills are scheduled — a worker-only plan
    /// keeps the offload path bit-identical to a clean run.
    pub fn device_active(&self) -> bool {
        self.timeout > 0.0 || self.transient > 0.0 || self.corrupt > 0.0 || self.die_at.is_some()
    }

    /// `true` if any worker kill/stall drill is scheduled.
    pub fn worker_faults_active(&self) -> bool {
        !self.worker_kill.is_empty() || !self.worker_stall.is_empty()
    }

    /// The scheduled kill for `worker`, if any (first match wins).
    pub fn kill_for(&self, worker: u32) -> Option<WorkerKill> {
        self.worker_kill
            .iter()
            .copied()
            .find(|k| k.worker == worker)
    }

    /// The scheduled stall for `worker`, if any (first match wins).
    pub fn stall_for(&self, worker: u32) -> Option<WorkerStall> {
        self.worker_stall
            .iter()
            .copied()
            .find(|k| k.worker == worker)
    }

    /// `true` while the device is inside the death window at `now`.
    pub fn device_dead(&self, now: Time) -> bool {
        match self.die_at {
            Some(t) if now >= t => self.revive_at.is_none_or(|r| now < r),
            _ => false,
        }
    }

    /// Parses the flag/config syntax:
    /// `seed=7,transient=0.2,timeout=0.1,corrupt=0.05,die_at_ms=25,revive_at_ms=40,worker_kill=2@300,worker_stall=1@300+5`.
    /// Keys may appear in any order; `worker_kill`/`worker_stall` may repeat
    /// (one event each); unknown keys are errors so typos in a chaos-CI
    /// matrix fail loudly instead of silently running clean.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        FaultPlan::parse_spanned(s).map_err(|e| format!("fault plan: {e}"))
    }

    /// [`FaultPlan::parse`] with a token-accurate error span: the returned
    /// error names the exact byte range of the bad key or value.
    pub fn parse_spanned(s: &str) -> Result<FaultPlan, PlanParseError> {
        let err = |offset: usize, len: usize, msg: String| PlanParseError { offset, len, msg };
        let mut plan = FaultPlan::default();
        let mut pos = 0usize;
        for part in s.split(',') {
            let part_off = pos;
            pos += part.len() + 1;
            let trimmed = part.trim();
            if trimmed.is_empty() {
                continue;
            }
            let tok_off = part_off + (part.len() - part.trim_start().len());
            let Some((key, val)) = trimmed.split_once('=') else {
                return Err(err(
                    tok_off,
                    trimmed.len(),
                    format!("expected key=value, got `{trimmed}`"),
                ));
            };
            let key_t = key.trim_end();
            let val_t = val.trim();
            let key_span = (tok_off, key_t.len().max(1));
            let val_off = tok_off + key.len() + 1 + (val.len() - val.trim_start().len());
            let val_span = (val_off, val_t.len().max(1));
            let fval = || -> Result<f64, PlanParseError> {
                val_t.parse::<f64>().map_err(|e| {
                    err(
                        val_span.0,
                        val_span.1,
                        format!("bad value for `{key_t}`: {e}"),
                    )
                })
            };
            let prob = || -> Result<f64, PlanParseError> {
                let v = fval()?;
                if (0.0..=1.0).contains(&v) {
                    Ok(v)
                } else {
                    Err(err(
                        val_span.0,
                        val_span.1,
                        format!("`{key_t}` must be in [0, 1], got {v}"),
                    ))
                }
            };
            let ms = || -> Result<Time, PlanParseError> { Ok(Time::from_secs_f64(fval()? / 1e3)) };
            // `W@N[+MS]`: worker index, trigger packet, optional stall window.
            let worker_at = |with_ms: bool| -> Result<(u32, u64, f64), PlanParseError> {
                let bad = |msg: String| err(val_span.0, val_span.1, msg);
                let (w, rest) = val_t.split_once('@').ok_or_else(|| {
                    bad(format!(
                        "`{key_t}` wants worker@packet{}, got `{val_t}`",
                        if with_ms { "+ms" } else { "" }
                    ))
                })?;
                let worker: u32 = w
                    .parse()
                    .map_err(|e| bad(format!("bad worker index `{w}`: {e}")))?;
                let (at, millis) = match (rest.split_once('+'), with_ms) {
                    (Some((at, ms)), true) => {
                        let millis: f64 = ms
                            .parse()
                            .map_err(|e| bad(format!("bad stall millis `{ms}`: {e}")))?;
                        if !millis.is_finite() || millis <= 0.0 {
                            return Err(bad(format!("stall window must be positive, got {ms}")));
                        }
                        (at, millis)
                    }
                    (Some(_), false) => {
                        return Err(bad(format!("`{key_t}` takes no `+ms` suffix")));
                    }
                    (None, true) => {
                        return Err(bad(format!(
                            "`{key_t}` wants worker@packet+ms, got `{val_t}`"
                        )));
                    }
                    (None, false) => (rest, 0.0),
                };
                let at_packet: u64 = at
                    .parse()
                    .map_err(|e| bad(format!("bad trigger packet `{at}`: {e}")))?;
                Ok((worker, at_packet, millis))
            };
            match key_t {
                "seed" => {
                    plan.seed = val_t
                        .parse()
                        .map_err(|e| err(val_span.0, val_span.1, format!("bad seed: {e}")))?;
                }
                "timeout" => plan.timeout = prob()?,
                "transient" => plan.transient = prob()?,
                "corrupt" => plan.corrupt = prob()?,
                "die_at_ms" => plan.die_at = Some(ms()?),
                "revive_at_ms" => plan.revive_at = Some(ms()?),
                "worker_kill" => {
                    let (worker, at_packet, _) = worker_at(false)?;
                    plan.worker_kill.push(WorkerKill { worker, at_packet });
                }
                "worker_stall" => {
                    let (worker, at_packet, millis) = worker_at(true)?;
                    plan.worker_stall.push(WorkerStall {
                        worker,
                        at_packet,
                        millis,
                    });
                }
                other => {
                    return Err(err(
                        key_span.0,
                        key_span.1,
                        format!("unknown key `{other}`"),
                    ));
                }
            }
        }
        Ok(plan)
    }

    /// Canonical one-line rendering (config digests, report metadata).
    /// Inverse of [`FaultPlan::parse`] up to float formatting.
    pub fn render(&self) -> String {
        let mut s = format!(
            "seed={},timeout={},transient={},corrupt={}",
            self.seed, self.timeout, self.transient, self.corrupt
        );
        if let Some(t) = self.die_at {
            s.push_str(&format!(",die_at_ms={}", t.as_secs_f64() * 1e3));
        }
        if let Some(t) = self.revive_at {
            s.push_str(&format!(",revive_at_ms={}", t.as_secs_f64() * 1e3));
        }
        for k in &self.worker_kill {
            s.push_str(&format!(",worker_kill={}@{}", k.worker, k.at_packet));
        }
        for k in &self.worker_stall {
            s.push_str(&format!(
                ",worker_stall={}@{}+{}",
                k.worker, k.at_packet, k.millis
            ));
        }
        s
    }
}

/// Draws typed faults for one device from a seeded deterministic stream.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    state: u64,
}

impl FaultInjector {
    /// Creates an injector over `plan` (the seed fully determines draws).
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let state = plan.seed;
        FaultInjector { plan, state }
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// splitmix64: the standard 64-bit mixer — tiny, seedable, and good
    /// enough to decorrelate per-attempt draws.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)` (53 mantissa bits).
    fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Decides the fate of one kernel attempt submitted at `now`.
    /// `None` = the attempt succeeds. Device death preempts the
    /// probabilistic faults (a dead device fails every attempt the same
    /// way); the probability draw is consumed regardless so the stream
    /// stays aligned across plans that differ only in the death window.
    pub fn draw(&mut self, now: Time) -> Option<FaultKind> {
        let u = self.next_unit();
        if self.plan.device_dead(now) {
            return Some(FaultKind::DeviceDeath);
        }
        let mut edge = self.plan.timeout;
        if u < edge {
            return Some(FaultKind::Timeout);
        }
        edge += self.plan.transient;
        if u < edge {
            return Some(FaultKind::Transient);
        }
        edge += self.plan.corrupt;
        if u < edge {
            return Some(FaultKind::CorruptOutput);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inactive_and_never_injects() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        let mut inj = FaultInjector::new(plan);
        for i in 0..1000 {
            assert_eq!(inj.draw(Time::from_us(i)), None);
        }
    }

    #[test]
    fn parse_round_trips_through_render() {
        let plan = FaultPlan::parse(
            "seed=7,transient=0.25,timeout=0.1,corrupt=0.05,die_at_ms=25,revive_at_ms=40",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.transient, 0.25);
        assert_eq!(plan.die_at, Some(Time::from_us(25_000)));
        assert_eq!(plan.revive_at, Some(Time::from_us(40_000)));
        assert!(plan.is_active());
        assert_eq!(FaultPlan::parse(&plan.render()).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_unknown_keys_and_bad_probabilities() {
        assert!(FaultPlan::parse("transiant=0.5").is_err());
        assert!(FaultPlan::parse("transient=1.5").is_err());
        assert!(FaultPlan::parse("seed").is_err());
        // The empty plan parses to the inactive default.
        assert!(!FaultPlan::parse("").unwrap().is_active());
    }

    #[test]
    fn parse_worker_drills_round_trip_and_classify() {
        let plan =
            FaultPlan::parse("worker_kill=2@300,worker_stall=1@150+5,worker_kill=3@900").unwrap();
        assert_eq!(
            plan.worker_kill,
            vec![
                WorkerKill {
                    worker: 2,
                    at_packet: 300
                },
                WorkerKill {
                    worker: 3,
                    at_packet: 900
                },
            ]
        );
        assert_eq!(
            plan.worker_stall,
            vec![WorkerStall {
                worker: 1,
                at_packet: 150,
                millis: 5.0
            }]
        );
        assert_eq!(plan.kill_for(2).unwrap().at_packet, 300);
        assert_eq!(plan.kill_for(0), None);
        assert_eq!(plan.stall_for(1).unwrap().millis, 5.0);
        // Worker-only plans never arm the device injector.
        assert!(plan.is_active());
        assert!(!plan.device_active());
        assert!(plan.worker_faults_active());
        assert_eq!(FaultPlan::parse(&plan.render()).unwrap(), plan);
    }

    #[test]
    fn spanned_errors_point_at_the_offending_token() {
        // Unknown key: the span covers exactly `worker_kil`.
        let spec = "seed=7,worker_kil=2@300";
        let e = FaultPlan::parse_spanned(spec).unwrap_err();
        assert_eq!(&spec[e.offset..e.offset + e.len], "worker_kil");
        assert!(e.msg.contains("unknown key"), "{e}");

        // Bad value: the span covers exactly the malformed value token,
        // even with surrounding whitespace.
        let spec = "seed=7, worker_kill = 2#300 ,transient=0.1";
        let e = FaultPlan::parse_spanned(spec).unwrap_err();
        assert_eq!(&spec[e.offset..e.offset + e.len], "2#300");
        assert!(e.msg.contains("worker@packet"), "{e}");

        // A stall without its window names the missing piece.
        let e = FaultPlan::parse_spanned("worker_stall=1@300").unwrap_err();
        assert!(e.msg.contains("worker@packet+ms"), "{e}");
        // A kill must not carry one.
        let e = FaultPlan::parse_spanned("worker_kill=1@300+5").unwrap_err();
        assert!(e.msg.contains("no `+ms`"), "{e}");
        // Zero/negative stall windows are rejected.
        assert!(FaultPlan::parse_spanned("worker_stall=1@300+0").is_err());

        // The legacy keys keep their spans too.
        let spec = "transient=1.5";
        let e = FaultPlan::parse_spanned(spec).unwrap_err();
        assert_eq!(&spec[e.offset..e.offset + e.len], "1.5");
    }

    #[test]
    fn death_window_bounds_device_death() {
        let plan = FaultPlan {
            die_at: Some(Time::from_ms(10)),
            revive_at: Some(Time::from_ms(20)),
            ..FaultPlan::default()
        };
        assert!(!plan.device_dead(Time::from_ms(9)));
        assert!(plan.device_dead(Time::from_ms(10)));
        assert!(plan.device_dead(Time::from_ms(19)));
        assert!(!plan.device_dead(Time::from_ms(20)));
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.draw(Time::from_ms(15)), Some(FaultKind::DeviceDeath));
        assert_eq!(inj.draw(Time::from_ms(25)), None);
    }

    #[test]
    fn same_seed_draws_identical_fault_streams() {
        let plan = FaultPlan {
            timeout: 0.1,
            transient: 0.2,
            corrupt: 0.1,
            ..FaultPlan::default()
        };
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan.clone());
        let draws_a: Vec<_> = (0..500).map(|i| a.draw(Time::from_us(i))).collect();
        let draws_b: Vec<_> = (0..500).map(|i| b.draw(Time::from_us(i))).collect();
        assert_eq!(draws_a, draws_b);
        // A different seed diverges (overwhelmingly likely over 500 draws).
        let mut c = FaultInjector::new(FaultPlan { seed: 43, ..plan });
        let draws_c: Vec<_> = (0..500).map(|i| c.draw(Time::from_us(i))).collect();
        assert_ne!(draws_a, draws_c);
    }

    #[test]
    fn probabilities_hit_their_rates_roughly() {
        let plan = FaultPlan {
            timeout: 0.1,
            transient: 0.3,
            corrupt: 0.05,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan);
        let mut counts = [0usize; 4];
        let n = 20_000;
        for i in 0..n {
            match inj.draw(Time::from_us(i as u64)) {
                Some(FaultKind::Timeout) => counts[0] += 1,
                Some(FaultKind::Transient) => counts[1] += 1,
                Some(FaultKind::CorruptOutput) => counts[2] += 1,
                Some(FaultKind::DeviceDeath) => counts[3] += 1,
                None => {}
            }
        }
        let frac = |c: usize| c as f64 / n as f64;
        assert!((frac(counts[0]) - 0.1).abs() < 0.02, "{counts:?}");
        assert!((frac(counts[1]) - 0.3).abs() < 0.02, "{counts:?}");
        assert!((frac(counts[2]) - 0.05).abs() < 0.02, "{counts:?}");
        assert_eq!(counts[3], 0);
    }
}
