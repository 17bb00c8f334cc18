//! Worker supervision and overload control for the sharded live runtime.
//!
//! PR 4's circuit breaker made the *device* path self-healing; this module
//! does the same for the *worker* plane. Each shard publishes a heartbeat
//! ([`WorkerHealth`]: a progress counter plus liveness flags); the
//! [`Supervisor`] — one implementation, ticked by both runtimes — runs the
//! watchdog and drives a per-shard state machine ([`ShardMonitor`]) through
//!
//! ```text
//!          T/5 windows without progress       T stalled windows / crash
//!   Healthy ────────────────────────▶ Suspect ────────────────────────▶ Dead
//!      ▲                                │                                │
//!      │ progress                       │ progress                       │ respawn / resumed
//!      │                                ▼                                ▼
//!      └───────────────────────── (back to Healthy) ◀──────────── Recovering
//! ```
//!
//! mirroring the Closed → Open → HalfOpen shape of
//! [`crate::fault::CircuitBreaker`]. On **Dead** the supervisor re-steers
//! the shard's RSS buckets onto survivors through the shared
//! [`nba_io::RssTable`]; on **Recovering** a respawned worker (fresh graph /
//! pool / telemetry replicas) re-acquires them. Every transition is recorded
//! in a [`SupervisorLog`] — replayable JSONL in the same bit-exact style as
//! [`crate::audit::DecisionLog`] — and every lost or shed packet lands in a
//! [`HealthStats`] counter so total loss always reconciles against a clean
//! run.
//!
//! The overload half is [`ShedConfig`]/[`Shedder`]: when ring occupancy or
//! the SLO burn-rate crosses a threshold, IO threads shed load by policy
//! (drop-tail, priority-aware by traffic class, or probabilistic early
//! drop) instead of blocking, with every shed accounted.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use nba_io::RssTable;
use nba_sim::Time;

use crate::flow::FlowRegistry;
use crate::json::{self, str_field, u64_field, Value};
use crate::lb::SharedBalancer;

/// The supervision state of one worker shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WorkerState {
    /// Making progress (or idle with an empty ring).
    Healthy = 0,
    /// One watchdog window with backlog but no progress.
    Suspect = 1,
    /// Declared gone: crashed, or stalled past the window budget. Its RSS
    /// buckets are re-steered to survivors.
    Dead = 2,
    /// A replacement was spawned (or a presumed-dead worker resumed); it
    /// becomes Healthy again at its first observed progress.
    Recovering = 3,
}

impl WorkerState {
    /// Stable wire/metric name.
    pub fn as_str(self) -> &'static str {
        match self {
            WorkerState::Healthy => "healthy",
            WorkerState::Suspect => "suspect",
            WorkerState::Dead => "dead",
            WorkerState::Recovering => "recovering",
        }
    }

    /// Inverse of [`WorkerState::as_str`].
    pub fn parse(s: &str) -> Result<WorkerState, String> {
        match s {
            "healthy" => Ok(WorkerState::Healthy),
            "suspect" => Ok(WorkerState::Suspect),
            "dead" => Ok(WorkerState::Dead),
            "recovering" => Ok(WorkerState::Recovering),
            other => Err(format!("unknown worker state `{other}`")),
        }
    }

    /// The numeric gauge value exported to `/metrics`.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Inverse of [`WorkerState::as_u8`].
    pub fn from_u8(v: u8) -> WorkerState {
        match v {
            1 => WorkerState::Suspect,
            2 => WorkerState::Dead,
            3 => WorkerState::Recovering,
            _ => WorkerState::Healthy,
        }
    }
}

/// Why a transition fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionReason {
    /// No progress across a watchdog window while backlog waited.
    Stall,
    /// The worker's containment signal: its thread exited uncleanly.
    Crash,
    /// Progress was observed again.
    Progress,
    /// The supervisor spawned a replacement worker.
    Respawn,
    /// A presumed-dead (stalled) worker started consuming again.
    Resumed,
}

impl TransitionReason {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            TransitionReason::Stall => "stall",
            TransitionReason::Crash => "crash",
            TransitionReason::Progress => "progress",
            TransitionReason::Respawn => "respawn",
            TransitionReason::Resumed => "resumed",
        }
    }

    /// Inverse of [`TransitionReason::as_str`].
    pub fn parse(s: &str) -> Result<TransitionReason, String> {
        match s {
            "stall" => Ok(TransitionReason::Stall),
            "crash" => Ok(TransitionReason::Crash),
            "progress" => Ok(TransitionReason::Progress),
            "respawn" => Ok(TransitionReason::Respawn),
            "resumed" => Ok(TransitionReason::Resumed),
            other => Err(format!("unknown transition reason `{other}`")),
        }
    }
}

/// One state-machine edge, as returned by [`ShardMonitor::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// State before.
    pub from: WorkerState,
    /// State after.
    pub to: WorkerState,
    /// Why.
    pub reason: TransitionReason,
}

/// Is `(from → to, reason)` an edge the state machine can produce? The
/// replay validator rejects logs that claim impossible transitions.
pub fn transition_is_legal(t: Transition) -> bool {
    use TransitionReason as R;
    use WorkerState as S;
    matches!(
        (t.from, t.to, t.reason),
        (S::Healthy, S::Suspect, R::Stall)
            | (S::Healthy, S::Dead, R::Stall | R::Crash)
            | (S::Suspect, S::Dead, R::Stall | R::Crash)
            | (S::Suspect, S::Healthy, R::Progress)
            | (S::Dead, S::Recovering, R::Respawn | R::Resumed)
            | (S::Recovering, S::Healthy, R::Progress)
            | (S::Recovering, S::Dead, R::Stall | R::Crash)
    )
}

/// Supervision knobs, grouped under [`crate::fault::FaultConfig`] so both
/// runtimes inherit them.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Watchdog tick: how often each shard's heartbeat is examined.
    pub check_interval: Time,
    /// Consecutive no-progress windows (with backlog) before a shard is
    /// declared Dead. A fifth of them (at least one, at most all but one)
    /// makes it Suspect.
    pub stall_windows: u32,
    /// Respawn a crashed worker (fresh graph/pool/telemetry replicas) and
    /// hand its buckets back once it progresses. Stalled-but-alive workers
    /// are never respawned — they re-acquire their buckets on resume.
    pub respawn: bool,
}

/// The default stall budget is 50 ms, several scheduler quanta: a worker
/// that is runnable but waiting for a CPU (threads outnumbering cores) is
/// never convicted, and not even suspected before 10 ms. A crash needs no
/// budget — it is convicted at the next 1 ms tick.
impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            check_interval: Time::from_ms(1),
            stall_windows: 50,
            respawn: true,
        }
    }
}

impl SupervisorConfig {
    /// The worst-case detection budget for a crash/stall: every fault is
    /// seen within this many watchdog ticks.
    pub fn detection_budget(&self) -> Time {
        Time::from_secs_f64(
            self.check_interval.as_secs_f64() * f64::from(self.stall_windows.max(1) + 1),
        )
    }
}

/// What the supervisor reads from a shard each watchdog tick.
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// The shard's monotone progress counter (packets pulled + completions).
    pub progress: u64,
    /// False once the worker thread exited without finishing its drain.
    pub alive: bool,
    /// Items waiting in the shard's RX rings (no backlog = idle, not stall).
    pub backlog: u64,
}

/// The pure per-shard watchdog state machine (deterministically testable;
/// a [`Supervisor`] drives one of these per shard).
#[derive(Debug, Clone)]
pub struct ShardMonitor {
    state: WorkerState,
    stall_windows: u32,
    last_progress: Option<u64>,
    stalled: u32,
}

impl ShardMonitor {
    /// A monitor starting Healthy.
    pub fn new(stall_windows: u32) -> ShardMonitor {
        ShardMonitor {
            state: WorkerState::Healthy,
            stall_windows: stall_windows.max(2),
            last_progress: None,
            stalled: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> WorkerState {
        self.state
    }

    /// Feeds one watchdog observation; returns the transition it caused,
    /// if any.
    pub fn observe(&mut self, obs: Observation) -> Option<Transition> {
        use WorkerState as S;
        if !obs.alive {
            self.stalled = 0;
            return self.force(S::Dead, TransitionReason::Crash);
        }
        // The first sighting only establishes the baseline — a stall needs
        // two looks at the same counter.
        let Some(last) = self.last_progress else {
            self.last_progress = Some(obs.progress);
            return None;
        };
        let progressed = obs.progress > last;
        self.last_progress = Some(obs.progress);
        if progressed {
            self.stalled = 0;
            return match self.state {
                S::Suspect | S::Recovering => self.force(S::Healthy, TransitionReason::Progress),
                // A presumed-dead shard that moves again was stalled, not
                // crashed: it holds its rings and walks back through
                // Recovering (where its buckets are restored).
                S::Dead => self.force(S::Recovering, TransitionReason::Resumed),
                S::Healthy => None,
            };
        }
        if obs.backlog == 0 || matches!(self.state, S::Dead) {
            return None;
        }
        self.stalled += 1;
        // Suspicion also needs several windows, so a runnable worker that
        // waits one scheduler quantum for a CPU is not suspected.
        let suspect_after = (self.stall_windows / 5).clamp(1, self.stall_windows - 1);
        if self.stalled >= self.stall_windows {
            self.force(S::Dead, TransitionReason::Stall)
        } else if self.stalled >= suspect_after && matches!(self.state, S::Healthy) {
            self.force(S::Suspect, TransitionReason::Stall)
        } else {
            None
        }
    }

    /// Externally-driven transition (e.g. the supervisor respawned the
    /// shard). No-op when already in `to`.
    pub fn force(&mut self, to: WorkerState, reason: TransitionReason) -> Option<Transition> {
        if self.state == to {
            return None;
        }
        let t = Transition {
            from: self.state,
            to,
            reason,
        };
        self.state = to;
        t.into()
    }
}

/// The heartbeat one worker shard publishes (gauges, not synchronization —
/// except the `done`/`alive` pair, see [`WorkerHealth::finish`]).
#[derive(Debug, Default)]
pub struct WorkerHealth {
    /// Monotone progress counter: packets pulled from RX plus completions
    /// resumed. Bumped by the worker, read by the watchdog.
    pub progress: AtomicU64,
    /// Cleared when the worker thread exits *without* completing its drain
    /// (crash containment or a scheduled kill drill).
    pub alive: AtomicBool,
    /// Set on a graceful end-of-run drain; the supervisor then ignores the
    /// shard (a finished worker is not a dead one).
    pub done: AtomicBool,
    /// Mirror of the supervisor's [`WorkerState`] for observers
    /// (`/metrics`, the sampler).
    pub state: AtomicU8,
    /// Watchdog epoch: bumped by the supervisor each time it examines this
    /// shard, so observers can tell the watchdog itself is alive.
    pub epoch: AtomicU64,
    /// Set while a kill drill is scheduled for this shard and has not
    /// fired ([`WorkerHealth::arm_kill`]); cleared when the shard crashes
    /// or finishes.
    pub kill_pending: AtomicBool,
}

impl WorkerHealth {
    /// A fresh Healthy heartbeat.
    pub fn new() -> WorkerHealth {
        WorkerHealth {
            alive: AtomicBool::new(true),
            ..WorkerHealth::default()
        }
    }

    /// Worker-side: record `n` units of progress.
    pub fn advance(&self, n: u64) {
        self.progress.fetch_add(n, Ordering::Relaxed);
    }

    /// Worker-side: mark a graceful end-of-run exit. `done` is released
    /// before `alive` is cleared; [`Supervisor::tick`] acquires them in the
    /// opposite order, so it can never see the crash pair `!alive && !done`
    /// for a worker that finished.
    pub fn finish(&self) {
        self.done.store(true, Ordering::Release);
        self.alive.store(false, Ordering::Release);
        self.kill_pending.store(false, Ordering::Release);
    }

    /// Worker-side: mark an unclean exit (the containment signal). A kill
    /// drill that fires lands here, so its shard stops counting as pending
    /// only once the crash pair is visible.
    pub fn crash(&self) {
        self.alive.store(false, Ordering::Release);
        self.kill_pending.store(false, Ordering::Release);
    }

    /// Run-assembly side: a kill drill is scheduled for this shard.
    pub fn arm_kill(&self) {
        self.kill_pending.store(true, Ordering::Release);
    }

    /// Will this shard crash, or has it crashed, without the supervisor
    /// having convicted it yet? A shard whose kill drill is armed but has
    /// not fired counts: until it fires, no survivor may finish and leave
    /// its buckets without a re-steer target. `kill_pending` is read
    /// first, then `alive` before `done`, as in [`Supervisor::tick`].
    pub fn awaiting_conviction(&self) -> bool {
        if self.kill_pending.load(Ordering::Acquire) {
            return true;
        }
        let alive = self.alive.load(Ordering::Acquire);
        !alive && !self.done.load(Ordering::Acquire) && self.observed_state() != WorkerState::Dead
    }

    /// Supervisor-side: re-arm after a respawn.
    pub fn rearm(&self) {
        self.alive.store(true, Ordering::Release);
        self.done.store(false, Ordering::Release);
    }

    /// The supervisor state observers currently see.
    pub fn observed_state(&self) -> WorkerState {
        WorkerState::from_u8(self.state.load(Ordering::Relaxed))
    }
}

/// Shared loss/shed/recovery accounting (relaxed atomics, mirroring
/// [`crate::fault::FaultStats`]). Every packet the self-healing plane gives
/// up on is counted exactly once, so
/// `clean_tx - drill_tx == shed + lost_in_ring + lost_in_flight` holds.
#[derive(Debug, Default)]
pub struct HealthStats {
    /// Packets shed by the drop-tail policy.
    pub shed_drop_tail: AtomicU64,
    /// Packets shed by the priority policy.
    pub shed_priority: AtomicU64,
    /// Packets shed by the probabilistic (early-drop) policy.
    pub shed_probabilistic: AtomicU64,
    /// Packets abandoned in a dead shard's RX rings.
    pub lost_in_ring: AtomicU64,
    /// Packets in offload completions no worker ever resumed.
    pub lost_in_flight: AtomicU64,
    /// RSS re-steer operations (bucket remaps away from a dead shard).
    pub resteers: AtomicU64,
    /// Buckets moved by those re-steers.
    pub buckets_moved: AtomicU64,
    /// Replacement workers spawned.
    pub respawns: AtomicU64,
    /// Ring-disconnect post-mortems raised by IO threads.
    pub ring_disconnects: AtomicU64,
}

impl HealthStats {
    /// Relaxed add.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A consistent-enough copy of all counters.
    pub fn snapshot(&self) -> HealthSnapshot {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        HealthSnapshot {
            shed_drop_tail: g(&self.shed_drop_tail),
            shed_priority: g(&self.shed_priority),
            shed_probabilistic: g(&self.shed_probabilistic),
            lost_in_ring: g(&self.lost_in_ring),
            lost_in_flight: g(&self.lost_in_flight),
            resteers: g(&self.resteers),
            buckets_moved: g(&self.buckets_moved),
            respawns: g(&self.respawns),
            ring_disconnects: g(&self.ring_disconnects),
            ..HealthSnapshot::default()
        }
    }
}

/// A point-in-time copy of [`HealthStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Packets shed by the drop-tail policy.
    pub shed_drop_tail: u64,
    /// Packets shed by the priority policy.
    pub shed_priority: u64,
    /// Packets shed by the probabilistic policy.
    pub shed_probabilistic: u64,
    /// Packets abandoned in dead shards' RX rings.
    pub lost_in_ring: u64,
    /// Packets in offload completions no worker ever resumed.
    pub lost_in_flight: u64,
    /// RSS re-steer operations.
    pub resteers: u64,
    /// Buckets moved by those re-steers.
    pub buckets_moved: u64,
    /// Replacement workers spawned.
    pub respawns: u64,
    /// Ring-disconnect post-mortems raised.
    pub ring_disconnects: u64,
    /// Buffers written off as lost with their packets (a contained panic,
    /// a ring abandoned with packets queued). Set at live teardown.
    pub buffers_lost: u64,
    /// Buffers the live run's pools still counted as outstanding after
    /// teardown, net of `buffers_lost`: buffers that never went home and
    /// no ledger names. Always 0 in the DES, whose packets return their
    /// buffers themselves.
    pub buffers_unreturned: u64,
}

impl HealthSnapshot {
    /// Packets shed, all policies.
    pub fn shed_total(&self) -> u64 {
        self.shed_drop_tail + self.shed_priority + self.shed_probabilistic
    }

    /// Every packet the self-healing plane accounts as given up.
    pub fn total_lost(&self) -> u64 {
        self.shed_total() + self.lost_in_ring + self.lost_in_flight
    }

    /// True when nothing was lost, shed, or re-steered, and every buffer
    /// went home.
    pub fn is_clean(&self) -> bool {
        *self == HealthSnapshot::default()
    }
}

/// The supervision section of a run report.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Final supervision state per worker shard (empty when the run had no
    /// supervisor, e.g. a plain DES run without worker drills).
    pub states: Vec<WorkerState>,
    /// Replayable transition log.
    pub log: SupervisorLog,
    /// Loss/shed/recovery counters.
    pub stats: HealthSnapshot,
}

impl HealthReport {
    /// True when no supervision event fired and nothing was lost.
    pub fn is_clean(&self) -> bool {
        self.log.events.is_empty() && self.stats.is_clean()
    }
}

/// The supervisor's per-tick body, shared by both runtimes: it watches the
/// heartbeats, drives one [`ShardMonitor`] per shard, and reacts to every
/// edge — re-steer a dead shard's RSS buckets onto survivors, invalidate a
/// crashed shard's flows, hand the buckets back on recovery, log it all. A
/// driver owns only the cadence (a DES timer entity, or the live runtime's
/// housekeeping loop) and, in live, the respawn of a crashed worker's
/// thread.
pub struct Supervisor {
    monitors: Vec<ShardMonitor>,
    log: SupervisorLog,
    health: Arc<Vec<WorkerHealth>>,
    hstats: Arc<HealthStats>,
    /// RSS indirection tables: worker `w` is queue `w % stride` of table
    /// `w / stride` (one table per socket in the DES, one overall in live).
    tables: Vec<Arc<RssTable>>,
    stride: usize,
    /// Worker `w`'s balancer handle (possibly all clones of one instance).
    balancers: Vec<SharedBalancer>,
    flows: FlowRegistry,
}

impl Supervisor {
    /// A supervisor over `health.len()` shards, all starting Healthy.
    pub fn new(
        cfg: &SupervisorConfig,
        health: Arc<Vec<WorkerHealth>>,
        hstats: Arc<HealthStats>,
        tables: Vec<Arc<RssTable>>,
        balancers: Vec<SharedBalancer>,
        flows: FlowRegistry,
    ) -> Supervisor {
        assert_eq!(balancers.len(), health.len(), "one balancer per shard");
        Supervisor {
            monitors: vec![ShardMonitor::new(cfg.stall_windows); health.len()],
            log: SupervisorLog::new(),
            stride: health.len().div_ceil(tables.len().max(1)).max(1),
            health,
            hstats,
            tables,
            balancers,
            flows,
        }
    }

    /// Current state of shard `w`.
    pub fn state(&self, w: usize) -> WorkerState {
        self.monitors[w].state()
    }

    /// One watchdog tick at `t_ns` since run start. `backlog_of(w)` is the
    /// item count waiting in shard `w`'s RX rings. Returns the edges that
    /// fired, already reacted to and logged.
    pub fn tick(
        &mut self,
        t_ns: u64,
        backlog_of: impl Fn(usize) -> u64,
    ) -> Vec<(usize, Transition)> {
        let mut fired = Vec::new();
        for w in 0..self.monitors.len() {
            let h = &self.health[w];
            h.epoch.fetch_add(1, Ordering::Relaxed);
            // `alive` before `done`: `finish()` releases `done` first, so a
            // cleared `alive` acquired here makes `done` visible below and
            // a worker finishing mid-tick is never mistaken for a crash.
            let alive = h.alive.load(Ordering::Acquire);
            if h.done.load(Ordering::Acquire) {
                // A finished worker is not a dead one.
                continue;
            }
            let obs = Observation {
                progress: h.progress.load(Ordering::Relaxed),
                alive,
                backlog: backlog_of(w),
            };
            let Some(t) = self.monitors[w].observe(obs) else {
                continue;
            };
            let moved = match t.to {
                WorkerState::Dead => self.quarantine(w, t.reason),
                // A presumed-dead (stalled) worker resumed on its own.
                WorkerState::Recovering => self.restore(w),
                WorkerState::Healthy | WorkerState::Suspect => 0,
            };
            self.commit(t_ns, w, t, obs.progress, obs.backlog, moved);
            fired.push((w, t));
        }
        fired
    }

    /// The driver put a replacement worker on crashed shard `w` (fresh
    /// rings, fresh graph replica): count the respawn, walk the shard to
    /// Recovering and hand its home buckets back.
    pub fn recovered(&mut self, w: usize, t_ns: u64) {
        HealthStats::add(&self.hstats.respawns, 1);
        if let Some(t) = self.monitors[w].force(WorkerState::Recovering, TransitionReason::Respawn)
        {
            let moved = self.restore(w);
            let progress = self.health[w].progress.load(Ordering::Relaxed);
            self.commit(t_ns, w, t, progress, 0, moved);
        }
    }

    /// Teardown: attributes what crashed, never-replaced shards left behind
    /// and closes the report. `leftovers(w)` returns `(packets still queued
    /// in w's RX rings, packets in completions nobody reaped)`; the latter
    /// is drained by the call. `drained` says the run ended by quiescing
    /// every thread (live) rather than by a measurement cut at a horizon
    /// (DES): then every unreaped completion is stranded for good, not
    /// just a crashed shard's. `orphaned_ring` is what sits in rings a
    /// respawn replaced.
    pub fn finish(
        &mut self,
        drained: bool,
        orphaned_ring: u64,
        mut leftovers: impl FnMut(usize) -> (u64, u64),
    ) -> HealthReport {
        let (mut lost_ring, mut lost_flight) = (orphaned_ring, 0);
        for (w, h) in self.health.iter().enumerate() {
            let crashed = !h.alive.load(Ordering::Acquire) && !h.done.load(Ordering::Acquire);
            if crashed || drained {
                let (ring, flight) = leftovers(w);
                lost_ring += if crashed { ring } else { 0 };
                lost_flight += flight;
            }
        }
        HealthStats::add(&self.hstats.lost_in_ring, lost_ring);
        HealthStats::add(&self.hstats.lost_in_flight, lost_flight);
        HealthReport {
            states: self.monitors.iter().map(ShardMonitor::state).collect(),
            log: std::mem::take(&mut self.log),
            stats: self.hstats.snapshot(),
        }
    }

    /// Quarantines dead shard `w`: re-steers its buckets onto its table's
    /// live survivors (untouched buckets keep their flow affinity; dead or
    /// finished workers are never targets). Returns the buckets moved.
    fn quarantine(&mut self, w: usize, reason: TransitionReason) -> usize {
        let base = w / self.stride * self.stride;
        let end = (base + self.stride).min(self.monitors.len());
        let survivors: Vec<u16> = (base..end)
            .filter(|&s| {
                s != w
                    && self.monitors[s].state() != WorkerState::Dead
                    && !self.health[s].done.load(Ordering::Acquire)
            })
            .map(|s| (s - base) as u16)
            .collect();
        let moved = self.tables[w / self.stride].remap_dead((w - base) as u16, &survivors);
        if moved > 0 {
            self.count_resteer(moved);
            // Survivors inherit load discontinuously: let their balancers
            // reset observation windows instead of hill-climbing across
            // the step.
            let share = (moved / survivors.len().max(1)).max(1);
            for &s in &survivors {
                self.balancers[base + usize::from(s)]
                    .lock()
                    .on_resteer(share);
            }
        }
        // The quarantine lands in the dead shard's decision-audit log, the
        // same replayable HealthDown trail the device breaker leaves.
        self.balancers[w].lock().observe_device_health(false);
        // Invalidate-on-death: every flow a crashed shard held is
        // accounted as lost (`evict_death`) — survivors see re-steered
        // flows as fresh foreign inserts. Stalled (but alive) shards keep
        // their tables: their thread still owns the state and may recover.
        if reason == TransitionReason::Crash {
            self.flows.invalidate_shard(w);
        }
        moved
    }

    /// The one restore path: hands shard `w` its home buckets back and
    /// re-admits it in its balancer's audit trail.
    fn restore(&mut self, w: usize) -> usize {
        let moved = self.tables[w / self.stride].restore((w % self.stride) as u16);
        if moved > 0 {
            self.count_resteer(moved);
        }
        self.balancers[w].lock().observe_device_health(true);
        moved
    }

    fn count_resteer(&self, moved: usize) {
        HealthStats::add(&self.hstats.resteers, 1);
        HealthStats::add(&self.hstats.buckets_moved, moved as u64);
    }

    /// Publishes the new state to observers and appends the log record.
    fn commit(
        &mut self,
        t_ns: u64,
        w: usize,
        t: Transition,
        progress: u64,
        backlog: u64,
        moved: usize,
    ) {
        self.health[w].state.store(t.to.as_u8(), Ordering::Relaxed);
        self.log
            .record(t_ns, w as u32, t, progress, backlog, moved as u32);
    }
}

/// One recorded supervision transition. Integers only — bit-exact JSONL
/// round-trips for free (same convention as
/// [`crate::audit::DecisionRecord`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionEvent {
    /// Sequence number within the log (0-based, dense).
    pub seq: u64,
    /// Time since run start, in nanoseconds (virtual in DES, wall in live).
    pub t_ns: u64,
    /// Worker shard the transition applies to.
    pub worker: u32,
    /// State before.
    pub from: WorkerState,
    /// State after.
    pub to: WorkerState,
    /// Why.
    pub reason: TransitionReason,
    /// The shard's progress counter at the transition.
    pub progress: u64,
    /// The shard's RX backlog at the transition.
    pub backlog: u64,
    /// RSS buckets moved by this transition (re-steer on Dead, restore on
    /// recovery; zero otherwise).
    pub buckets_moved: u32,
}

impl SupervisionEvent {
    fn to_json_line(self) -> String {
        format!(
            "{{\"seq\":{},\"t_ns\":{},\"worker\":{},\"from\":\"{}\",\"to\":\"{}\",\
             \"reason\":\"{}\",\"progress\":{},\"backlog\":{},\"buckets_moved\":{}}}",
            self.seq,
            self.t_ns,
            self.worker,
            self.from.as_str(),
            self.to.as_str(),
            self.reason.as_str(),
            self.progress,
            self.backlog,
            self.buckets_moved,
        )
    }

    fn from_json(v: &Value) -> Result<SupervisionEvent, String> {
        Ok(SupervisionEvent {
            seq: u64_field(v, "seq")?,
            t_ns: u64_field(v, "t_ns")?,
            worker: u64_field(v, "worker")? as u32,
            from: WorkerState::parse(str_field(v, "from")?)?,
            to: WorkerState::parse(str_field(v, "to")?)?,
            reason: TransitionReason::parse(str_field(v, "reason")?)?,
            progress: u64_field(v, "progress")?,
            backlog: u64_field(v, "backlog")?,
            buckets_moved: u64_field(v, "buckets_moved")? as u32,
        })
    }
}

/// The supervisor's transition log: an append-only record of every
/// quarantine / re-steer / recovery edge, replayable offline.
#[derive(Debug, Clone, Default)]
pub struct SupervisorLog {
    /// The transitions, in the order they fired.
    pub events: Vec<SupervisionEvent>,
}

/// The `schema` of a [`SupervisorLog`]'s JSONL header.
const LOG_SCHEMA: &str = "nba-supervisor-log";

impl SupervisorLog {
    /// An empty log.
    pub fn new() -> SupervisorLog {
        SupervisorLog::default()
    }

    /// Appends a transition, assigning the next sequence number.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        t_ns: u64,
        worker: u32,
        t: Transition,
        progress: u64,
        backlog: u64,
        buckets_moved: u32,
    ) {
        self.events.push(SupervisionEvent {
            seq: self.events.len() as u64,
            t_ns,
            worker,
            from: t.from,
            to: t.to,
            reason: t.reason,
            progress,
            backlog,
            buckets_moved,
        });
    }

    /// Bit-exact equality (all-integer records, so this is plain equality).
    pub fn bit_eq(&self, other: &SupervisorLog) -> bool {
        self.events == other.events
    }

    /// Serializes to JSON lines (one event per line, header first).
    pub fn to_jsonl(&self) -> String {
        json::write_log(LOG_SCHEMA, "events", "", &self.events, |e| e.to_json_line())
    }

    /// Parses [`SupervisorLog::to_jsonl`] output.
    pub fn from_jsonl(s: &str) -> Result<SupervisorLog, String> {
        let (_, events) = json::read_log(s, LOG_SCHEMA, "events", SupervisionEvent::from_json)?;
        Ok(SupervisorLog { events })
    }

    /// Replays the log against the state machine: verifies the sequence
    /// numbers are dense, every per-worker chain starts at Healthy and is
    /// contiguous (each edge leaves from where the previous one arrived),
    /// and every edge is one the machine can produce
    /// ([`transition_is_legal`]). Returns the final state per worker.
    pub fn replay(&self) -> Result<std::collections::BTreeMap<u32, WorkerState>, String> {
        let mut states: std::collections::BTreeMap<u32, WorkerState> =
            std::collections::BTreeMap::new();
        let mut last_t = 0u64;
        for (i, e) in self.events.iter().enumerate() {
            if e.seq != i as u64 {
                return Err(format!("event {i}: seq {} is not dense", e.seq));
            }
            if e.t_ns < last_t {
                return Err(format!("event {i}: time went backwards"));
            }
            last_t = e.t_ns;
            let cur = states.entry(e.worker).or_insert(WorkerState::Healthy);
            if *cur != e.from {
                return Err(format!(
                    "event {i}: worker {} leaves `{}` but was `{}`",
                    e.worker,
                    e.from.as_str(),
                    cur.as_str()
                ));
            }
            let t = Transition {
                from: e.from,
                to: e.to,
                reason: e.reason,
            };
            if !transition_is_legal(t) {
                return Err(format!(
                    "event {i}: illegal edge {} -> {} ({})",
                    e.from.as_str(),
                    e.to.as_str(),
                    e.reason.as_str()
                ));
            }
            *cur = e.to;
        }
        Ok(states)
    }

    /// Human-readable rendering of the log.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!(
                "[{:>10} ns] worker {}: {} -> {} ({}) progress={} backlog={}{}\n",
                e.t_ns,
                e.worker,
                e.from.as_str(),
                e.to.as_str(),
                e.reason.as_str(),
                e.progress,
                e.backlog,
                if e.buckets_moved > 0 {
                    format!(" buckets_moved={}", e.buckets_moved)
                } else {
                    String::new()
                }
            ));
        }
        out
    }
}

/// Load-shedding policy an IO thread applies when overloaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Drop every packet that would land on an over-threshold ring.
    #[default]
    DropTail,
    /// Drop best-effort traffic classes first; the highest class is only
    /// shed at full pressure.
    Priority,
    /// RED-style early drop: probability ramps from 0 at the threshold to
    /// 1 at a full ring (seeded, deterministic draw stream).
    Probabilistic,
}

impl ShedPolicy {
    /// Stable wire/metric name.
    pub fn as_str(self) -> &'static str {
        match self {
            ShedPolicy::DropTail => "drop_tail",
            ShedPolicy::Priority => "priority",
            ShedPolicy::Probabilistic => "probabilistic",
        }
    }

    /// Inverse of [`ShedPolicy::as_str`].
    pub fn parse(s: &str) -> Result<ShedPolicy, String> {
        match s {
            "drop_tail" | "drop-tail" | "tail" => Ok(ShedPolicy::DropTail),
            "priority" | "prio" => Ok(ShedPolicy::Priority),
            "probabilistic" | "red" => Ok(ShedPolicy::Probabilistic),
            other => Err(format!("unknown shed policy `{other}`")),
        }
    }
}

/// Overload-shedding knobs (live runtime; off by default so clean runs
/// stay lossless and bit-identical to DES).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedConfig {
    /// The policy applied when shedding is triggered.
    pub policy: ShedPolicy,
    /// Ring-occupancy fraction that triggers shedding. `1.0` disables the
    /// occupancy trigger (a full ring then follows the configured
    /// drop/backpressure semantics as before).
    pub occupancy: f64,
    /// Also shed while the SLO burn-rate exceeds 1 (requires an SLO on the
    /// run config).
    pub slo_coupled: bool,
}

impl Default for ShedConfig {
    fn default() -> Self {
        ShedConfig {
            policy: ShedPolicy::DropTail,
            occupancy: 1.0,
            slo_coupled: false,
        }
    }
}

impl ShedConfig {
    /// True when any trigger is armed.
    pub fn enabled(&self) -> bool {
        self.occupancy < 1.0 || self.slo_coupled
    }

    /// Parses `policy=priority,occupancy=0.85,slo=on`. Unknown keys are
    /// errors.
    pub fn parse(s: &str) -> Result<ShedConfig, String> {
        let mut cfg = ShedConfig::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("shed config: expected key=value, got `{part}`"))?;
            match key.trim() {
                "policy" => cfg.policy = ShedPolicy::parse(val.trim())?,
                "occupancy" => {
                    let v: f64 = val
                        .trim()
                        .parse()
                        .map_err(|e| format!("shed config: bad occupancy: {e}"))?;
                    if !(0.0..=1.0).contains(&v) {
                        return Err(format!("shed config: occupancy must be in [0, 1], got {v}"));
                    }
                    cfg.occupancy = v;
                }
                "slo" => {
                    cfg.slo_coupled = match val.trim() {
                        "on" | "true" | "1" => true,
                        "off" | "false" | "0" => false,
                        other => {
                            return Err(format!("shed config: bad slo flag `{other}`"));
                        }
                    };
                }
                other => return Err(format!("shed config: unknown key `{other}`")),
            }
        }
        Ok(cfg)
    }

    /// Canonical rendering (inverse of [`ShedConfig::parse`]).
    pub fn render(&self) -> String {
        format!(
            "policy={},occupancy={},slo={}",
            self.policy.as_str(),
            self.occupancy,
            if self.slo_coupled { "on" } else { "off" }
        )
    }
}

/// The traffic class of a flow, derived from bits of its RSS hash the
/// indirection table does not consume — a stable per-flow annotation with
/// no frame-byte dependence. Class 0 is the highest priority; classes 2–3
/// are best-effort and shed first under the priority policy.
pub fn traffic_class(rss_hash: u32) -> u8 {
    ((rss_hash >> 8) & 0x3) as u8
}

/// Per-IO-thread shedding decision engine. Deterministic: the probabilistic
/// policy draws from a seeded splitmix64 stream, so a drill replays
/// identically.
#[derive(Debug, Clone)]
pub struct Shedder {
    cfg: ShedConfig,
    rng: u64,
}

impl Shedder {
    /// A shedder for one IO thread.
    pub fn new(cfg: ShedConfig, seed: u64) -> Shedder {
        Shedder { cfg, rng: seed }
    }

    /// True when shedding can ever fire.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// The configured policy.
    pub fn policy(&self) -> ShedPolicy {
        self.cfg.policy
    }

    fn next_unit(&mut self) -> f64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Decides the fate of one packet about to be steered onto a ring with
    /// `occupancy` of `capacity` slots filled. `slo_overload` is the
    /// sampler's burn-rate flag. Returns `true` to shed (drop before
    /// enqueue).
    pub fn should_shed(
        &mut self,
        occupancy: usize,
        capacity: usize,
        tclass: u8,
        slo_overload: bool,
    ) -> bool {
        // Pressure in [0, 1]: 0 below the occupancy threshold, ramping to 1
        // at a full ring; an SLO burn pushes pressure to 1 outright.
        let mut pressure = 0.0f64;
        if self.cfg.occupancy < 1.0 && capacity > 0 {
            let frac = occupancy as f64 / capacity as f64;
            if frac >= self.cfg.occupancy {
                pressure = ((frac - self.cfg.occupancy) / (1.0 - self.cfg.occupancy)).min(1.0);
                // Crossing the threshold at all is pressure, even at the
                // boundary (frac == threshold).
                pressure = pressure.max(f64::EPSILON);
            }
        }
        if self.cfg.slo_coupled && slo_overload {
            pressure = 1.0;
        }
        if pressure <= 0.0 {
            return false;
        }
        match self.cfg.policy {
            ShedPolicy::DropTail => true,
            // Best-effort classes (2, 3) shed as soon as there is pressure;
            // class 1 only at full pressure; class 0 never (it rides the
            // ring until genuinely full).
            ShedPolicy::Priority => tclass >= 2 || (tclass == 1 && pressure >= 1.0),
            ShedPolicy::Probabilistic => self.next_unit() < pressure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(progress: u64, alive: bool, backlog: u64) -> Observation {
        Observation {
            progress,
            alive,
            backlog,
        }
    }

    #[test]
    fn monitor_walks_healthy_suspect_dead_on_stall() {
        let mut m = ShardMonitor::new(3);
        assert_eq!(m.observe(obs(10, true, 0)), None, "first sighting");
        assert_eq!(m.observe(obs(20, true, 5)), None, "progress");
        let t = m.observe(obs(20, true, 5)).expect("first stalled window");
        assert_eq!((t.from, t.to), (WorkerState::Healthy, WorkerState::Suspect));
        assert_eq!(t.reason, TransitionReason::Stall);
        assert_eq!(m.observe(obs(20, true, 5)), None, "second window: waiting");
        let t = m.observe(obs(20, true, 5)).expect("third window: dead");
        assert_eq!((t.from, t.to), (WorkerState::Suspect, WorkerState::Dead));
        assert!(transition_is_legal(t));
        // A dead shard that moves again is Recovering, then Healthy.
        let t = m.observe(obs(25, true, 5)).expect("resumed");
        assert_eq!((t.from, t.to), (WorkerState::Dead, WorkerState::Recovering));
        assert_eq!(t.reason, TransitionReason::Resumed);
        let t = m.observe(obs(30, true, 2)).expect("recovered");
        assert_eq!(
            (t.from, t.to),
            (WorkerState::Recovering, WorkerState::Healthy)
        );
    }

    #[test]
    fn default_budget_suspects_after_a_fifth_of_its_windows() {
        let fresh = || ShardMonitor::new(SupervisorConfig::default().stall_windows);
        let mut m = fresh();
        m.observe(obs(7, true, 3)); // The baseline.
        let edges: Vec<_> = (1..=50)
            .filter_map(|window| Some((window, m.observe(obs(7, true, 3))?.to)))
            .collect();
        assert_eq!(edges, [(10, WorkerState::Suspect), (50, WorkerState::Dead)]);
        // A crash is convicted on the next observation, suspected or not.
        for stalled in [0, 10] {
            let mut m = fresh();
            for _ in 0..=stalled {
                m.observe(obs(7, true, 3));
            }
            let t = m.observe(obs(7, false, 3)).expect("crash");
            assert_eq!(
                (t.to, t.reason),
                (WorkerState::Dead, TransitionReason::Crash)
            );
        }
    }

    #[test]
    fn monitor_idle_without_backlog_is_not_a_stall() {
        let mut m = ShardMonitor::new(2);
        m.observe(obs(5, true, 0));
        for _ in 0..10 {
            assert_eq!(m.observe(obs(5, true, 0)), None);
        }
        assert_eq!(m.state(), WorkerState::Healthy);
    }

    #[test]
    fn monitor_suspect_recovers_on_progress() {
        let mut m = ShardMonitor::new(4);
        m.observe(obs(1, true, 1));
        m.observe(obs(1, true, 1)); // Suspect.
        assert_eq!(m.state(), WorkerState::Suspect);
        let t = m.observe(obs(2, true, 1)).expect("progress recovers");
        assert_eq!((t.from, t.to), (WorkerState::Suspect, WorkerState::Healthy));
        assert_eq!(t.reason, TransitionReason::Progress);
    }

    #[test]
    fn monitor_crash_is_immediate_from_any_live_state() {
        let mut m = ShardMonitor::new(4);
        m.observe(obs(1, true, 1));
        let t = m.observe(obs(1, false, 3)).expect("crash");
        assert_eq!((t.from, t.to), (WorkerState::Healthy, WorkerState::Dead));
        assert_eq!(t.reason, TransitionReason::Crash);
        assert!(transition_is_legal(t));
        // Respawn path: external force to Recovering, then progress.
        let t = m
            .force(WorkerState::Recovering, TransitionReason::Respawn)
            .expect("respawn");
        assert!(transition_is_legal(t));
        let t = m.observe(obs(9, true, 0)).expect("replacement progressed");
        assert_eq!(t.to, WorkerState::Healthy);
    }

    #[test]
    fn log_round_trips_and_replays() {
        let mut m = ShardMonitor::new(2);
        let mut log = SupervisorLog::new();
        m.observe(obs(4, true, 2));
        let seq = [
            obs(4, true, 2),
            obs(4, true, 2),
            obs(9, true, 1),
            obs(9, false, 7),
        ];
        let mut t_ns = 0;
        for o in seq {
            t_ns += 500_000;
            if let Some(t) = m.observe(o) {
                let moved = if t.to == WorkerState::Dead { 32 } else { 0 };
                log.record(t_ns, 2, t, o.progress, o.backlog, moved);
            }
        }
        assert_eq!(log.events.len(), 4, "{}", log.explain());
        // The wire bytes are pinned: a replayable log written by an older
        // build must still read back.
        assert_eq!(
            log.to_jsonl(),
            concat!(
                r#"{"schema":"nba-supervisor-log","version":1,"events":4}"#,
                "\n",
                r#"{"seq":0,"t_ns":500000,"worker":2,"from":"healthy","to":"suspect","reason":"stall","progress":4,"backlog":2,"buckets_moved":0}"#,
                "\n",
                r#"{"seq":1,"t_ns":1000000,"worker":2,"from":"suspect","to":"dead","reason":"stall","progress":4,"backlog":2,"buckets_moved":32}"#,
                "\n",
                r#"{"seq":2,"t_ns":1500000,"worker":2,"from":"dead","to":"recovering","reason":"resumed","progress":9,"backlog":1,"buckets_moved":0}"#,
                "\n",
                r#"{"seq":3,"t_ns":2000000,"worker":2,"from":"recovering","to":"dead","reason":"crash","progress":9,"backlog":7,"buckets_moved":32}"#,
                "\n",
            )
        );
        let parsed = SupervisorLog::from_jsonl(&log.to_jsonl()).unwrap();
        assert!(parsed.bit_eq(&log));
        let finals = parsed.replay().expect("log must replay");
        assert_eq!(finals.get(&2), Some(&WorkerState::Dead));

        // Tampering breaks replay: claim the worker left a state it was
        // never in.
        let mut bad = log.clone();
        bad.events[2].from = WorkerState::Recovering;
        assert!(bad.replay().is_err());
        // An illegal edge breaks replay even when the chain lines up.
        let mut bad = log.clone();
        bad.events[0].to = WorkerState::Recovering;
        bad.events[1].from = WorkerState::Recovering;
        assert!(bad.replay().is_err());
    }

    #[test]
    fn shed_config_parses_and_renders() {
        let cfg = ShedConfig::parse("policy=priority,occupancy=0.8,slo=on").unwrap();
        assert_eq!(cfg.policy, ShedPolicy::Priority);
        assert_eq!(cfg.occupancy, 0.8);
        assert!(cfg.slo_coupled);
        assert!(cfg.enabled());
        assert_eq!(ShedConfig::parse(&cfg.render()).unwrap(), cfg);
        assert!(!ShedConfig::default().enabled());
        assert!(ShedConfig::parse("occupancy=1.5").is_err());
        assert!(ShedConfig::parse("policy=yolo").is_err());
        assert!(ShedConfig::parse("burn=1").is_err());
    }

    #[test]
    fn shedder_policies_behave() {
        // Disabled config never sheds, even on a full ring.
        let mut s = Shedder::new(ShedConfig::default(), 1);
        assert!(!s.should_shed(4096, 4096, 3, true));

        let over = ShedConfig {
            occupancy: 0.5,
            ..ShedConfig::default()
        };
        // Drop-tail sheds everything past the threshold, nothing below.
        let mut s = Shedder::new(over, 1);
        assert!(!s.should_shed(100, 4096, 0, false));
        assert!(s.should_shed(2048, 4096, 0, false));

        // Priority protects class 0/1, sheds 2/3, until full pressure.
        let mut s = Shedder::new(
            ShedConfig {
                policy: ShedPolicy::Priority,
                ..over
            },
            1,
        );
        assert!(!s.should_shed(2100, 4096, 0, false));
        assert!(!s.should_shed(2100, 4096, 1, false));
        assert!(s.should_shed(2100, 4096, 2, false));
        assert!(s.should_shed(2100, 4096, 3, false));
        assert!(s.should_shed(4096, 4096, 1, false), "class 1 at full ring");
        assert!(!s.should_shed(4096, 4096, 0, false), "class 0 never early");

        // Probabilistic ramps: near the threshold almost nothing, near
        // full almost everything, and the draw stream is deterministic.
        let rate = |occ: usize, seed: u64| {
            let mut s = Shedder::new(
                ShedConfig {
                    policy: ShedPolicy::Probabilistic,
                    ..over
                },
                seed,
            );
            (0..1000)
                .filter(|_| s.should_shed(occ, 4096, 0, false))
                .count()
        };
        assert!(rate(2200, 7) < 200, "low pressure sheds rarely");
        assert!(rate(4000, 7) > 800, "high pressure sheds mostly");
        assert_eq!(rate(3000, 7), rate(3000, 7), "seeded = reproducible");

        // SLO coupling pushes pressure to 1 regardless of occupancy.
        let mut s = Shedder::new(
            ShedConfig {
                slo_coupled: true,
                ..ShedConfig::default()
            },
            1,
        );
        assert!(!s.should_shed(0, 4096, 3, false));
        assert!(s.should_shed(0, 4096, 3, true));
    }

    #[test]
    fn traffic_class_is_stable_and_bounded() {
        for h in [0u32, 1, 0xdead_beef, u32::MAX] {
            assert!(traffic_class(h) < 4);
            assert_eq!(traffic_class(h), traffic_class(h));
        }
        // Classes actually spread over flows.
        let classes: std::collections::BTreeSet<u8> = (0..64u32)
            .map(|i| traffic_class(i.wrapping_mul(0x9e37_79b9)))
            .collect();
        assert!(classes.len() > 1);
    }

    #[test]
    fn detection_budget_covers_stall_windows() {
        let cfg = SupervisorConfig::default();
        assert!(cfg.detection_budget() >= Time::from_us(2500));
        // A stall must outlast several scheduler quanta; a crash is seen
        // within one tick.
        let stall_ns = cfg.check_interval.as_ns() * u64::from(cfg.stall_windows);
        assert!(stall_ns >= Time::from_ms(50).as_ns());
        assert!(cfg.check_interval <= Time::from_ms(1));
    }
}
