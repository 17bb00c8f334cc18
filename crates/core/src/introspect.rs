//! The live introspection plane: a per-shard flight recorder and an
//! in-flight stats endpoint.
//!
//! Both pieces are observation-only — they never touch a packet, a batch,
//! or a balancer decision, so enabling them cannot change what a run
//! produces (the determinism suites assert this).
//!
//! * [`FlightRecorder`] — one bounded event ring per worker shard, always
//!   on. The shard's graph, its worker core and the device thread record
//!   each event of the shard's batches once, into that ring. With tracing
//!   on the rings take every event and are the run's trace; off, they keep
//!   the last [`FLIGHT_EVENTS`] of a sampled tail: one RX event in
//!   [`FLIGHT_SAMPLE_EVERY`] plus the whole offload lifecycle. On a
//!   containment event — device quarantine, a contained worker panic, a
//!   dead ring, a worker convicted Dead for a stall — the rings are copied
//!   into a [`FlightDump`] post-mortem artifact (and optionally a JSON
//!   file) beside the shard gauges read at that moment, so the events
//!   *leading up to* the failure survive it.
//! * [`StatsServer`] — a dependency-free TCP server (std only) serving
//!   `GET /status` (a JSON status document) and `GET /metrics`
//!   (Prometheus text) from a live run, poll-able mid-run.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use nba_io::spsc::RingGauges;
use nba_sim::Time;

use crate::fault::{FaultSnapshot, FaultStats};
use crate::lb::SharedBalancer;
use crate::stats::{LatencyHistogram, SystemInspector};
use crate::supervise::{HealthStats, WorkerHealth, WorkerState};
use crate::telemetry::{self, TraceBuffer, TraceEvent};
use crate::telemetry::{
    json_escape, json_f64, merge_histograms, trace_event_json, ShardSample, TimeSample,
};

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

/// Events each shard's ring keeps while tracing is off (tracing on, it
/// keeps [`crate::telemetry::TelemetryConfig::trace_capacity`]).
pub const FLIGHT_EVENTS: usize = 256;

/// With tracing off, a worker records one RX event in this many. Offload
/// lifecycle events are always recorded: they are rare, and they are what
/// post-mortems need.
pub const FLIGHT_SAMPLE_EVERY: u64 = 64;

/// Dumps one run takes at most: a flapping device must not fill a disk.
pub const MAX_DUMPS: u64 = 8;

/// Where a run's flight dumps go.
#[derive(Debug, Clone, Default)]
pub struct FlightConfig {
    /// Directory for dump JSON artifacts (`None` keeps dumps in-memory
    /// only, still surfaced on the run report).
    pub dir: Option<PathBuf>,
}

/// One shard's ring, alone on its cache lines (128 bytes covers the
/// adjacent-line prefetch): while tracing, workers record into neighbouring
/// shards at full rate, and a shared line would bounce between their cores.
#[repr(align(128))]
struct ShardRing(Mutex<TraceBuffer>);

/// The per-shard flight recorder: one bounded [`TraceBuffer`] per worker
/// shard. Cheap enough to stay on for every run: recording is one
/// uncontended mutex lock and a ring push.
pub struct FlightRecorder {
    dir: Option<PathBuf>,
    shards: Vec<ShardRing>,
    /// The live run's shard gauges, read at dump time (`None` in the DES,
    /// which has no rings to read: its dumps carry zero gauges).
    gauges: Option<ShardGauges>,
    dumps: Mutex<Vec<FlightDump>>,
    quarantined: AtomicBool,
    dump_seq: AtomicU64,
}

impl FlightRecorder {
    /// A recorder with one ring per worker, each `trace_capacity` events
    /// long while tracing (`trace_capacity > 0`) and [`FLIGHT_EVENTS`]
    /// otherwise.
    pub fn new(
        workers: usize,
        trace_capacity: usize,
        cfg: FlightConfig,
        gauges: Option<ShardGauges>,
    ) -> FlightRecorder {
        let capacity = if trace_capacity > 0 {
            trace_capacity
        } else {
            FLIGHT_EVENTS
        };
        FlightRecorder {
            dir: cfg.dir,
            shards: (0..workers.max(1))
                .map(|_| ShardRing(Mutex::new(TraceBuffer::new(capacity))))
                .collect(),
            gauges,
            dumps: Mutex::new(Vec::new()),
            quarantined: AtomicBool::new(false),
            dump_seq: AtomicU64::new(0),
        }
    }

    /// Records `ev` into the ring of the shard whose batch it follows,
    /// `ev.worker` (the worker that owned or shipped the batch).
    pub fn record(&self, ev: TraceEvent) {
        if let Some(ring) = self.shards.get(ev.worker as usize) {
            ring.0.lock().push(ev);
        }
    }

    /// Every shard's retained events, shard by shard, each shard's oldest
    /// first: the run's trace when tracing was on.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.shards
            .iter()
            .flat_map(|s| s.0.lock().events())
            .collect()
    }

    /// Tracks the device circuit-breaker state for dumps and `/status`.
    pub fn set_quarantined(&self, quarantined: bool) {
        self.quarantined.store(quarantined, Ordering::Relaxed);
    }

    /// Whether the device is currently quarantined.
    pub fn quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Copies every shard's ring, beside the shard gauges read now, into a
    /// post-mortem dump. Returns `false` once the run has taken
    /// [`MAX_DUMPS`] (the trigger still counted for the caller; we just
    /// refuse to grow without bound).
    pub fn dump(
        &self,
        reason: &str,
        trigger_worker: Option<u32>,
        trigger_span: u64,
        t: Time,
        faults: FaultSnapshot,
    ) -> bool {
        let seq = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        if seq >= MAX_DUMPS {
            return false;
        }
        let gauges = self.gauges.as_ref();
        let samples = gauges.map_or_else(Vec::new, ShardGauges::snapshot);
        let shards: Vec<FlightShardDump> = (self.shards.iter().enumerate())
            .map(|(i, ring)| {
                let g = samples.get(i).cloned().unwrap_or_default();
                let ring = ring.0.lock();
                FlightShardDump {
                    shard: i as u32,
                    seen: ring.len() as u64 + ring.overwritten(),
                    overwritten: ring.overwritten(),
                    ring_occupancy: g.ring_occupancy,
                    ring_high_water: g.ring_high_water,
                    enqueue_failed: g.enqueue_failed,
                    w: g.w,
                    outstanding: gauges.map_or(0, |g| g.outstanding[i].load(Ordering::Relaxed)),
                    recent: ring.events(),
                }
            })
            .collect();
        let dump = FlightDump {
            reason: reason.to_string(),
            t,
            trigger_worker,
            trigger_span,
            quarantined: self.quarantined(),
            faults,
            shards,
        };
        if let Some(dir) = &self.dir {
            let path = dir.join(format!("flight-{seq:03}-{reason}.json"));
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, dump.to_json()))
            {
                eprintln!("nba-flight: failed to write {}: {e}", path.display());
            }
        }
        self.dumps.lock().push(dump);
        true
    }

    /// All dumps taken so far (cloned; the run report keeps its own copy).
    pub fn dumps(&self) -> Vec<FlightDump> {
        self.dumps.lock().clone()
    }
}

/// One shard's state inside a [`FlightDump`].
#[derive(Debug, Clone)]
pub struct FlightShardDump {
    /// Worker (shard) index.
    pub shard: u32,
    /// Events offered to this shard's ring over the run.
    pub seen: u64,
    /// Events lost to the bounded ring before this dump.
    pub overwritten: u64,
    /// RX-ring occupancy at the dump (packets queued; 0 in the DES).
    pub ring_occupancy: u64,
    /// RX-ring high-water mark at the dump.
    pub ring_high_water: u64,
    /// Enqueue failures (ring-full drops) at the dump.
    pub enqueue_failed: u64,
    /// The shard balancer's offload fraction at the dump.
    pub w: f64,
    /// In-flight offloads at the dump.
    pub outstanding: u64,
    /// The retained span events, oldest first.
    pub recent: Vec<TraceEvent>,
}

/// A post-mortem snapshot of the whole flight recorder at a containment
/// event.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// What triggered the dump: `"quarantine"`, `"worker_panic"`,
    /// `"ring_disconnect_shard{w}"`, `"stall_shard{w}"` or
    /// `"cost_drift_{stage}"`.
    pub reason: String,
    /// Elapsed run time at the trigger.
    pub t: Time,
    /// Worker the triggering batch belonged to, when known.
    pub trigger_worker: Option<u32>,
    /// Span id of the triggering batch's current stage (0 when tracing is
    /// off or the trigger has no associated batch).
    pub trigger_span: u64,
    /// Device circuit-breaker state at the trigger.
    pub quarantined: bool,
    /// Fault counters at the trigger.
    pub faults: FaultSnapshot,
    /// Every worker shard's retained events and gauges.
    pub shards: Vec<FlightShardDump>,
}

impl FlightDump {
    /// Renders the dump as a standalone JSON document (dependency-free,
    /// like every exporter in the workspace).
    pub fn to_json(&self) -> String {
        let trigger_worker = match self.trigger_worker {
            Some(w) => w.to_string(),
            None => "null".to_string(),
        };
        let shards: Vec<String> = self
            .shards
            .iter()
            .map(|s| {
                let recent: Vec<String> = s.recent.iter().map(trace_event_json).collect();
                format!(
                    "{{\"shard\":{},\"seen\":{},\"overwritten\":{},\"ring_occupancy\":{},\
                     \"ring_high_water\":{},\"enqueue_failed\":{},\"w\":{},\"outstanding\":{},\
                     \"recent\":[{}]}}",
                    s.shard,
                    s.seen,
                    s.overwritten,
                    s.ring_occupancy,
                    s.ring_high_water,
                    s.enqueue_failed,
                    json_f64(s.w),
                    s.outstanding,
                    recent.join(",")
                )
            })
            .collect();
        format!(
            "{{\"reason\":\"{}\",\"t_ns\":{},\"trigger_worker\":{},\"trigger_span\":{},\
             \"quarantined\":{},\"faults\":{},\"shards\":[{}]}}",
            json_escape(&self.reason),
            self.t.as_ns(),
            trigger_worker,
            self.trigger_span,
            self.quarantined,
            self.faults.to_json(),
            shards.join(",")
        )
    }
}

// ---------------------------------------------------------------------------
// In-flight stats endpoint.
// ---------------------------------------------------------------------------

/// Sums RX-ring gauges into `(occupancy, high water, enqueue failures)`,
/// reading each ring once.
pub(crate) fn ring_totals<G: Deref<Target = RingGauges>>(
    rings: impl IntoIterator<Item = G>,
) -> (u64, u64, u64) {
    rings.into_iter().fold((0, 0, 0), |(occ, hw, failed), g| {
        (
            occ + g.occupancy() as u64,
            hw + g.high_water() as u64,
            failed + g.enqueue_failed(),
        )
    })
}

/// The per-shard gauges of a live run, read by the housekeeping loop (its
/// sampler and supervisor tick), flight dumps, `/status`, `/metrics` and
/// the teardown ledger.
#[derive(Clone)]
pub struct ShardGauges {
    /// RX-ring gauges, `[worker][io_thread]`. Each slot is swappable: the
    /// supervisor replaces a gauge when it respawns a crashed worker with a
    /// fresh ring, so observers read the rings actually in service.
    pub rings: Arc<Vec<Vec<Mutex<RingGauges>>>>,
    /// Packets shed toward each worker by the IO overload policy.
    pub shed: Arc<Vec<AtomicU64>>,
    /// Offloaded batches each worker has in flight, stored by the worker
    /// whenever the count changes.
    pub outstanding: Arc<Vec<AtomicU64>>,
    /// Per-worker balancer handles (`w`, balancer self-description).
    pub balancers: Vec<SharedBalancer>,
}

impl ShardGauges {
    /// Packets queued in shard `w`'s RX rings.
    pub fn occupancy(&self, w: usize) -> u64 {
        ring_totals(self.rings[w].iter().map(|g| g.lock())).0
    }

    /// Every shard's gauges: one lock pass per ring, one balancer lock per
    /// shard.
    pub fn snapshot(&self) -> Vec<ShardSample> {
        self.rings
            .iter()
            .enumerate()
            .map(|(w, rings)| {
                let (ring_occupancy, ring_high_water, enqueue_failed) =
                    ring_totals(rings.iter().map(|g| g.lock()));
                ShardSample {
                    shard: w as u32,
                    ring_occupancy,
                    ring_high_water,
                    enqueue_failed,
                    shed: self.shed[w].load(Ordering::Relaxed),
                    w: self.balancers[w].lock().offload_fraction(),
                }
            })
            .collect()
    }
}

/// Everything the stats endpoint reads. All handles are shared with the
/// live runtime's threads; every read is a snapshot, never a lock held
/// across packet processing.
pub struct StatsState {
    /// Run epoch (elapsed time base).
    pub started: Instant,
    /// Merged + per-worker counters.
    pub inspector: SystemInspector,
    /// Shared fault accounting.
    pub fstats: Arc<FaultStats>,
    /// The flight recorder (quarantine flag, dump count).
    pub flight: Arc<FlightRecorder>,
    /// Per-shard ring gauges, shed counters and balancers.
    pub shards: ShardGauges,
    /// Ring-full drop counters, per worker.
    pub rx_drops: Arc<Vec<AtomicU64>>,
    /// The sampler's windows so far (the `w` trajectory).
    pub samples: Arc<Mutex<Vec<TimeSample>>>,
    /// Per-worker latency-histogram shards, merged per request.
    pub latency: Arc<Vec<Mutex<LatencyHistogram>>>,
    /// Cost-model drift gauges published by the device thread (all-zero
    /// when drift detection is off).
    pub drift: Arc<crate::audit::DriftGauge>,
    /// Per-worker supervisor health slots (live observed state).
    pub health: Arc<Vec<WorkerHealth>>,
    /// The shared self-healing ledger: sheds, strandings, re-steers,
    /// respawns. All atomics, sampled per request.
    pub hstats: Arc<HealthStats>,
    /// The stateful flow plane's registry; its report is `None` (and no
    /// flow metrics are emitted) unless a stateful element registered a
    /// shard.
    pub flows: crate::flow::FlowRegistry,
}

impl StatsState {
    /// The `/status` JSON document.
    pub fn status_json(&self) -> String {
        let elapsed = self.started.elapsed().as_secs_f64();
        let totals = self.inspector.snapshot();
        let shards: Vec<String> = self
            .shards
            .snapshot()
            .iter()
            .map(|s| {
                let w = s.shard as usize;
                let dropped = self
                    .rx_drops
                    .get(w)
                    .map_or(0, |d| d.load(Ordering::Relaxed));
                let state = self
                    .health
                    .get(w)
                    .map_or("healthy", |slot| slot.observed_state().as_str());
                format!(
                    "{{\"shard\":{w},\"state\":\"{state}\",\"ring_occupancy\":{},\
                     \"ring_high_water\":{},\"enqueue_failed\":{},\
                     \"rx_dropped\":{dropped},\"w\":{},\"balancer\":{}}}",
                    s.ring_occupancy,
                    s.ring_high_water,
                    s.enqueue_failed,
                    json_f64(s.w),
                    self.shards.balancers[w].lock().status_json()
                )
            })
            .collect();
        let merged = merge_histograms(
            self.latency
                .iter()
                .map(|m| m.lock().clone())
                .collect::<Vec<_>>(),
        );
        let latency = format!(
            "{{\"count\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
            merged.count(),
            merged.percentile_ns(50.0),
            merged.percentile_ns(90.0),
            merged.percentile_ns(99.0),
            merged.max_ns()
        );
        let trajectory: Vec<String> = self
            .samples
            .lock()
            .iter()
            .map(|s| json_f64(s.offload_fraction))
            .collect();
        // SLO burn from the latest sampler window; null when no SLO is
        // configured (or before the first sample).
        let slo = telemetry::slo_json(self.samples.lock().last().and_then(|s| s.slo));
        let (drift_events, drift_rel, drift_stage) = self.drift.snapshot();
        let drift = format!(
            "{{\"events\":{drift_events},\"rel_err\":{},\"worst_stage\":{}}}",
            json_f64(drift_rel),
            drift_stage.map_or("null".to_string(), |s| format!("\"{}\"", s.as_str()))
        );
        format!(
            "{{\"elapsed_s\":{},\"totals\":{},\"quarantined\":{},\"flight_dumps\":{},\
             \"faults\":{},\"shards\":[{}],\"latency\":{},\"w_trajectory\":[{}],\
             \"slo\":{slo},\"drift\":{drift}}}",
            json_f64(elapsed),
            totals.to_json(),
            self.flight.quarantined(),
            self.flight.dumps().len(),
            self.fstats.snapshot().to_json(),
            shards.join(","),
            latency,
            trajectory.join(",")
        )
    }

    /// The `/metrics` Prometheus text document: the live-only families,
    /// then the sections the post-run export shares, each rendered by the
    /// one writer in [`crate::telemetry`] that owns it.
    pub fn prometheus(&self) -> String {
        let totals = self.inspector.snapshot();
        let rx_dropped = self
            .rx_drops
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .sum();
        let states: Vec<WorkerState> = self
            .health
            .iter()
            .map(WorkerHealth::observed_state)
            .collect();
        let slo = self.samples.lock().last().and_then(|s| s.slo);
        let (drift_events, drift_rel, _) = self.drift.snapshot();
        let mut out = String::new();
        let o = &mut out;
        telemetry::prom_live(o, totals.offloaded_batches, self.flight.quarantined(), slo);
        telemetry::prom_packets(o, totals.tx_packets, rx_dropped, totals.dropped);
        telemetry::prom_shards(o, &self.shards.snapshot());
        telemetry::prom_health(o, &states, &self.hstats.snapshot());
        if let Some(fl) = self.flows.report() {
            telemetry::prom_flows(o, &fl);
        }
        telemetry::prom_faults(o, &self.fstats.snapshot());
        telemetry::prom_drift(o, drift_events, drift_rel);
        if let Some(s) = slo {
            telemetry::prom_slo_burn(o, s.latency_burn, s.throughput_burn);
        }
        out
    }
}

/// The stats endpoint: binds on [`StatsServer::start`], serves on its own
/// thread until dropped. With port 0 the OS picks; read the real address
/// back with [`StatsServer::bound_addr`].
pub struct StatsServer {
    bound: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl StatsServer {
    /// Binds `addr` and starts serving `state` in a background thread.
    pub fn start(addr: &str, state: StatsState) -> std::io::Result<StatsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = stop.clone();
        let join = std::thread::Builder::new()
            .name("nba-stats".into())
            .spawn(move || serve(&listener, &state, &thread_stop))?;
        Ok(StatsServer {
            bound,
            stop,
            join: Some(join),
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn bound_addr(&self) -> SocketAddr {
        self.bound
    }
}

impl Drop for StatsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

fn serve(listener: &TcpListener, state: &StatsState, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = handle(stream, state);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle(mut stream: TcpStream, state: &StatsState) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    let mut req = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        req.extend_from_slice(&buf[..n]);
        if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() > 8192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&req);
    let path = head.split_whitespace().nth(1).unwrap_or("/");
    let (status, ctype, body) = match path {
        "/status" => ("200 OK", "application/json", state.status_json()),
        "/metrics" => ("200 OK", "text/plain; version=0.0.4", state.prometheus()),
        "/" => (
            "200 OK",
            "text/plain",
            "nba live stats: GET /status (JSON) or /metrics (Prometheus)\n".to_string(),
        ),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lb::{self, FixedFraction};
    use crate::stats::Counters;
    use crate::telemetry::TraceEventKind;

    fn ev(span: u64) -> TraceEvent {
        TraceEvent {
            t: Time::from_us(span),
            worker: 0,
            batch: 1,
            node: None,
            kind: TraceEventKind::Rx,
            packets: 1,
            dur: Time::ZERO,
            span,
            parent: 0,
        }
    }

    #[test]
    fn flight_ring_is_bounded_and_counts_overwrites() {
        let fr = FlightRecorder::new(1, 0, FlightConfig::default(), None);
        let extra = 3;
        let total = FLIGHT_EVENTS as u64 + extra;
        for s in 1..=total {
            fr.record(ev(s));
        }
        assert!(fr.dump(
            "quarantine",
            Some(0),
            total,
            Time::from_ms(1),
            FaultSnapshot::default()
        ));
        let dumps = fr.dumps();
        assert_eq!(dumps.len(), 1);
        let d = &dumps[0];
        assert_eq!(d.reason, "quarantine");
        assert_eq!(d.trigger_span, total);
        let s = &d.shards[0];
        assert_eq!(s.seen, total);
        assert_eq!(s.overwritten, extra);
        let spans: Vec<u64> = s.recent.iter().map(|e| e.span).collect();
        assert_eq!(spans, (extra + 1..=total).collect::<Vec<_>>());
        // No gauges to read (the DES): the dump carries zeros.
        assert_eq!((s.ring_occupancy, s.outstanding, s.w), (0, 0, 0.0));
        let json = d.to_json();
        assert!(json.contains("\"reason\":\"quarantine\""));
        assert!(json.contains(&format!("\"trigger_span\":{total}")));
        assert!(json.contains("\"kind\":\"rx\""));
    }

    #[test]
    fn dump_count_is_capped() {
        let fr = FlightRecorder::new(2, 0, FlightConfig::default(), None);
        for _ in 0..MAX_DUMPS {
            assert!(fr.dump("a", None, 0, Time::ZERO, FaultSnapshot::default()));
        }
        assert!(!fr.dump("b", None, 0, Time::ZERO, FaultSnapshot::default()));
        assert_eq!(fr.dumps().len() as u64, MAX_DUMPS);
    }

    /// A dump's gauges are the ones `/status` reads at that moment: nobody
    /// publishes them into the recorder.
    #[test]
    fn dump_reads_the_shard_gauges_of_the_moment() {
        let (state, tx) = test_state();
        let fr = FlightRecorder::new(1, 0, FlightConfig::default(), Some(state.shards.clone()));
        let read = |fr: &FlightRecorder| {
            assert!(fr.dump("x", None, 0, Time::ZERO, FaultSnapshot::default()));
            let d = fr.dumps().pop().expect("a dump");
            let s = d.shards[0].clone();
            let g = &state.shards.snapshot()[0];
            assert_eq!(
                (s.ring_occupancy, s.ring_high_water, s.enqueue_failed, s.w),
                (g.ring_occupancy, g.ring_high_water, g.enqueue_failed, g.w)
            );
            (s.ring_occupancy, s.outstanding)
        };
        assert_eq!(read(&fr), (3, 0));
        // The ring fills further and an offload goes out: the next dump
        // sees both, with no call into the recorder in between.
        tx.push(9).unwrap();
        state.shards.outstanding[0].store(2, Ordering::Relaxed);
        assert_eq!(read(&fr), (4, 2));
    }

    #[test]
    fn dump_artifact_lands_on_disk() {
        let dir = std::env::temp_dir().join(format!(
            "nba-flight-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let fr = FlightRecorder::new(
            1,
            0,
            FlightConfig {
                dir: Some(dir.clone()),
            },
            None,
        );
        fr.record(ev(9));
        assert!(fr.dump(
            "worker_panic",
            Some(0),
            9,
            Time::from_ms(2),
            FaultSnapshot::default()
        ));
        let path = dir.join("flight-000-worker_panic.json");
        let text = std::fs::read_to_string(&path).expect("dump file written");
        let doc = crate::json::parse(&text).expect("dump file parses");
        assert_eq!(
            doc.get("reason").and_then(crate::json::Value::as_str),
            Some("worker_panic")
        );
        assert_eq!(
            doc.get("trigger_span").and_then(crate::json::Value::as_u64),
            Some(9)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn test_state() -> (StatsState, nba_io::spsc::Producer<u32>) {
        let counters = vec![Arc::new(Counters::default())];
        Counters::add(&counters[0].tx_packets, 123);
        // Three packets queued under a high-water mark of five.
        let (tx, rx) = nba_io::spsc::channel::<u32>(8);
        for i in 0..5 {
            tx.push(i).unwrap();
        }
        rx.pop();
        rx.pop();
        let flight = Arc::new(FlightRecorder::new(1, 0, FlightConfig::default(), None));
        flight.set_quarantined(true);
        let mut hist = LatencyHistogram::new();
        hist.record_ns(1_000);
        hist.record_ns(2_000);
        let samples = Arc::new(Mutex::new(vec![TimeSample {
            t: Time::from_ms(1),
            tx_packets: 123,
            tx_mpps: 0.1,
            tx_gbps: 0.2,
            dropped: 0,
            rx_dropped: 0,
            latency_ewma_ns: 500,
            offloaded_batches: 4,
            offload_fraction: 0.25,
            gpu_busy: Vec::new(),
            shards: Vec::new(),
            slo: Some(crate::audit::SloSample {
                latency_ok: true,
                throughput_ok: false,
                latency_burn: 0.0,
                throughput_burn: 2.5,
            }),
        }]));
        // A stateful element's flow shard and a device that saw faults, so
        // `/metrics` renders the flow and fault families too.
        let flows = crate::flow::FlowRegistry::new();
        let shard = flows.shard(0);
        shard.stats.inserts.store(6, Ordering::Relaxed);
        shard.stats.evict_idle.store(2, Ordering::Relaxed);
        shard.stats.live.store(4, Ordering::Relaxed);
        let fstats = Arc::new(FaultStats::default());
        FaultStats::add(&fstats.injected_transient, 3);
        FaultStats::add(&fstats.retried, 3);
        let state = StatsState {
            started: Instant::now(),
            inspector: SystemInspector::new(counters),
            fstats,
            flight,
            shards: ShardGauges {
                rings: Arc::new(vec![vec![Mutex::new(rx.gauges())]]),
                shed: Arc::new(vec![AtomicU64::new(5)]),
                outstanding: Arc::new(vec![AtomicU64::new(0)]),
                balancers: vec![lb::shared(Box::new(FixedFraction::new(0.25)))],
            },
            rx_drops: Arc::new(vec![AtomicU64::new(7)]),
            samples,
            latency: Arc::new(vec![Mutex::new(hist)]),
            drift: Arc::new(crate::audit::DriftGauge::default()),
            health: Arc::new(vec![WorkerHealth::new()]),
            hstats: Arc::new(HealthStats::default()),
            flows,
        };
        (state, tx)
    }

    /// The exact `/metrics` bytes of [`test_state`], pinned in
    /// `tests/golden/metrics_live.txt` like the post-run export's golden.
    /// Re-bless after an intentional change with `NBA_BLESS=1`.
    #[test]
    fn metrics_match_golden_file() {
        let (state, _tx) = test_state();
        let got = state.prometheus();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics_live.txt");
        if std::env::var("NBA_BLESS").is_ok() {
            std::fs::write(path, &got).expect("bless golden file");
        }
        let want = std::fs::read_to_string(path)
            .expect("golden file missing — run once with NBA_BLESS=1 to create it");
        assert_eq!(
            got, want,
            "/metrics drifted from the golden file; if the change is \
             intentional, re-bless with NBA_BLESS=1"
        );
    }

    /// `/status` and `/metrics` read each shard's rings in one pass, so a
    /// shard's gauges are one moment's: never more queued than the ring's
    /// high-water mark.
    #[test]
    fn status_and_metrics_read_one_shard_snapshot() {
        use crate::json::Value;
        let (state, _tx) = test_state();
        let doc = crate::json::parse(&state.status_json()).expect("status parses");
        let shards = doc.get("shards").and_then(Value::as_arr).unwrap();
        let field = |s: &Value, k| s.get(k).and_then(Value::as_u64).unwrap();
        let status: Vec<(u64, u64)> = shards
            .iter()
            .map(|s| (field(s, "ring_occupancy"), field(s, "ring_high_water")))
            .collect();
        let metrics = state.prometheus();
        let gauge = |name: &str| -> Vec<u64> {
            metrics
                .lines()
                .filter_map(|l| l.strip_prefix(name)?.strip_prefix("{shard="))
                .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
                .collect()
        };
        let scraped: Vec<(u64, u64)> = gauge("nba_ring_occupancy")
            .into_iter()
            .zip(gauge("nba_ring_high_water"))
            .collect();
        assert_eq!(status, vec![(3, 5)]);
        assert_eq!(scraped, status);
        assert!(status.iter().all(|(occ, hw)| hw >= occ));
    }

    #[test]
    fn status_json_reports_shards_w_and_latency() {
        let (state, _tx) = test_state();
        let doc = crate::json::parse(&state.status_json()).expect("status parses");
        assert_eq!(
            doc.get("totals")
                .and_then(|t| t.get("tx_packets"))
                .and_then(crate::json::Value::as_u64),
            Some(123)
        );
        let shards = doc
            .get("shards")
            .and_then(crate::json::Value::as_arr)
            .unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(
            shards[0]
                .get("ring_occupancy")
                .and_then(crate::json::Value::as_u64),
            Some(3)
        );
        assert_eq!(
            shards[0]
                .get("rx_dropped")
                .and_then(crate::json::Value::as_u64),
            Some(7)
        );
        assert_eq!(
            shards[0].get("state").and_then(crate::json::Value::as_str),
            Some("healthy")
        );
        assert_eq!(
            shards[0].get("w").and_then(crate::json::Value::as_f64),
            Some(0.25)
        );
        assert_eq!(
            doc.get("quarantined").and_then(crate::json::Value::as_bool),
            Some(true)
        );
        let traj = doc
            .get("w_trajectory")
            .and_then(crate::json::Value::as_arr)
            .unwrap();
        assert_eq!(traj.len(), 1);
        assert!(
            doc.get("latency")
                .and_then(|l| l.get("count"))
                .and_then(crate::json::Value::as_u64)
                == Some(2)
        );
    }

    #[test]
    fn endpoint_serves_status_and_metrics_over_tcp() {
        let (state, _tx) = test_state();
        let server = StatsServer::start("127.0.0.1:0", state).expect("bind");
        let addr = server.bound_addr();
        let fetch = |path: &str| -> String {
            let mut s = TcpStream::connect(addr).expect("connect");
            write!(s, "GET {path} HTTP/1.1\r\nHost: nba\r\n\r\n").unwrap();
            let mut body = String::new();
            s.read_to_string(&mut body).unwrap();
            body
        };
        let status = fetch("/status");
        assert!(status.starts_with("HTTP/1.1 200 OK"));
        let json = status.split("\r\n\r\n").nth(1).unwrap();
        assert!(crate::json::parse(json).is_ok());
        let metrics = fetch("/metrics");
        assert!(metrics.contains("# HELP nba_ring_occupancy"));
        assert!(metrics.contains("# TYPE nba_ring_occupancy gauge"));
        assert!(metrics.contains("nba_ring_occupancy{shard=\"0\"} 3"));
        assert!(metrics.contains("nba_quarantined 1"));
        assert!(metrics.contains("nba_cost_drift_events_total 0"));
        assert!(metrics.contains("nba_slo_throughput_burn 2.5"));
        assert!(metrics.contains("nba_slo_latency_ok 1"));
        assert!(metrics.contains("nba_worker_state{shard=\"0\",state=\"healthy\"} 0"));
        assert!(metrics.contains("nba_shed_total{shard=\"0\"} 5"));
        assert!(metrics.contains("nba_worker_respawns_total 0"));
        assert!(fetch("/nope").starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn status_json_reports_slo_and_drift() {
        let (state, _tx) = test_state();
        let doc = crate::json::parse(&state.status_json()).expect("status parses");
        let slo = doc.get("slo").expect("slo object");
        assert_eq!(
            slo.get("latency_ok").and_then(crate::json::Value::as_bool),
            Some(true)
        );
        assert_eq!(
            slo.get("throughput_burn")
                .and_then(crate::json::Value::as_f64),
            Some(2.5)
        );
        let drift = doc.get("drift").expect("drift object");
        assert_eq!(
            drift.get("events").and_then(crate::json::Value::as_u64),
            Some(0)
        );
    }

    #[test]
    fn unknown_path_gets_proper_404_with_content_length() {
        let (state, _tx) = test_state();
        let server = StatsServer::start("127.0.0.1:0", state).expect("bind");
        let mut s = TcpStream::connect(server.bound_addr()).expect("connect");
        write!(
            s,
            "GET /definitely-not-a-path HTTP/1.1\r\nHost: nba\r\n\r\n"
        )
        .unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        let (head, body) = resp.split_once("\r\n\r\n").expect("header/body split");
        assert!(head.starts_with("HTTP/1.1 404 Not Found\r\n"));
        let content_length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .trim()
            .parse()
            .expect("numeric Content-Length");
        assert_eq!(content_length, body.len());
        assert_eq!(body, "not found\n");
    }
}
