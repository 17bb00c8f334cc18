//! The live introspection plane, end to end: causal span tracing across
//! real threads, the per-shard flight recorder's post-mortem dumps, and
//! the in-flight stats endpoint — all exercised by one live(4) run under
//! a seeded fault plan — plus the zero-overhead contract: telemetry off
//! must leave a run bit-identical.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nba::apps::{pipelines, AppConfig};
use nba::core::batch::{anno, Anno, PacketBatch, PacketResult};
use nba::core::element::{
    DbInput, DbOutput, ElemCtx, Element, ElementKind, KernelIo, OffloadSpec, Postprocess,
};
use nba::core::graph::GraphBuilder;
use nba::core::introspect::FLIGHT_EVENTS;
use nba::core::json::{self, Value};
use nba::core::runtime::live::{self, LiveConfig};
use nba::core::runtime::{des, traffic_per_port, BuildCtx, PipelineBuilder, RuntimeConfig};
use nba::core::telemetry::{trace_to_chrome, TelemetryConfig, TraceEventKind};
use nba::core::{lb, FaultConfig, FaultPlan};
use nba::io::{Packet, SizeDist, TrafficConfig};
use nba::sim::{GpuProfile, Time};

const CHROME_DEVICE_TID: u64 = 10_000;
const CHROME_IO_TID_BASE: u64 = 20_000;

fn app() -> AppConfig {
    AppConfig {
        ports: 4,
        v4_routes: 1024,
        ..AppConfig::default()
    }
}

/// One raw HTTP GET against the stats endpoint, returning the body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> Option<String> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    s.write_all(format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
        .ok()?;
    let mut buf = String::new();
    s.read_to_string(&mut buf).ok()?;
    buf.split_once("\r\n\r\n").map(|(_, body)| body.to_string())
}

/// All flow events (`ph` in `s`/`t`/`f`) of a Chrome trace as
/// `(ph, id, tid)` triples.
fn flows_of(doc: &Value) -> Vec<(String, u64, u64)> {
    doc.get("traceEvents")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|e| {
            let ph = e.get("ph").and_then(Value::as_str)?;
            if !matches!(ph, "s" | "t" | "f") {
                return None;
            }
            Some((
                ph.to_string(),
                e.get("id").and_then(Value::as_u64)?,
                e.get("tid").and_then(Value::as_u64)?,
            ))
        })
        .collect()
}

/// The headline drill: a live(4) run, everything offloaded, tracing on,
/// the stats endpoint serving, and a seeded device death mid-run. One run
/// must yield (a) a Chrome trace whose offload flow arrows cross
/// IO/worker/device threads via span parent links, (b) a flight-recorder
/// dump at the quarantine trip containing the triggering span's history,
/// and (c) a successful mid-run poll of `/status` and `/metrics`.
#[test]
fn introspection_plane_end_to_end() {
    let cfg = LiveConfig {
        workers: 4,
        duration: Duration::from_millis(400),
        telemetry: TelemetryConfig {
            trace_capacity: 16_384,
            ..TelemetryConfig::default()
        },
        fault: FaultConfig {
            plan: FaultPlan {
                seed: 11,
                die_at: Some(Time::from_ms(60)),
                revive_at: Some(Time::from_ms(220)),
                ..FaultPlan::default()
            },
            quarantine: Time::from_ms(5),
            ..FaultConfig::default()
        },
        stats_addr: Some("127.0.0.1:0".to_string()),
        traffic: TrafficConfig {
            size: SizeDist::Fixed(64),
            ..TrafficConfig::default()
        },
        ..LiveConfig::default()
    };

    // Poll the endpoint from a sidecar thread while the run is live. The
    // bound address is published through `cfg.stats_bound` once the
    // listener is up (port 0 keeps the test parallel-safe).
    let bound = cfg.stats_bound.clone();
    let (tx, rx) = mpsc::channel();
    let poller = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(10);
        let addr = loop {
            if let Some(a) = *bound.lock() {
                break a;
            }
            if Instant::now() > deadline {
                let _ = tx.send(None);
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        // Wait until the run has actually forwarded something so the
        // snapshot is meaningful, not just reachable.
        loop {
            let Some(status) = http_get(addr, "/status") else {
                let _ = tx.send(None);
                return;
            };
            let live_already = json::parse(&status).is_ok_and(|doc| {
                doc.get("totals")
                    .and_then(|t| t.get("tx_packets"))
                    .and_then(Value::as_u64)
                    .is_some_and(|n| n > 0)
            });
            if live_already || Instant::now() > deadline {
                let metrics = http_get(addr, "/metrics");
                let _ = tx.send(Some((status, metrics)));
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    let report = live::run_sharded(
        &cfg,
        &pipelines::ipv4_router(&app()),
        &lb::replicated(|| Box::new(lb::GpuOnly)),
    );
    poller.join().expect("poller thread");

    // --- (a) causal span tracing across threads -------------------------
    assert!(report.totals.offloaded_batches > 0, "{report:?}");
    let trace = &report.trace;
    assert!(
        trace
            .iter()
            .any(|e| e.kind == TraceEventKind::Steer && e.span != 0),
        "no steer spans in the trace"
    );
    let launches: Vec<_> = trace
        .iter()
        .filter(|e| e.kind == TraceEventKind::OffloadLaunch)
        .collect();
    assert!(!launches.is_empty(), "no device launches traced");
    // Every launch's parent is an enqueue span recorded on a worker.
    let enqueue_span_exists = |span: u64| {
        trace
            .iter()
            .any(|e| e.kind == TraceEventKind::OffloadEnqueue && e.span == span)
    };
    assert!(
        launches.iter().any(|l| enqueue_span_exists(l.parent)),
        "launch parents never link back to enqueue spans"
    );
    // Completions (or fallbacks — the device dies mid-run) link to their
    // launch or enqueue ancestor.
    assert!(
        trace.iter().any(|e| {
            matches!(
                e.kind,
                TraceEventKind::OffloadComplete | TraceEventKind::OffloadFallback
            ) && e.parent != 0
        }),
        "no completion carries a parent span"
    );

    let chrome = trace_to_chrome(trace, &report.elements);
    let doc = json::parse(&chrome).expect("chrome export must be valid JSON");
    let flows = flows_of(&doc);
    // An offload round trip: flow start on a worker tid, step on the
    // device tid, finish back on a worker tid — all under one flow id.
    let crossing = flows.iter().any(|(ph, id, tid)| {
        ph == "s"
            && *tid < CHROME_DEVICE_TID
            && flows
                .iter()
                .any(|(p2, i2, t2)| p2 == "t" && i2 == id && *t2 == CHROME_DEVICE_TID)
            && flows
                .iter()
                .any(|(p2, i2, t2)| p2 == "f" && i2 == id && *t2 < CHROME_DEVICE_TID)
    });
    assert!(
        crossing,
        "no offload flow crosses worker -> device -> worker: {flows:?}"
    );
    // An IO->worker handoff: steer starts a flow on an IO tid, the RX that
    // drained the ring finishes it on a worker tid.
    let handoff = flows.iter().any(|(ph, id, tid)| {
        ph == "s"
            && *tid >= CHROME_IO_TID_BASE
            && flows
                .iter()
                .any(|(p2, i2, t2)| p2 == "f" && i2 == id && *t2 < CHROME_DEVICE_TID)
    });
    assert!(
        handoff,
        "no steer flow crosses an IO thread to a worker: {flows:?}"
    );

    // --- (b) flight-recorder dump at the quarantine trip ----------------
    assert!(
        report.faults.snapshot.quarantine_entered >= 1,
        "breaker never tripped: {:?}",
        report.faults.snapshot
    );
    let dump = report
        .flight
        .iter()
        .find(|d| d.reason == "quarantine")
        .expect("no quarantine flight dump");
    assert!(dump.quarantined, "dump must capture breaker state");
    assert_eq!(dump.shards.len(), 4, "one flight shard per worker");
    assert_ne!(
        dump.trigger_span, 0,
        "tracing was on; trigger must carry a span"
    );
    let w = dump
        .trigger_worker
        .expect("quarantine trigger has a worker") as usize;
    assert!(
        dump.shards[w]
            .recent
            .iter()
            .any(|e| e.span == dump.trigger_span),
        "triggering span {} missing from shard {w}'s history",
        dump.trigger_span
    );
    // Gauges were published into the dump (the run forwarded long enough
    // for several sampling periods on every shard).
    assert!(dump.shards.iter().any(|s| s.seen > 0));

    // --- (c) the mid-run stats poll -------------------------------------
    let (status, metrics) = rx
        .recv()
        .expect("poller result")
        .expect("stats endpoint unreachable");
    let doc = json::parse(&status).expect("/status must be valid JSON");
    assert!(
        doc.get("totals")
            .and_then(|t| t.get("tx_packets"))
            .and_then(Value::as_u64)
            .is_some_and(|n| n > 0),
        "mid-run poll saw no traffic: {status}"
    );
    let shards = doc
        .get("shards")
        .and_then(Value::as_arr)
        .expect("shards array");
    assert_eq!(shards.len(), 4, "{status}");
    for s in shards {
        assert!(s.get("ring_occupancy").and_then(Value::as_u64).is_some());
        assert!(s.get("ring_high_water").and_then(Value::as_u64).is_some());
        assert!(s.get("w").and_then(Value::as_f64).is_some());
    }
    assert!(doc.get("latency").and_then(|l| l.get("p99_ns")).is_some());
    let metrics = metrics.expect("/metrics body");
    assert!(metrics.contains("# HELP nba_tx_packets_total"), "{metrics}");
    assert!(
        metrics.contains("# TYPE nba_ring_occupancy gauge"),
        "{metrics}"
    );
    assert!(
        metrics.contains("nba_ring_occupancy{shard=\"0\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("nba_ring_occupancy{shard=\"3\"}"),
        "{metrics}"
    );
}

/// Panics on every `.0`-th packet its replica sees.
struct PanicEvery(u64, u64);

impl Element for PanicEvery {
    fn class_name(&self) -> &'static str {
        "PanicEvery"
    }
    fn process(
        &mut self,
        _ctx: &mut ElemCtx<'_>,
        _pkt: &mut Packet,
        _anno: &mut Anno,
    ) -> PacketResult {
        self.1 += 1;
        if self.1.is_multiple_of(self.0) {
            panic!("injected element panic (expected in this test)");
        }
        PacketResult::Out(0)
    }
}

/// Tags every batch for the device, as a balancer at `w = 1` would.
struct ToDevice;

impl Element for ToDevice {
    fn class_name(&self) -> &'static str {
        "ToDevice"
    }
    fn kind(&self) -> ElementKind {
        ElementKind::PerBatch
    }
    fn process_batch(&mut self, _: &mut ElemCtx<'_>, batch: &mut PacketBatch) {
        batch.banno_mut().set(anno::LB_DEVICE, 1);
    }
}

/// Offloadable pass-through: a no-op kernel on the device, a no-op on
/// the CPU.
struct PassOffload;

impl Element for PassOffload {
    fn class_name(&self) -> &'static str {
        "PassOffload"
    }
    fn process(&mut self, _: &mut ElemCtx<'_>, _: &mut Packet, _: &mut Anno) -> PacketResult {
        PacketResult::Out(0)
    }
    fn offload(&self) -> Option<OffloadSpec> {
        Some(OffloadSpec {
            input: DbInput::WholePacket { offset: 0 },
            output: DbOutput::InPlace { extra: 0 },
            gpu: GpuProfile::default(),
            kernel: Arc::new(|_: KernelIo<'_>| {}),
            heavy: false,
            postprocess: Postprocess::WriteBack,
        })
    }
}

/// The worker-panic trigger: a contained panic must leave a post-mortem
/// dump naming the worker that died.
#[test]
fn worker_panic_leaves_flight_dump() {
    let pipeline: PipelineBuilder = Arc::new(|_ctx: &BuildCtx| {
        let mut gb = GraphBuilder::new();
        let p = gb.add(Box::new(PanicEvery(1_000, 0)));
        gb.connect_exit(p, 0);
        gb.entry(p);
        gb.build().expect("panic pipeline")
    });
    let cfg = LiveConfig {
        workers: 2,
        duration: Duration::from_secs(20), // deadline only; drains in ms
        max_packets: Some(8_000),
        drain: true,
        ..LiveConfig::default()
    };
    let report = live::run(&cfg, &pipeline, &lb::shared(Box::new(lb::CpuOnly)));
    assert!(report.faults.snapshot.panics_contained >= 1);
    let dump = report
        .flight
        .iter()
        .find(|d| d.reason == "worker_panic")
        .expect("no worker_panic dump");
    assert!(dump.trigger_worker.is_some());
    assert_eq!(dump.shards.len(), 2);
}

/// The zero-overhead contract, DES side: the simulator must produce a
/// bit-identical report with tracing on and off — observation can never
/// perturb simulated time.
#[test]
fn des_tracing_does_not_perturb_the_run() {
    let run = |trace: usize| {
        let mut cfg = RuntimeConfig::test_default();
        cfg.warmup = Time::from_ms(1);
        cfg.measure = Time::from_ms(6);
        cfg.telemetry.trace_capacity = trace;
        let a = AppConfig {
            ports: cfg.topology.ports.len() as u16,
            ..AppConfig::default()
        };
        let traffic = traffic_per_port(
            &cfg.topology,
            &TrafficConfig {
                offered_gbps: 2.0,
                size: SizeDist::Fixed(64),
                ..TrafficConfig::default()
            },
        );
        des::run(
            &cfg,
            &pipelines::ipv4_router(&a),
            &lb::shared(Box::new(lb::FixedFraction::new(0.5))),
            &traffic,
        )
    };
    let off = run(0);
    let on = run(8192);
    assert!(off.trace.is_empty());
    assert!(!on.trace.is_empty());
    assert_eq!(off.tx_packets, on.tx_packets);
    assert_eq!(off.window, on.window, "counters diverged under tracing");
    assert!(off.tx_gbps.to_bits() == on.tx_gbps.to_bits());
    assert_eq!(off.latency.count(), on.latency.count());
}

/// The zero-overhead contract, live side: a fixed drained workload must
/// transmit exactly the same packets with telemetry on and off.
#[test]
fn live_tracing_does_not_change_what_is_forwarded() {
    let run = |trace: usize| {
        let cfg = LiveConfig {
            workers: 2,
            duration: Duration::from_secs(20), // deadline only; drains in ms
            max_packets: Some(6_000),
            drain: true,
            telemetry: TelemetryConfig {
                trace_capacity: trace,
                ..TelemetryConfig::default()
            },
            ..LiveConfig::default()
        };
        live::run(
            &cfg,
            &pipelines::ipv4_router(&app()),
            &lb::shared(Box::new(lb::CpuOnly)),
        )
    };
    let off = run(0);
    let on = run(8192);
    assert!(off.trace.is_empty());
    assert!(!on.trace.is_empty());
    assert_eq!(off.totals.tx_packets, on.totals.tx_packets);
    assert_eq!(off.totals.dropped, on.totals.dropped);
    assert_eq!(off.rx_dropped, on.rx_dropped);
}

/// Every event is recorded once: in a traced GPU-only run, no span-opening
/// event (steer, RX, and each offload lifecycle step) appears twice in the
/// trace. Element, branch, drop and TX events carry their batch's current
/// span, so they repeat a span by design and are not checked.
#[test]
fn traced_offload_events_are_recorded_once() {
    let cfg = LiveConfig {
        workers: 2,
        duration: Duration::from_secs(20), // deadline only; drains in ms
        max_packets: Some(6_000),
        drain: true,
        telemetry: TelemetryConfig {
            trace_capacity: 1 << 16,
            ..TelemetryConfig::default()
        },
        traffic: TrafficConfig {
            size: SizeDist::Fixed(64),
            ..TrafficConfig::default()
        },
        ..LiveConfig::default()
    };
    let report = live::run_sharded(
        &cfg,
        &pipelines::ipsec_gateway(&app()),
        &lb::replicated(|| Box::new(lb::GpuOnly)),
    );
    assert!(report.totals.offloaded_batches > 0, "{report:?}");
    use TraceEventKind as K;
    let opens_span = |k: K| {
        matches!(
            k,
            K::Steer
                | K::Rx
                | K::OffloadEnqueue
                | K::OffloadLaunch
                | K::OffloadRetry
                | K::OffloadComplete
                | K::OffloadFallback
        )
    };
    let mut seen = HashSet::new();
    for e in report
        .trace
        .iter()
        .filter(|e| e.span != 0 && opens_span(e.kind))
    {
        assert!(
            seen.insert((e.span, e.kind.as_str())),
            "recorded twice: {e:?}"
        );
    }
    for k in [
        K::Rx,
        K::OffloadEnqueue,
        K::OffloadLaunch,
        K::OffloadComplete,
    ] {
        assert!(
            seen.iter().any(|&(_, kind)| kind == k.as_str()),
            "no {k:?} traced"
        );
    }
}

/// With tracing off, a shard's ring keeps the flight recorder's sampled
/// tail only: RX events and the offload lifecycle, span-less, at most
/// `FLIGHT_EVENTS` of them.
#[test]
fn untraced_dump_holds_the_sampled_tail() {
    let pipeline: PipelineBuilder = Arc::new(|_ctx: &BuildCtx| {
        let mut gb = GraphBuilder::new();
        let p = gb.add(Box::new(PanicEvery(10_000, 0)));
        let tag = gb.add(Box::new(ToDevice));
        let dev = gb.add(Box::new(PassOffload));
        gb.connect(p, 0, tag);
        gb.connect(tag, 0, dev);
        gb.connect_exit(dev, 0);
        gb.entry(p);
        gb.build().expect("offload pipeline")
    });
    let cfg = LiveConfig {
        workers: 2,
        duration: Duration::from_secs(20), // deadline only; drains in ms
        max_packets: Some(40_000),
        drain: true,
        ..LiveConfig::default()
    };
    let report = live::run(&cfg, &pipeline, &lb::shared(Box::new(lb::GpuOnly)));
    assert!(report.totals.offloaded_batches > 0, "{report:?}");
    let dump = report
        .flight
        .iter()
        .find(|d| d.reason == "worker_panic")
        .expect("no worker_panic dump");
    use TraceEventKind as K;
    for s in &dump.shards {
        assert!(
            s.recent.len() <= FLIGHT_EVENTS,
            "shard {}: {}",
            s.shard,
            s.recent.len()
        );
        assert_eq!(s.seen, s.recent.len() as u64 + s.overwritten);
        for e in &s.recent {
            assert!(
                matches!(
                    e.kind,
                    K::Rx
                        | K::OffloadEnqueue
                        | K::OffloadLaunch
                        | K::OffloadRetry
                        | K::OffloadComplete
                        | K::OffloadFallback
                ),
                "shard {}: {e:?} outside the sampled tail",
                s.shard
            );
            assert_eq!((e.span, e.parent), (0, 0), "tracing off stamps no span");
        }
    }
    let lifecycle = |s: &nba::core::introspect::FlightShardDump| {
        s.recent.iter().any(|e| e.kind == K::OffloadLaunch)
    };
    assert!(
        dump.shards.iter().any(lifecycle),
        "no offload lifecycle kept"
    );
    // The panicking worker ran long enough for its ring to wrap.
    assert!(dump.shards.iter().any(|s| s.overwritten > 0), "{dump:?}");
}
