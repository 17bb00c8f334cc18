//! The live runtime: real threads, real packets, real crypto, real
//! detections — proving the framework is a working concurrent system.

use std::sync::Arc;
use std::time::Duration;

use nba::apps::{pipelines, AppConfig};
use nba::core::batch::{Anno, PacketResult};
use nba::core::element::{
    ComputeMode, DbInput, DbOutput, ElemCtx, Element, KernelIo, OffloadSpec, Postprocess,
};
use nba::core::graph::GraphBuilder;
use nba::core::lb::{self, LoadBalanceElement};
use nba::core::runtime::live::{self, LiveConfig};
use nba::core::runtime::{BuildCtx, PipelineBuilder};
use nba::core::supervise::WorkerState;
use nba::io::proto::{ether::EtherView, ipv4::Ipv4View, l4::TcpView};
use nba::io::{L4Proto, Packet, PayloadFill, SizeDist, TrafficConfig};
use nba::sim::GpuProfile;

fn live_cfg() -> LiveConfig {
    LiveConfig {
        workers: 2,
        duration: Duration::from_millis(150),
        compute: ComputeMode::Full,
        ..LiveConfig::default()
    }
}

#[test]
fn live_ipv4_forwards_on_threads() {
    let app = AppConfig {
        ports: 4,
        v4_routes: 2048,
        ..AppConfig::default()
    };
    let report = live::run(
        &live_cfg(),
        &pipelines::ipv4_router(&app),
        &lb::shared(Box::new(lb::CpuOnly)),
    );
    assert!(report.totals.tx_packets > 1000, "{report:?}");
    assert!(report.mpps > 0.0);
    // Both workers contributed batches.
    assert!(report.totals.batches > 2);
}

#[test]
fn live_offload_path_round_trips_through_device_thread() {
    let app = AppConfig {
        ports: 4,
        v4_routes: 1024,
        ..AppConfig::default()
    };
    let report = live::run(
        &live_cfg(),
        &pipelines::ipsec_gateway(&app),
        &lb::shared(Box::new(lb::GpuOnly)),
    );
    assert!(
        report.totals.offloaded_batches > 0,
        "nothing crossed the device thread: {report:?}"
    );
    assert!(report.totals.tx_packets > 0);
}

#[test]
fn live_ids_detects_with_real_threads() {
    let app = AppConfig {
        ports: 4,
        ids_literals: 32,
        ids_regexes: 4,
        ..AppConfig::default()
    };
    let (pipeline, alerts) = pipelines::ids(&app);
    let cfg = LiveConfig {
        traffic: TrafficConfig {
            size: SizeDist::Fixed(256),
            payload: PayloadFill::Plant {
                needle: b"EVILPATTERN".to_vec(),
                every: 7,
            },
            ..TrafficConfig::default()
        },
        ..live_cfg()
    };
    let report = live::run(&cfg, &pipeline, &lb::shared(Box::new(lb::CpuOnly)));
    let hits = alerts
        .literal_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(hits > 0, "no detections in {report:?}");
}

/// A poison element: panics once every `every` packets it sees.
struct PanicEvery {
    every: u64,
    seen: u64,
}

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
        self.seen += 1;
        if self.seen.is_multiple_of(self.every) {
            panic!("injected element panic (expected in this test)");
        }
        PacketResult::Out(0)
    }
}

#[test]
fn live_worker_panics_are_contained() {
    let pipeline: PipelineBuilder = Arc::new(|_ctx: &BuildCtx| {
        let mut gb = GraphBuilder::new();
        let p = gb.add(Box::new(PanicEvery {
            every: 1_000,
            seen: 0,
        }));
        gb.connect_exit(p, 0);
        gb.entry(p);
        gb.build().expect("panic pipeline")
    });
    // A bounded, fully drained workload: each of the two RSS shards sees
    // ~4k packets regardless of host speed, so the poison element fires
    // deterministically instead of depending on wall-clock throughput.
    let cfg = LiveConfig {
        duration: Duration::from_secs(20), // deadline only; drains in ms
        max_packets: Some(8_000),
        drain: true,
        ..live_cfg()
    };
    let report = live::run(&cfg, &pipeline, &lb::shared(Box::new(lb::CpuOnly)));
    let f = &report.faults.snapshot;
    // The poison batches were dropped and counted — and the run survived
    // them: workers kept forwarding traffic afterwards.
    assert!(f.panics_contained >= 1, "no panic was contained: {f:?}");
    assert!(f.dropped_packets > 0, "poison batch not counted: {f:?}");
    assert!(
        report.totals.tx_packets > 1000,
        "the run died with the panic: {report:?}"
    );
    // The poison batches' buffers died with them and were written off;
    // every other buffer went home.
    let h = &report.health.stats;
    assert_eq!(h.buffers_lost, f.dropped_packets, "{h:?}");
    assert_eq!(h.buffers_unreturned, 0, "{h:?}");
}

/// Marks every `every`-th packet it sees (first byte 0xEE).
struct MarkEvery {
    every: u64,
    seen: u64,
}

impl Element for MarkEvery {
    fn class_name(&self) -> &'static str {
        "MarkEvery"
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, pkt: &mut Packet, _: &mut Anno) -> PacketResult {
        self.seen += 1;
        if self.seen.is_multiple_of(self.every) {
            pkt.data_mut()[0] = 0xEE;
        }
        PacketResult::Out(0)
    }
}

/// Offloadable no-op whose device kernel — and only the kernel — panics on
/// a marked frame.
struct PoisonKernel;

impl Element for PoisonKernel {
    fn class_name(&self) -> &'static str {
        "PoisonKernel"
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, _: &mut Packet, _: &mut Anno) -> PacketResult {
        PacketResult::Out(0)
    }

    fn offload(&self) -> Option<OffloadSpec> {
        Some(OffloadSpec {
            input: DbInput::PartialPacket { offset: 0, len: 1 },
            output: DbOutput::PerItem { len: 0 },
            gpu: GpuProfile::default(),
            kernel: Arc::new(|io: KernelIo<'_>| {
                for i in 0..io.items {
                    if io.item_in(i) == [0xEE] {
                        panic!("injected kernel panic (expected in this test)");
                    }
                }
            }),
            heavy: false,
            postprocess: Postprocess::WriteBack,
        })
    }
}

#[test]
fn live_device_kernel_panics_are_contained_and_the_run_drains() {
    let pipeline: PipelineBuilder = Arc::new(|ctx: &BuildCtx| {
        let mut gb = GraphBuilder::new();
        let mark = gb.add(Box::new(MarkEvery {
            every: 1_000,
            seen: 0,
        }));
        let lb = gb.add(Box::new(LoadBalanceElement::new(ctx.balancer.clone())));
        let poison = gb.add(Box::new(PoisonKernel));
        gb.connect(mark, 0, lb);
        gb.connect(lb, 0, poison);
        gb.connect_exit(poison, 0);
        gb.entry(mark);
        gb.build().expect("poison-kernel pipeline")
    });
    // Bounded and drained: the run ends when every offloaded batch came
    // back, so a completion the device thread loses shows up as a run that
    // sits out its 20 s deadline.
    let cfg = LiveConfig {
        duration: Duration::from_secs(20),
        max_packets: Some(8_000),
        drain: true,
        ..live_cfg()
    };
    let report = live::run(&cfg, &pipeline, &lb::shared(Box::new(lb::GpuOnly)));
    let (t, f) = (&report.totals, &report.faults.snapshot);
    assert!(
        report.elapsed < Duration::from_secs(5),
        "a poisoned task's completion was lost: ran {:?}",
        report.elapsed
    );
    assert!(f.panics_contained >= 1, "no panic was contained: {f:?}");
    assert_eq!(t.rx_packets, 8_000);
    assert_eq!(t.rx_packets, t.tx_packets + t.dropped, "{t:?}");
    assert!(t.gpu_processed > 0, "clean tasks still use the device");
    assert!(f.fell_back_packets > 0 && f.fell_back_packets < 8_000);
    assert_eq!(report.health.stats.total_lost(), 0, "{:?}", report.health);
    let h = &report.health.stats;
    assert_eq!((h.buffers_lost, h.buffers_unreturned), (0, 0), "{h:?}");
}

/// Drops every third packet it sees and sends every fifth of the rest out
/// of port 1 (a discard edge in [`thinning`]).
struct Thin {
    seen: u64,
}

impl Element for Thin {
    fn class_name(&self) -> &'static str {
        "Thin"
    }

    fn output_count(&self) -> usize {
        2
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, _: &mut Packet, _: &mut Anno) -> PacketResult {
        self.seen += 1;
        match (self.seen % 3, self.seen % 5) {
            (0, _) => PacketResult::Drop,
            (_, 0) => PacketResult::Out(1),
            _ => PacketResult::Out(0),
        }
    }
}

/// A pipeline that drops a third of its packets in an element and a tenth
/// more on a discard edge.
fn thinning() -> PipelineBuilder {
    Arc::new(|_: &BuildCtx| {
        let mut gb = GraphBuilder::new();
        let thin = gb.add(Box::new(Thin { seen: 0 }));
        gb.connect_exit(thin, 0);
        gb.connect_discard(thin, 1);
        gb.entry(thin);
        gb.build().expect("thinning pipeline")
    })
}

/// Every buffer of a clean run goes home: on one worker fed by one IO
/// thread, and on two workers fed by two IO threads (two home pools, every
/// RX batch mixing both), through the router, NAT, the IDS, the GPU-only
/// IPsec gateway (every batch crosses the device thread) and a pipeline
/// that drops (in an element and on a discard edge). The other clean runs check the same ledger through
/// `HealthSnapshot::is_clean`.
#[test]
fn clean_live_runs_send_every_buffer_home() {
    let app = AppConfig {
        ports: 4,
        v4_routes: 1024,
        ids_literals: 16,
        ids_regexes: 2,
        ..AppConfig::default()
    };
    let nat = nba::apps::stateful::NatConfig::default();
    let runs = [
        ("ipv4", pipelines::ipv4_router(&app), L4Proto::Udp),
        ("nat", pipelines::nat44(&nat), L4Proto::Tcp),
        ("ids", pipelines::ids(&app).0, L4Proto::Udp),
        ("ipsec", pipelines::ipsec_gateway(&app), L4Proto::Udp),
        ("drops", thinning(), L4Proto::Udp),
    ];
    for (name, pipeline, l4) in &runs {
        let balancer = if *name == "ipsec" {
            lb::shared(Box::new(lb::GpuOnly))
        } else {
            lb::shared(Box::new(lb::CpuOnly))
        };
        for (workers, io_threads) in [(1, 1), (2, 2)] {
            let cfg = LiveConfig {
                workers,
                io_threads,
                duration: Duration::from_secs(20), // deadline only
                max_packets: Some(6_000),
                drain: true,
                traffic: TrafficConfig {
                    l4: *l4,
                    payload: PayloadFill::Plant {
                        needle: b"EVILPATTERN".to_vec(),
                        every: 5,
                    },
                    ..TrafficConfig::default()
                },
                ..live_cfg()
            };
            let report = live::run(&cfg, pipeline, &balancer);
            let t = &report.totals;
            let shape = format!("{name} live({workers}x{io_threads})");
            assert_eq!(t.rx_packets, 6_000, "{shape}: {t:?}");
            assert_eq!(t.rx_packets, t.tx_packets + t.dropped, "{shape}: {t:?}");
            assert!(*name != "drops" || t.dropped > 0, "{shape}: {t:?}");
            // Supervision edges are left out: on a loaded 2-vCPU host a
            // runnable worker can wait long enough to be convicted of a
            // stall (and re-steered from) without losing a packet.
            let h = &report.health.stats;
            assert_eq!(h.total_lost(), 0, "{shape}: {h:?}");
            assert_eq!(
                (h.buffers_lost, h.buffers_unreturned),
                (0, 0),
                "{shape}: {h:?}"
            );
        }
    }
}

/// The burst hand-off on its awkward shapes: two IO threads fanning into
/// three workers (stages of uneven size), rings no deeper than one burst
/// (every burst can be refused in part), a budget that is not a multiple
/// of the burst. TCP flows that churn every 16 packets carry their own
/// sequence numbers, so per-flow order is checkable from the TX capture.
fn awkward_shape(drain: bool) -> LiveConfig {
    LiveConfig {
        workers: 3,
        io_threads: 2,
        ring_capacity: 32,
        batch: 64,
        max_packets: Some(50_000),
        drain,
        capture: true,
        duration: Duration::from_secs(60), // deadline only
        traffic: TrafficConfig {
            l4: L4Proto::Tcp,
            flows: 256,
            flow_lifetime_pkts: 16,
            ..TrafficConfig::default()
        },
        ..live_cfg()
    }
}

/// A run with no fault injected loses nothing, re-steers nothing and
/// convicts no worker. Its log may still hold Healthy↔Suspect edges: this
/// binary runs its live tests two at a time, a dozen threads on a 2-vCPU
/// host, and a runnable worker with backlog then sometimes waits the 10 ms
/// that make it Suspect before it gets a CPU.
fn assert_clean_supervision(report: &live::LiveReport) {
    let health = &report.health;
    assert!(health.stats.is_clean(), "{health:?}");
    let convicted = health
        .log
        .events
        .iter()
        .find(|e| !matches!(e.to, WorkerState::Healthy | WorkerState::Suspect));
    assert_eq!(convicted, None, "{health:?}");
}

fn run_router(cfg: &LiveConfig) -> live::LiveReport {
    let app = AppConfig {
        ports: 4,
        v4_routes: 2048,
        ..AppConfig::default()
    };
    live::run(
        cfg,
        &pipelines::ipv4_router(&app),
        &lb::shared(Box::new(lb::CpuOnly)),
    )
}

#[test]
fn live_burst_handoff_is_lossless_and_flow_ordered() {
    let report = run_router(&awkward_shape(true));
    let t = &report.totals;
    assert_eq!(report.rx_dropped, 0, "lossless ingress dropped at RX");
    assert_eq!(t.rx_packets, 50_000, "not every generated packet arrived");
    assert_eq!(t.tx_packets + t.dropped, 50_000, "rx = tx + dropped");
    assert_clean_supervision(&report);
    assert_eq!(report.tx_capture.len() as u64, t.tx_packets);
    assert!(t.tx_packets > 25_000, "{t:?}");
    // Per-flow TX order equals generation order: a flow is pinned to one
    // IO thread's stage, one ring and one worker, each of which is FIFO,
    // so within a flow identity the generator's sequence numbers count up
    // exactly (captures are concatenated per worker, each in TX order).
    let mut next_seq = std::collections::HashMap::new();
    for rec in &report.tx_capture {
        let eth = EtherView::parse(&rec.frame).unwrap();
        let ip = Ipv4View::parse(eth.payload()).unwrap();
        let tcp = TcpView::parse(ip.payload()).unwrap();
        let flow = (ip.src(), ip.dst(), tcp.src_port(), tcp.dst_port());
        let want = next_seq.entry(flow).or_insert(0u32);
        assert_eq!(tcp.seq(), *want, "flow {flow:?} reordered or lost a packet");
        *want += 1;
    }
}

#[test]
fn live_nic_mode_counts_each_refused_packet_once() {
    // The NIC-mode twin: a full ring drops what it refuses out of a staged
    // burst, and each such packet is counted exactly once.
    let report = run_router(&awkward_shape(false));
    let t = &report.totals;
    assert!(report.rx_dropped > 0, "64-slot rings never filled: {t:?}");
    assert_eq!(
        report.rx_dropped + t.tx_packets + t.dropped,
        50_000,
        "generated = rx_dropped + tx + dropped"
    );
    assert_eq!(t.rx_packets, t.tx_packets + t.dropped);
    let per_shard: u64 = report.shards.iter().map(|s| s.rx_dropped).sum();
    assert_eq!(
        per_shard, report.rx_dropped,
        "fanout and shard ledgers agree"
    );
    assert_clean_supervision(&report);
}

/// Lossless backpressure is paid for in progress, not in retries: an IO
/// thread refused by a full ring parks until its worker has drained the
/// ring to half, and the next refusal needs a full ring again. So a
/// worker-bound run (NAT44 behind one IO thread, 64 slots) counts at most
/// one refusal per half ring delivered, plus one, in the ring's
/// `enqueue_failed` gauge, whatever the host's speed or load. A producer
/// that retried on a timer would count one per retry.
#[test]
fn lossless_backpressure_refuses_once_per_half_ring() {
    const PACKETS: u64 = 60_000;
    const RING: u64 = 64;
    let cfg = LiveConfig {
        workers: 1,
        io_threads: 1,
        ring_capacity: RING as usize,
        batch: 64,
        max_packets: Some(PACKETS),
        drain: true,
        duration: Duration::from_secs(60), // deadline only
        traffic: TrafficConfig {
            l4: L4Proto::Tcp,
            ..TrafficConfig::default()
        },
        ..live_cfg()
    };
    let nat = nba::apps::stateful::NatConfig::default();
    let report = live::run(
        &cfg,
        &pipelines::nat44(&nat),
        &lb::shared(Box::new(lb::CpuOnly)),
    );
    let delivered = report.totals.rx_packets;
    assert_eq!(delivered, PACKETS, "{:?}", report.totals);
    // The gauge `io.spsc.enqueue_failed_per_kpkt` reads: cumulative, so
    // the last sampler window holds the run's count.
    let refused: u64 = report
        .samples
        .last()
        .map_or(0, |s| s.shards.iter().map(|sh| sh.enqueue_failed).sum());
    assert!(
        refused <= delivered.div_ceil(RING / 2) + 1,
        "{refused} refusals for {delivered} packets through a {RING}-slot ring"
    );
}
