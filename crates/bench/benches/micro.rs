//! Criterion micro-benchmarks of the substrates: crypto, matching, lookup,
//! checksums, RSS hashing, the DES source's slots, the live RX path, batch
//! operations, and one batch through each hot-path pipeline.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use nba_apps::ipv4::RoutingTableV4;
use nba_apps::ipv6::RoutingTableV6;
use nba_apps::stateful::NatConfig;
use nba_apps::{pipelines, AppConfig};
use nba_core::element::{ComputeMode, ElemCtx};
use nba_core::flow::FlowRegistry;
use nba_core::lb;
use nba_core::runtime::worker::Homes;
use nba_core::runtime::{BuildCtx, PipelineBuilder};
use nba_core::{Counters, NodeLocalStorage, PacketBatch, SystemInspector};
use nba_crypto::{Aes128Ctr, HmacSha1, Sha1};
use nba_io::proto::FrameBuilder;
use nba_io::toeplitz::Toeplitz;
use nba_io::{
    checksum, spsc, L4Proto, Mempool, MempoolCache, Packet, PayloadFill, Port, RssFanout, RssTable,
    SizeDist, TrafficConfig, TrafficGen,
};
use nba_matcher::{AhoCorasick, Regex};
use nba_sim::{CostModel, Time};

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    for size in [64usize, 1024] {
        let data = vec![0xa5u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        let ctr = Aes128Ctr::new(&[7u8; 16]);
        g.bench_with_input(BenchmarkId::new("aes128-ctr", size), &data, |b, d| {
            let mut buf = d.clone();
            b.iter(|| ctr.apply_keystream(&[9u8; 16], &mut buf));
        });
        g.bench_with_input(BenchmarkId::new("sha1", size), &data, |b, d| {
            b.iter(|| Sha1::digest(d));
        });
        let mac = HmacSha1::new(b"benchkey");
        g.bench_with_input(BenchmarkId::new("hmac-sha1", size), &data, |b, d| {
            b.iter(|| mac.mac_truncated_96(d));
        });
    }
    g.finish();
}

fn bench_matching(c: &mut Criterion) {
    let mut g = c.benchmark_group("matching");
    let rules = nba_apps::ids::RuleSet::synthetic(3, 256, 8);
    let mut rng = SmallRng::seed_from_u64(1);
    for size in [64usize, 1024] {
        let hay: Vec<u8> = (0..size).map(|_| b'a' + rng.gen::<u8>() % 26).collect();
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("aho-corasick", size), &hay, |b, h| {
            b.iter(|| rules.ac().first_match(h));
        });
    }
    // One IMIX batch of 64 scan ranges (frame minus the Ethernet header,
    // a-z filler, ATTACK1 in every 16th) against the default rule set, one
    // haystack at a time and four in lockstep.
    let default_rules = nba_apps::ids::RuleSet::synthetic(3, 512, 16);
    let batch: Vec<Vec<u8>> = (0..64)
        .map(|i| {
            let len = SizeDist::Imix.sample(&mut rng) - 14;
            let mut hay: Vec<u8> = (0..len).map(|_| b'a' + rng.gen::<u8>() % 26).collect();
            if i % 16 == 0 {
                let at = rng.gen_range(28..len - 7);
                hay[at..at + 7].copy_from_slice(b"ATTACK1");
            }
            hay
        })
        .collect();
    let hays: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
    let mut verdicts = vec![None; hays.len()];
    g.throughput(Throughput::Bytes(hays.iter().map(|h| h.len() as u64).sum()));
    g.bench_function("aho-corasick/imix-batch-64/first_match", |b| {
        b.iter(|| {
            for (v, h) in verdicts.iter_mut().zip(&hays) {
                *v = default_rules.ac().first_match(h);
            }
        })
    });
    g.bench_function("aho-corasick/imix-batch-64/first_match_each", |b| {
        b.iter(|| default_rules.ac().first_match_each(&hays, &mut verdicts))
    });
    let ac = AhoCorasick::new(&["needle", "haystack", "pattern"]);
    g.bench_function("aho-corasick/small-set-256B", |b| {
        let hay = vec![b'x'; 256];
        b.iter(|| ac.is_match(&hay));
    });
    let re = Regex::new(r"GET /[\w/]+\.php\?id=\d+").unwrap();
    g.bench_function("regex-dfa/http-256B", |b| {
        let hay = b"GET /a/b/c.php?id=12345 HTTP/1.1".repeat(8);
        b.iter(|| re.is_match(&hay));
    });
    g.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("lookup");
    let v4 = RoutingTableV4::random(5, 65_536, 32);
    let v6 = RoutingTableV6::random(5, 16_384, 32);
    let mut rng = SmallRng::seed_from_u64(2);
    let dsts4: Vec<u32> = (0..1024).map(|_| rng.gen()).collect();
    let dsts6: Vec<u128> = (0..1024)
        .map(|_| 0x2001_0db8u128 << 96 | u128::from(rng.gen::<u64>()))
        .collect();
    g.throughput(Throughput::Elements(1024));
    g.bench_function("dir-24-8/ipv4", |b| {
        b.iter(|| dsts4.iter().filter_map(|&d| v4.lookup(d)).count())
    });
    g.bench_function("binary-search/ipv6", |b| {
        b.iter(|| dsts6.iter().filter_map(|&d| v6.lookup(d)).count())
    });
    g.finish();
}

fn bench_io(c: &mut Criterion) {
    let mut g = c.benchmark_group("io");
    let data = vec![0x5au8; 1500];
    g.throughput(Throughput::Bytes(1500));
    g.bench_function("internet-checksum/1500B", |b| {
        b.iter(|| checksum::internet_checksum(&data))
    });
    // The header check `CheckIPHeader`'s fast path makes per packet.
    let mut frame = [0u8; 64];
    FrameBuilder::default().build_ipv4(&mut frame, 64, 0x0a00_0001, 0xc0a8_0001);
    let hdr: [u8; 20] = frame[14..34].try_into().expect("a 20-byte header");
    g.throughput(Throughput::Bytes(20));
    g.bench_function("checksum/ipv4-hdr-20B", |b| {
        b.iter(|| checksum::verify(criterion::black_box(&hdr)))
    });
    let t = Toeplitz::default();
    g.throughput(Throughput::Elements(1));
    g.bench_function("toeplitz/ipv4-4tuple", |b| {
        b.iter(|| t.hash_ipv4_l4(0x0a000001, 0xc0a80001, 1234, 53))
    });
    // The two hand-off primitives, per item and per 64-item burst (same
    // thread: the synchronisation instructions, not the cache misses).
    const BURST: usize = 64;
    let (tx, rx) = spsc::channel::<u64>(4096);
    g.throughput(Throughput::Elements(1));
    g.bench_function("spsc_single", |b| {
        b.iter(|| {
            tx.push(7).expect("ring has room");
            rx.pop()
        })
    });
    let mut burst: Vec<u64> = Vec::with_capacity(BURST);
    g.throughput(Throughput::Elements(BURST as u64));
    g.bench_function("spsc_burst_64", |b| {
        b.iter(|| {
            burst.extend(0..BURST as u64);
            tx.push_burst(&mut burst);
            let mut sum = 0;
            rx.pop_burst(BURST, |v| sum += v);
            sum
        })
    });
    // The live IO thread's per-burst work, and the worker's pop, on one
    // thread: generate 64 packets through the thread's mempool cache, steer
    // each by its descriptor hash into its queue's stage, push the stage as
    // one burst, pop it, and send the buffers home with the worker's exit
    // routine.
    let pool = Mempool::new(4 * BURST);
    let mut cache = MempoolCache::new(pool.clone(), BURST);
    let mut homes = Homes::new(vec![pool]);
    let mut gen = TrafficGen::new(TrafficConfig::default());
    let (ring, drain) = spsc::channel(4096);
    let mut fanout = RssFanout::new(0, vec![ring]);
    let mut stage: Vec<Packet> = Vec::with_capacity(BURST);
    let mut popped: Vec<Packet> = Vec::with_capacity(BURST);
    g.bench_function("rx-path/burst-64", |b| {
        b.iter(|| {
            gen.generate_burst(BURST, &mut cache, &mut |mut p| {
                fanout.steer(&mut p);
                stage.push(p);
            });
            fanout.push_burst(0, &mut stage);
            drain.pop_burst(BURST, |p| popped.push(p));
            homes.retire(popped.drain(..));
        })
    });
    // One slot of the DES source on the modelled testbed's per-port stream
    // (64 B UDP, 10 Gbps), through a port steering by an RSS table as the
    // DES ports do. Refused: the slot's queue is full, so the slot is drawn
    // and counted, and nothing is allocated or written. Admitted: the slot
    // takes a buffer, is written and enqueued, and the packet is popped and
    // freed again so the queue never fills.
    let des_slot = |refused: bool, b: &mut criterion::Bencher| {
        let pool = Mempool::new(64);
        let mut port = Port::new(0, 10.0, 1, 1);
        port.set_rss_table(Arc::new(RssTable::new(1)));
        let mut gen = TrafficGen::new(TrafficConfig::default());
        if refused {
            gen.offer(Time::MAX, 1, &pool, &mut port);
        }
        let queue = port.rx_queue(0);
        b.iter(|| {
            let slots = gen.offer(Time::MAX, 1, &pool, &mut port);
            if !refused {
                drop(queue.pop());
            }
            slots
        })
    };
    g.throughput(Throughput::Elements(1));
    g.bench_function("des-source/refused-slot", |b| des_slot(true, b));
    g.bench_function("des-source/admitted-slot", |b| des_slot(false, b));
    let pool = Mempool::new(BURST);
    g.bench_function("mempool_single", |b| {
        b.iter(|| {
            let buf = pool.alloc().expect("pool holds a buffer");
            pool.free(buf);
        })
    });
    let mut bufs = Vec::with_capacity(BURST);
    g.throughput(Throughput::Elements(BURST as u64));
    g.bench_function("mempool_bulk_64", |b| {
        b.iter(|| {
            pool.alloc_bulk(BURST, &mut bufs);
            pool.free_bulk(bufs.drain(..));
        })
    });
    g.finish();
}

/// One 64-packet batch of a workload's traffic through one worker's
/// pipeline replica, the way the live worker runs it: the batch shell the
/// last traversal retired is refilled (each frame restored to its pristine
/// bytes, so TTLs and NAT rewrites do not accumulate), traversed with
/// wall-clock profiling on, and its TX vector handed back. The refill is
/// part of the row; the ladder's `core.batch.build_ns_per_pkt` prices it.
fn graph_row(c: &mut Criterion, name: &str, pipeline: PipelineBuilder, traffic: TrafficConfig) {
    const BATCH: usize = 64;
    let nls = NodeLocalStorage::new();
    let registry = FlowRegistry::new();
    registry.set_workers(1);
    registry.publish(&nls);
    let ctx = BuildCtx {
        worker: 0,
        socket: 0,
        nls: nls.clone(),
        balancer: lb::shared(Box::new(lb::CpuOnly)),
        policy: Default::default(),
    };
    let mut graph = pipeline(&ctx);
    graph.set_wall_profiling(true);
    let counters = Arc::new(Counters::default());
    let inspector = SystemInspector::new(vec![counters.clone()]);
    let cost = CostModel::paper_default();
    let pool = Mempool::new(4 * BATCH);
    let mut gen = TrafficGen::new(traffic);
    let mut held: Vec<Packet> = Vec::with_capacity(BATCH);
    let mut vnow = Time::ZERO;
    while held.len() < BATCH {
        vnow += Time::from_us(1);
        gen.generate(vnow, &pool, &mut |p| held.push(p));
    }
    held.truncate(BATCH);
    for (i, p) in held.iter_mut().enumerate() {
        // The packet's index, to find its pristine frame whatever order
        // the pipeline transmits it in.
        p.ts_gen = Time::from_ps(i as u64);
    }
    let frames: Vec<Vec<u8>> = held.iter().map(|p| p.data().to_vec()).collect();
    let mut shell = Some(PacketBatch::with_capacity(BATCH));
    let mut g = c.benchmark_group("graph");
    g.throughput(Throughput::Elements(BATCH as u64));
    g.bench_function(name, |b| {
        b.iter(|| {
            let mut batch = shell.take().unwrap_or_default();
            batch.reset();
            for mut p in held.drain(..) {
                let pristine = &frames[p.ts_gen.as_ps() as usize];
                p.data_mut().copy_from_slice(pristine);
                batch.push(p);
            }
            let mut ectx = ElemCtx {
                now: Time::ZERO,
                compute: ComputeMode::Full,
                nls: &nls,
                worker: 0,
                inspector: &inspector,
            };
            let mut out = graph.run_batch(&mut ectx, &cost, &counters, batch);
            held.extend(out.tx.drain(..).map(|(p, _)| p));
            assert_eq!(held.len(), BATCH, "the pipeline drops nothing here");
            shell = out.spent.take();
            graph.recycle(&mut out);
        })
    });
    g.finish();
}

fn bench_graph(c: &mut Criterion) {
    let app = AppConfig::default();
    let udp = TrafficConfig::default();
    graph_row(c, "ipv4-chain/batch-64", pipelines::ipv4_router(&app), udp);
    let tcp = TrafficConfig {
        l4: L4Proto::Tcp,
        ..TrafficConfig::default()
    };
    let nat = pipelines::nat44(&NatConfig::default());
    graph_row(c, "nat-chain/batch-64", nat, tcp);
    // IMIX with the signature planted in one packet of 16: the ACMatch
    // branch splits every batch.
    let imix = TrafficConfig {
        size: SizeDist::Imix,
        payload: PayloadFill::Plant {
            needle: b"ATTACK1".to_vec(),
            every: 16,
        },
        ..TrafficConfig::default()
    };
    graph_row(c, "ids-branch/batch-64", pipelines::ids(&app).0, imix);
}

criterion_group!(
    benches,
    bench_crypto,
    bench_matching,
    bench_lookup,
    bench_io,
    bench_graph
);
criterion_main!(benches);
