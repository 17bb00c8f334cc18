//! The ladder: the benchmark times calls into each layer's public
//! functions from outside, single-threaded unless a rung says otherwise.
//! Every rung is repeated five times and reports its fastest repetition
//! (the least disturbed one); the spread between repetitions goes to
//! standard error.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use nba_apps::pipelines;
use nba_apps::AppConfig;
use nba_core::element::{ComputeMode, ElemCtx};
use nba_core::flow::{FlowKey, FlowRegistry, FlowTable, FlowTableConfig};
use nba_core::graph::ElementGraph;
use nba_core::runtime::BuildCtx;
use nba_core::{Counters, NodeLocalStorage, PacketBatch, SystemInspector};
use nba_crypto::{Aes128Ctr, HmacSha1};
use nba_io::{spsc, Mempool, Packet, RssFanout, Toeplitz, TrafficGen};
use nba_sim::engine::{Ctx, Engine, Entity, Wake};
use nba_sim::{CostModel, Time};

use crate::span::Recorder;
use crate::workloads::Workload;

const REPS: usize = 5;
const BATCH: usize = 64;

/// Runs `rung` [`REPS`] times inside a span; each call returns the
/// nanoseconds it measured per operation. Records the minimum.
fn rung(
    name: &str,
    rec: &mut Recorder,
    out: &mut Vec<(String, f64)>,
    mut rung: impl FnMut() -> f64,
) -> f64 {
    let samples: Vec<f64> = rec.span(name, |_| (0..REPS).map(|_| rung()).collect());
    let min = fastest(&samples);
    let max = samples.iter().copied().fold(0.0, f64::max);
    eprintln!("  ladder {name}: min {min:.2} max {max:.2} (n={REPS})");
    out.push((name.to_owned(), min));
    min
}

fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Times `iters` calls of `op` and returns nanoseconds per call.
fn per_call(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        op(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// A small deterministic generator for ladder inputs (not traffic).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// `n` packets of the workload's own traffic, RSS-stamped the way the IO
/// thread stamps them (through a fanout into a ring popped right here).
fn stamped_packets(w: &Workload, seed: u64, n: usize) -> Vec<Packet> {
    let pool = Mempool::new(n + BATCH);
    let mut gen = TrafficGen::new(w.traffic(seed));
    let (tx, rx) = spsc::channel(n.next_power_of_two());
    let mut fanout = RssFanout::new(0, vec![tx]);
    let mut out = Vec::with_capacity(n);
    let mut vnow = Time::ZERO;
    while out.len() < n {
        vnow += Time::from_us(1);
        let mut fresh = Vec::new();
        gen.generate(vnow, &pool, &mut |p| fresh.push(p));
        for p in fresh {
            if out.len() < n && fanout.deliver(p).is_ok() {
                out.push(rx.pop().expect("just delivered"));
            }
        }
    }
    out
}

/// One worker's graph replica, built the way the runtimes build it.
struct Bench {
    graph: ElementGraph,
    nls: NodeLocalStorage,
    inspector: SystemInspector,
    counters: Arc<Counters>,
    cost: CostModel,
}

impl Bench {
    fn new(w: &Workload) -> Bench {
        let nls = NodeLocalStorage::new();
        // Stateful elements find their flow shards through the registry
        // the runtime publishes before building replicas.
        let registry = FlowRegistry::new();
        registry.set_workers(1);
        registry.publish(&nls);
        let ctx = BuildCtx {
            worker: 0,
            socket: 0,
            nls: nls.clone(),
            balancer: w.balancer(),
            policy: Default::default(),
        };
        let mut graph = (w.pipeline())(&ctx);
        graph.set_wall_profiling(true);
        let counters = Arc::new(Counters::default());
        Bench {
            graph,
            nls,
            inspector: SystemInspector::new(vec![counters.clone()]),
            counters,
            cost: CostModel::paper_default(),
        }
    }

    /// Runs `packets` through the graph in 64-packet batches. Returns
    /// nanoseconds per packet for batch building and for `run_batch`.
    fn run(&mut self, packets: Vec<Packet>) -> (f64, f64) {
        let n = packets.len() as f64;
        let mut build_ns = 0u128;
        let mut graph_ns = 0u128;
        let mut packets = packets.into_iter();
        loop {
            let t0 = Instant::now();
            let mut batch = PacketBatch::with_capacity(BATCH);
            for p in packets.by_ref().take(BATCH) {
                batch.push(p);
            }
            build_ns += t0.elapsed().as_nanos();
            if batch.is_empty() {
                break;
            }
            let mut ectx = ElemCtx {
                now: Time::ZERO,
                compute: ComputeMode::Full,
                nls: &self.nls,
                worker: 0,
                inspector: &self.inspector,
            };
            let t1 = Instant::now();
            let outcome = self
                .graph
                .run_batch(&mut ectx, &self.cost, &self.counters, batch);
            graph_ns += t1.elapsed().as_nanos();
            black_box(outcome);
        }
        (build_ns as f64 / n, graph_ns as f64 / n)
    }

    fn element_busy_ns(&self) -> f64 {
        self.graph
            .profiles()
            .iter()
            .map(|p| p.busy.as_ns() as f64)
            .sum()
    }
}

/// Steps forever, one virtual microsecond at a time.
struct Ticker;

impl Entity for Ticker {
    fn step(&mut self, now: Time, _: &mut Ctx) -> Wake {
        Wake::At(now + Time::from_us(1))
    }
}

pub fn run(w: &Workload, seed: u64, rec: &mut Recorder, out: &mut Vec<(String, f64)>) {
    rec.span("ladder", |rec| {
        io_rungs(w, seed, rec, out);
        graph_rungs(w, seed, rec, out);
        kernel_rungs(rec, out);
        flow_rungs(rec, out);
        rung("sim.engine.step_ns", rec, out, || {
            let mut engine = Engine::new();
            for _ in 0..8 {
                engine.add(Box::new(Ticker), Time::ZERO);
            }
            let t0 = Instant::now();
            engine.run_until(Time::from_ms(25));
            t0.elapsed().as_nanos() as f64 / engine.steps() as f64
        });
    });
}

fn io_rungs(w: &Workload, seed: u64, rec: &mut Recorder, out: &mut Vec<(String, f64)>) {
    const N: u64 = 100_000;
    let gen_ns = rung("io.gen.ns_per_pkt", rec, out, || {
        // Stepped one virtual microsecond at a time, as the IO thread does.
        let pool = Mempool::new(1 << 15);
        let mut gen = TrafficGen::new(w.traffic(seed));
        let mut vnow = Time::ZERO;
        let mut made = 0u64;
        let t0 = Instant::now();
        while made < N {
            vnow += Time::from_us(1);
            made += gen.generate(vnow, &pool, &mut |p| drop(black_box(p)));
        }
        t0.elapsed().as_nanos() as f64 / made as f64
    });
    rung("io.buf.alloc_free_ns", rec, out, || {
        let pool = Mempool::new(64);
        per_call(N, |_| {
            let buf = pool.alloc().expect("pool holds one buffer");
            pool.free(black_box(buf));
        })
    });
    rung("io.toeplitz.hash_ns", rec, out, || {
        let hasher = Toeplitz::default();
        let mut x = XorShift(seed | 1);
        per_call(N, |_| {
            let r = x.next();
            black_box(hasher.hash_ipv4_l4(r as u32, (r >> 32) as u32, r as u16, (r >> 16) as u16));
        })
    });
    let mut held: VecDeque<Packet> = stamped_packets(w, seed, 4096).into();
    let deliver_ns = rung("io.rss.deliver_ns_per_pkt", rec, out, || {
        // Hash, steer, push, and pop in the same thread; the packets cycle.
        let (tx, rx) = spsc::channel(BATCH);
        let mut fanout = RssFanout::new(0, vec![tx]);
        per_call(N, |_| {
            let pkt = held.pop_front().expect("packets cycle");
            fanout.deliver(pkt).map_err(drop).expect("ring has room");
            held.push_back(rx.pop().expect("just delivered"));
        })
    });
    rung("io.spsc.push_pop_ns", rec, out, || {
        let (tx, rx) = spsc::channel::<u64>(4096);
        per_call(N, |i| {
            tx.push(i).expect("ring has room");
            black_box(rx.pop());
        })
    });
    rung("io.spsc.xthread_ns_per_pkt", rec, out, || {
        // Two threads: the only rung that is not single-threaded.
        let (tx, rx) = spsc::channel::<u64>(4096);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..N {
                    let mut v = i;
                    while let Err(back) = tx.push(v) {
                        v = back;
                        std::thread::yield_now();
                    }
                }
            });
            let mut got = 0;
            while got < N {
                match rx.pop() {
                    Some(v) => {
                        black_box(v);
                        got += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
        });
        t0.elapsed().as_nanos() as f64 / N as f64
    });
    // The IO thread's ceiling: it generates, then steers, every packet.
    out.push(("io.path_ns_per_pkt".to_owned(), gen_ns + deliver_ns));
}

fn graph_rungs(w: &Workload, seed: u64, rec: &mut Recorder, out: &mut Vec<(String, f64)>) {
    // Sized from a probe so that one repetition takes about 50 ms whatever
    // the workload's per-packet cost (20 µs for IPsec at 1024 B, 0.2 µs for
    // the router).
    let probe = Bench::new(w).run(stamped_packets(w, seed, 4 * BATCH)).1;
    let n = ((50e6 / probe.max(1.0)) as usize).clamp(8 * BATCH, 512 * BATCH) / BATCH * BATCH;
    let mut build = Vec::new();
    let mut dispatch = Vec::new();
    rung("core.graph.run_batch_ns_per_pkt", rec, out, || {
        let mut bench = Bench::new(w);
        let packets = stamped_packets(w, seed, n);
        let (build_ns, graph_ns) = bench.run(packets);
        build.push(build_ns);
        dispatch.push(graph_ns - bench.element_busy_ns() / n as f64);
        graph_ns
    });
    out.push(("core.batch.build_ns_per_pkt".to_owned(), fastest(&build)));
    out.push((
        "core.graph.dispatch_ns_per_pkt".to_owned(),
        fastest(&dispatch),
    ));
}

fn kernel_rungs(rec: &mut Recorder, out: &mut Vec<(String, f64)>) {
    let key = [0x42u8; 16];
    let iv = [7u8; 16];
    for (name, len, iters) in [
        ("crypto.aes.ctr_64B_ns", 64usize, 20_000u64),
        ("crypto.aes.ctr_1024B_ns", 1024, 2_000),
    ] {
        rung(name, rec, out, || {
            let aes = Aes128Ctr::new(&key);
            let mut data = vec![0xa5u8; len];
            per_call(iters, |_| {
                aes.apply_keystream(&iv, &mut data);
                black_box(&mut data);
            })
        });
    }
    for (name, len, iters) in [
        ("crypto.hmac.sha1_64B_ns", 64usize, 20_000u64),
        ("crypto.hmac.sha1_1024B_ns", 1024, 4_000),
    ] {
        rung(name, rec, out, || {
            let hmac = HmacSha1::new(&key);
            let data = vec![0x5au8; len];
            per_call(iters, |_| {
                black_box(hmac.mac(black_box(&data)));
            })
        });
    }

    let app = AppConfig::default();
    let rules = pipelines::rule_set(app.seed, app.ids_literals, app.ids_regexes);
    // Lowercase filler never matches (signatures use another alphabet), so
    // both automata scan every byte: the fast path's cost per byte.
    let mut x = XorShift(0x1d5);
    let payload: Vec<u8> = (0..1024).map(|_| b'a' + (x.next() % 26) as u8).collect();
    rung("matcher.aho.ns_per_byte", rec, out, || {
        per_call(2_000, |_| {
            black_box(rules.ac().first_match(black_box(&payload)));
        }) / payload.len() as f64
    });
    rung("matcher.regex.ns_per_byte", rec, out, || {
        per_call(200, |_| {
            black_box(rules.regex_match(black_box(&payload)));
        }) / payload.len() as f64
    });

    let table = pipelines::v4_table(app.seed, app.v4_routes, app.ports);
    let dsts: Vec<u32> = (0..65_536).map(|_| x.next() as u32).collect();
    rung("apps.ipv4.dir248_lookup_ns", rec, out, || {
        let t0 = Instant::now();
        for &d in &dsts {
            black_box(table.lookup(d));
        }
        t0.elapsed().as_nanos() as f64 / dsts.len() as f64
    });
}

fn flow_rungs(rec: &mut Recorder, out: &mut Vec<(String, f64)>) {
    const KEYS: usize = 4096;
    let key = |i: usize| FlowKey {
        proto: 6,
        src_ip: 0x0a00_0000 | i as u32,
        dst_ip: 0,
        src_port: (i % 50_000) as u16 + 1024,
        dst_port: 0,
    };
    let bucket = |i: usize| (i % nba_core::flow::FLOW_BUCKETS) as u16;
    // Short TTL and epoch so that ticking alone expires every entry.
    let cfg = FlowTableConfig {
        capacity: 1 << 16,
        ttl_epochs: 2,
        embryonic_ttl_epochs: 0,
        epoch_pkts: 16,
    };
    let mut insert = Vec::new();
    let mut expire = Vec::new();
    rung("core.flow.lookup_hit_ns", rec, out, || {
        let mut table = FlowTable::new(0, cfg, &FlowRegistry::new());
        let mut evicted = Vec::new();
        let t0 = Instant::now();
        for i in 0..KEYS {
            table
                .insert(bucket(i), key(i), i as u64, false, false, &mut evicted)
                .expect("table sized for the keys");
        }
        insert.push(t0.elapsed().as_nanos() as f64 / KEYS as f64);

        let lookup = per_call(8 * KEYS as u64, |i| {
            let i = i as usize % KEYS;
            black_box(table.lookup(bucket(i), &key(i), &mut evicted));
        });

        // Idle every entry out: tick each bucket through ttl+1 epochs.
        let ticks = cfg.epoch_pkts * (cfg.ttl_epochs + 1);
        let t1 = Instant::now();
        for b in 0..nba_core::flow::FLOW_BUCKETS {
            for _ in 0..ticks {
                table.tick(b as u16, &mut evicted);
            }
        }
        expire.push(t1.elapsed().as_nanos() as f64 / evicted.len().max(1) as f64);
        assert_eq!(evicted.len(), KEYS, "every entry should have idled out");
        lookup
    });
    out.push(("core.flow.insert_ns".to_owned(), fastest(&insert)));
    out.push(("core.flow.expire_ns_per_evict".to_owned(), fastest(&expire)));
}
