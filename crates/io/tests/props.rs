//! Property tests of the I/O substrate invariants.

use proptest::prelude::*;

use std::collections::{HashMap, VecDeque};

use nba_io::buf::{Mempool, MempoolCache, PacketBuf};
use nba_io::checksum;
use nba_io::port::rss_hash;
use nba_io::proto::FrameBuilder;
use nba_io::spsc;
use nba_io::toeplitz::{queue_for_hash, Toeplitz};
use nba_io::{
    IpVersion, L4Proto, Packet, PacketSource, PayloadFill, Port, Replay, RssFanout, SizeDist,
    TraceRecord, TrafficConfig, TrafficGen,
};
use nba_sim::Time;

/// One generator shape per `kind`: v4 UDP, v4 TCP with lifetime churn and a
/// SYN flood, v6, Zipf-skewed, sequential; `payload` picks zero, ASCII or
/// planted UDP bodies (TCP bodies are never filled).
fn traffic(kind: u8, payload: u8, imix: bool, seed: u64) -> TrafficConfig {
    let base = TrafficConfig {
        offered_gbps: 40.0,
        size: if imix {
            SizeDist::Imix
        } else {
            SizeDist::Fixed(64)
        },
        flows: 64,
        payload: match payload {
            0 => PayloadFill::Zeros,
            1 => PayloadFill::Ascii,
            _ => PayloadFill::Plant {
                needle: b"ATTACK1".to_vec(),
                every: 3,
            },
        },
        seed,
        ..TrafficConfig::default()
    };
    match kind {
        0 => base,
        1 => TrafficConfig {
            l4: L4Proto::Tcp,
            flow_lifetime_pkts: 5,
            syn_flood_per_mille: 200,
            ..base
        },
        2 => TrafficConfig {
            ip_version: IpVersion::V6,
            ..base
        },
        3 => TrafficConfig {
            zipf_alpha: 1.1,
            ..base
        },
        _ => TrafficConfig {
            sequential: true,
            ..base
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// What the DES source offers a port: (a) every enqueued frame carries
    /// the descriptor hash the NIC computes from its bytes; (b) refusal
    /// does not change the stream — the frames that get through 2-slot
    /// queues are exactly the unconstrained stream's frames at the same
    /// `ts_gen`; (c) every offered slot is either delivered or refused.
    #[test]
    fn offered_frames_carry_the_nic_hash_and_refusal_keeps_the_stream(
        kind in 0u8..5,
        payload in 0u8..3,
        imix in any::<bool>(),
        queues in 1u16..5,
        seed in any::<u64>(),
    ) {
        let cfg = traffic(kind, payload, imix, seed);
        let horizon = Time::from_us(12);
        let pool = Mempool::new(1 << 12);
        let mut whole: HashMap<Time, Vec<u8>> = HashMap::new();
        TrafficGen::new(cfg.clone()).generate(horizon, &pool, &mut |p| {
            whole.insert(p.ts_gen, p.data().to_vec());
        });

        let nic = Toeplitz::default();
        let mut port = Port::new(0, 10.0, queues, 2);
        let mut gen = TrafficGen::new(cfg);
        let (mut slots, mut admitted) = (0, 0u64);
        let mut check = |port: &Port| -> Result<(), TestCaseError> {
            for q in 0..queues {
                while let Some(p) = port.rx_queue(q).pop() {
                    prop_assert_eq!(p.rss_hash, rss_hash(&nic, p.data()));
                    prop_assert_eq!(p.queue_in, q);
                    prop_assert_eq!(Some(p.data()), whole.get(&p.ts_gen).map(Vec::as_slice));
                    admitted += 1;
                }
            }
            Ok(())
        };
        // Drain every third half-microsecond window: the queues overflow
        // in between.
        for step in 1..=24 {
            slots += gen.offer(Time::from_ns(step * 500), u64::MAX, &pool, &mut port);
            if step % 3 == 0 {
                check(&port)?;
            }
        }
        prop_assert_eq!(slots, whole.len() as u64);
        let c = port.counters();
        prop_assert_eq!(c.rx_delivered + c.rx_dropped, slots);
        prop_assert_eq!(c.rx_delivered, admitted);
        prop_assert!(c.rx_dropped > 0, "no slot was refused");
        prop_assert_eq!(gen.stats().generated, admitted);
    }

    /// Every source stamps the receive-descriptor hash when it writes a
    /// frame: the packets of `generate`, of `generate_burst` through a
    /// thread cache (the same stream, pacing stamps included, whatever the
    /// burst size), and of a `Replay` (offered or by count) all carry
    /// `port::rss_hash` of their bytes. A fanout on a boot table steers by
    /// that stamp alone, to `queue_for_hash(hash, queues)`.
    #[test]
    fn every_source_stamps_the_descriptor_hash(
        kind in 0u8..5,
        payload in 0u8..3,
        imix in any::<bool>(),
        queues in 1u16..5,
        burst in 1usize..70,
        seed in any::<u64>(),
    ) {
        let cfg = traffic(kind, payload, imix, seed);
        let nic = Toeplitz::default();
        let stamped = |p: &Packet| -> Result<(), TestCaseError> {
            prop_assert_eq!(p.rss_hash, rss_hash(&nic, p.data()), "{:?}", p.data());
            Ok(())
        };
        let pool = Mempool::new(1 << 12);
        let mut by_time = Vec::new();
        TrafficGen::new(cfg.clone()).generate(Time::from_us(4), &pool, &mut |p| by_time.push(p));
        prop_assert!(by_time.len() > 8);
        by_time.iter().try_for_each(stamped)?;

        let mut cache = MempoolCache::new(pool.clone(), 32);
        let mut gen = TrafficGen::new(cfg);
        let mut by_count = Vec::new();
        while by_count.len() < by_time.len() {
            let want = burst.min(by_time.len() - by_count.len());
            gen.generate_burst(want, &mut cache, &mut |p| by_count.push(p));
        }
        by_count.iter().try_for_each(stamped)?;
        let frames = |ps: &[Packet]| -> Vec<_> { ps.iter().map(|p| (p.ts_gen, p.data().to_vec())).collect() };
        prop_assert_eq!(frames(&by_count), frames(&by_time));

        // A replay of the same frames, offered to a port and asked by count.
        let records = by_time
            .iter()
            .map(|p| TraceRecord { ts: p.ts_gen, frame: p.data().to_vec() })
            .collect();
        let mut replay = Replay::new(records, 40.0);
        let mut port = Port::new(0, 10.0, queues, 1 << 10);
        replay.offer(Time::from_us(4), u64::MAX, &pool, &mut port);
        for q in 0..queues {
            std::iter::from_fn(|| port.rx_queue(q).pop()).try_for_each(|p| stamped(&p))?;
        }
        let mut replayed = Vec::new();
        replay.generate_burst(burst, &mut cache, &mut |p| replayed.push(p));
        replayed.iter().try_for_each(stamped)?;

        let (txs, rxs): (Vec<_>, Vec<_>) = (0..queues).map(|_| spsc::channel(1 << 10)).unzip();
        let mut fanout = RssFanout::new(7, txs);
        for p in by_count {
            let hash = p.rss_hash;
            let q = fanout.deliver(p).map_err(drop).expect("ring has room");
            prop_assert_eq!(q, queue_for_hash(hash, queues));
            let got = rxs[usize::from(q)].pop().expect("just delivered");
            prop_assert_eq!((got.rss_hash, got.port_in, got.queue_in), (hash, 7, q));
        }
    }
}

proptest! {
    /// The incremental checksum update (RFC 1624) always agrees with a
    /// full recomputation after any 16-bit field change.
    #[test]
    fn incremental_checksum_equals_recompute(
        mut hdr in proptest::collection::vec(any::<u8>(), 20),
        field in 0usize..10,
        newval in any::<u16>(),
    ) {
        // Write a valid checksum first.
        hdr[10] = 0;
        hdr[11] = 0;
        let c0 = checksum::internet_checksum(&hdr);
        hdr[10..12].copy_from_slice(&c0.to_be_bytes());

        let off = field * 2;
        // The checksum field itself is not a data field.
        prop_assume!(off != 10);
        let old = u16::from_be_bytes([hdr[off], hdr[off + 1]]);
        hdr[off..off + 2].copy_from_slice(&newval.to_be_bytes());
        let inc = checksum::incremental_update(c0, old, newval);

        hdr[10] = 0;
        hdr[11] = 0;
        let full = checksum::internet_checksum(&hdr);
        // One's-complement arithmetic has two zero representations; both
        // verify, but direct comparison needs normalization.
        let norm = |c: u16| if c == 0xffff { 0 } else { c };
        prop_assert_eq!(norm(inc), norm(full));
    }

    /// Checksum over parts equals checksum over the concatenation, for any
    /// split points.
    #[test]
    fn checksum_parts_split_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..200),
        cut1 in 0usize..200,
        cut2 in 0usize..200,
    ) {
        let a = cut1.min(data.len());
        let b = cut2.min(data.len()).max(a);
        let whole = checksum::internet_checksum(&data);
        let parts = checksum::internet_checksum_parts(&[&data[..a], &data[a..b], &data[b..]]);
        prop_assert_eq!(whole, parts);
    }

    /// Mempool accounting never goes negative or exceeds capacity, under
    /// any interleaving of per-packet, bulk and cached allocs and frees:
    /// buffers parked in a thread cache count against the budget, a refused
    /// refill counts `exhausted` once, and when every buffer has gone home
    /// and every cache is gone nothing is outstanding and `allocs == frees`.
    #[test]
    fn mempool_accounting(ops in proptest::collection::vec((0u8..7, 1usize..9), 1..200)) {
        const BUDGET: usize = 16;
        let pool = Mempool::new(BUDGET);
        let mut caches = [
            Some(MempoolCache::new(pool.clone(), 3)),
            Some(MempoolCache::new(pool.clone(), 5)),
        ];
        let mut held: Vec<PacketBuf> = Vec::new();
        let mut pkts: Vec<Packet> = Vec::new();
        for (op, n) in ops {
            let cached = |cs: &[Option<MempoolCache>]| -> usize {
                cs.iter().flatten().map(MempoolCache::cached).sum()
            };
            match op {
                0 => held.extend(pool.alloc()),
                1 => {
                    if let Some(b) = held.pop() {
                        pool.free(b);
                    }
                }
                2 => {
                    let before = pool.stats().exhausted;
                    let got = pool.alloc_bulk(n, &mut held);
                    prop_assert!(got <= n);
                    prop_assert_eq!(pool.stats().exhausted - before, u64::from(got == 0));
                }
                3 => {
                    let keep = held.len().saturating_sub(n);
                    pool.free_bulk(held.drain(keep..));
                }
                4 | 5 => {
                    // Through a cache, as a handle-free packet (the IO
                    // thread's path).
                    if let Some(cache) = caches[usize::from(op - 4)].as_mut() {
                        let refill = cache.cached() == 0;
                        let before = pool.stats().exhausted;
                        let got = cache.alloc();
                        let refused = u64::from(refill && got.is_none());
                        prop_assert_eq!(pool.stats().exhausted - before, refused);
                        pkts.extend(got.map(Packet::from_buf));
                    }
                }
                _ => {
                    // A cache dies (flushes), or packets go home in bulk.
                    if n == 1 {
                        caches[pkts.len() % 2] = None;
                    } else {
                        let keep = pkts.len().saturating_sub(n);
                        pool.free_bulk(pkts.drain(keep..).map(Packet::into_buf));
                    }
                }
            }
            let out = held.len() + pkts.len() + cached(&caches);
            prop_assert_eq!(pool.outstanding(), out);
            prop_assert!(pool.outstanding() <= BUDGET);
            prop_assert_eq!(pool.available(), BUDGET - out);
        }
        pool.free_bulk(held.drain(..));
        pool.free_bulk(pkts.drain(..).map(Packet::into_buf));
        drop(caches);
        prop_assert_eq!(pool.outstanding(), 0);
        let stats = pool.stats();
        prop_assert_eq!(stats.allocs, stats.frees);
    }

    /// Buffers that die with their packets are written off with `forget`,
    /// under any interleaving with burst allocs and frees: the budget gets
    /// them back at once, and the books close as
    /// `allocs == frees + forgotten` with nothing outstanding.
    #[test]
    fn forgotten_buffers_close_the_books(
        ops in proptest::collection::vec((0u8..3, 1usize..9), 1..200),
    ) {
        const BUDGET: usize = 16;
        let pool = Mempool::new(BUDGET);
        let mut cache = MempoolCache::new(pool.clone(), 4);
        let mut pkts: Vec<Packet> = Vec::new();
        let mut lost = 0u64;
        for (op, n) in ops {
            let keep = pkts.len().saturating_sub(n);
            match op {
                0 => pkts.extend((0..n).map_while(|_| cache.alloc()).map(Packet::from_buf)),
                1 => pool.free_bulk(pkts.drain(keep..).map(Packet::into_buf)),
                _ => {
                    let gone = pkts.drain(keep..).count() as u64;
                    pool.forget(gone);
                    lost += gone;
                }
            }
            prop_assert_eq!(pool.outstanding(), pkts.len() + cache.cached());
            prop_assert_eq!(pool.available(), BUDGET - pool.outstanding());
            prop_assert_eq!(pool.stats().forgotten, lost);
        }
        pool.free_bulk(pkts.drain(..).map(Packet::into_buf));
        drop(cache);
        prop_assert_eq!(pool.outstanding(), 0);
        let stats = pool.stats();
        prop_assert_eq!(stats.allocs, stats.frees + stats.forgotten);
    }

    /// Any interleaving of `push`, `push_burst`, `pop`, `pop_burst` behaves
    /// like a bounded FIFO: order kept, never more than `capacity` queued,
    /// a burst larger than the free space makes partial progress (the
    /// refused tail stays with the caller, one refusal counted), and the
    /// ring reports disconnected only after the producer is gone *and* the
    /// queue drained — the cached cursors must not hide a final push.
    /// Capacities up to 80 have pages of up to 20 slots (a quarter of the
    /// ring), and bursts up to 40 items, so bursts straddle page boundaries
    /// and the wrap, and start and end mid-page.
    #[test]
    fn spsc_matches_a_bounded_fifo_model(
        capacity in 1usize..80,
        ops in proptest::collection::vec((0u8..4, 1usize..40), 1..160),
    ) {
        let (tx, rx) = spsc::channel::<u32>(capacity);
        let gauges = rx.gauges();
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        let mut refusals = 0u64;
        for (op, n) in ops {
            match op {
                0 => {
                    let full = model.len() == capacity;
                    prop_assert_eq!(tx.push(next), if full { Err(next) } else { Ok(()) });
                    if full {
                        refusals += 1;
                    } else {
                        model.push_back(next);
                        next += 1;
                    }
                }
                1 => {
                    let mut burst: Vec<u32> = (next..next + n as u32).collect();
                    let fit = n.min(capacity - model.len());
                    prop_assert_eq!(tx.push_burst(&mut burst), fit);
                    // What the ring refused is still the caller's, in order.
                    prop_assert_eq!(&burst[..], &(next + fit as u32..next + n as u32).collect::<Vec<_>>()[..]);
                    model.extend(next..next + fit as u32);
                    next += fit as u32;
                    refusals += u64::from(fit < n);
                }
                2 => prop_assert_eq!(rx.pop(), model.pop_front()),
                _ => {
                    let mut got = Vec::new();
                    let want = n.min(model.len());
                    prop_assert_eq!(rx.pop_burst(n, |v| got.push(v)), want);
                    prop_assert_eq!(got, model.drain(..want).collect::<Vec<_>>());
                }
            }
            prop_assert_eq!(tx.len(), model.len());
            prop_assert_eq!(rx.len(), model.len());
            prop_assert_eq!(gauges.occupancy(), model.len());
            prop_assert!(gauges.high_water() <= capacity);
            prop_assert!(gauges.high_water() >= model.len());
            prop_assert_eq!(gauges.enqueue_failed(), refusals);
            prop_assert!(!rx.is_disconnected());
        }
        // A final push right before the producer goes away.
        if model.len() < capacity {
            tx.push(next).unwrap();
            model.push_back(next);
        }
        drop(tx);
        while let Some(want) = model.pop_front() {
            prop_assert!(!rx.is_disconnected(), "still holds {want}");
            prop_assert_eq!(rx.pop(), Some(want));
        }
        prop_assert!(rx.is_disconnected());
        prop_assert_eq!(rx.pop_burst(8, |_| ()), 0);
    }

    /// Prepend/append/adj/trim keep the data window consistent.
    #[test]
    fn packet_buf_window_ops(
        ops in proptest::collection::vec((0u8..4, 1usize..64), 0..50),
    ) {
        let mut b = PacketBuf::with_capacity(512, 128);
        b.fill(128, &[0xab; 64]);
        let mut model: (usize, usize) = (128, 64); // (off, len)
        for (op, n) in ops {
            match op {
                0 => {
                    if b.prepend(n).is_some() {
                        model = (model.0 - n, model.1 + n);
                    }
                }
                1 => {
                    if b.append(n).is_some() {
                        model = (model.0, model.1 + n);
                    }
                }
                2 => {
                    if b.adj(n) {
                        model = (model.0 + n, model.1 - n);
                    }
                }
                _ => {
                    if b.trim(n) {
                        model = (model.0, model.1 - n);
                    }
                }
            }
            prop_assert_eq!(b.headroom(), model.0);
            prop_assert_eq!(b.len(), model.1);
            prop_assert_eq!(b.data().len(), model.1);
            prop_assert!(b.headroom() + b.len() + b.tailroom() == 512);
        }
    }

    /// A right-sized buffer is indistinguishable from a full-sized one:
    /// random `fill` / `set_region` / `append` / `prepend` / `adj` /
    /// `trim` / `reset` sequences, and reuse with a larger region, give the
    /// same results, bytes, headroom, tailroom and capacity as today's
    /// arithmetic over a zero-filled vector of the whole capacity, and the
    /// physical bytes never exceed the logical capacity.
    #[test]
    fn right_sized_buffers_match_a_full_sized_model(
        capacity in 64usize..2049,
        ops in proptest::collection::vec((0u8..8, any::<u16>(), any::<u16>(), any::<u8>()), 1..60),
    ) {
        let headroom = capacity / 16;
        let mut b = PacketBuf::with_capacity(capacity, headroom);
        let (mut bytes, mut off, mut len) = (vec![0u8; capacity], headroom, 0usize);
        for (op, x, y, k) in ops {
            let (x, y) = (usize::from(x) % (capacity + 1), usize::from(y) % (capacity + 1));
            // Writes a recognizable pattern into a region the caller owns.
            let pattern = |region: &mut [u8]| region.iter_mut().for_each(|v| *v = k);
            match op {
                0 => {
                    let (h, n) = (x, y.min(capacity - x));
                    let payload = vec![k; n];
                    b.fill(h, &payload);
                    bytes[h..h + n].copy_from_slice(&payload);
                    (off, len) = (h, n);
                }
                1 | 7 => {
                    // 7: recycle, then reuse the buffer for a larger region.
                    let h = if op == 7 { b.reset(x); x } else { x };
                    let n = if op == 7 { (len + y).min(capacity - h) } else { y.min(capacity - h) };
                    let region = b.set_region(h, n);
                    prop_assert_eq!(&*region, &bytes[h..h + n]);
                    if k % 2 == 1 {
                        pattern(region);
                        pattern(&mut bytes[h..h + n]);
                    }
                    (off, len) = (h, n);
                }
                2 => {
                    let fits = x <= capacity - off - len;
                    let got = b.append(x);
                    prop_assert_eq!(got.is_some(), fits);
                    if let Some(region) = got {
                        prop_assert_eq!(&*region, &bytes[off + len..off + len + x]);
                        pattern(region);
                        pattern(&mut bytes[off + len..off + len + x]);
                        len += x;
                    }
                }
                3 => {
                    let got = b.prepend(x);
                    prop_assert_eq!(got.is_some(), x <= off);
                    if let Some(region) = got {
                        prop_assert_eq!(&*region, &bytes[off - x..off]);
                        pattern(region);
                        pattern(&mut bytes[off - x..off]);
                        (off, len) = (off - x, len + x);
                    }
                }
                4 => {
                    prop_assert_eq!(b.adj(x), x <= len);
                    if x <= len {
                        (off, len) = (off + x, len - x);
                    }
                }
                5 => {
                    prop_assert_eq!(b.trim(x), x <= len);
                    if x <= len {
                        len -= x;
                    }
                }
                _ => {
                    b.reset(x);
                    (off, len) = (x, 0);
                }
            }
            prop_assert_eq!(b.data(), &bytes[off..off + len]);
            prop_assert_eq!(b.headroom(), off);
            prop_assert_eq!(b.tailroom(), capacity - off - len);
            prop_assert_eq!(b.capacity(), capacity);
            prop_assert!(b.allocated() <= capacity);
        }
    }

    /// Any frame built by the builder parses back with a valid checksum.
    #[test]
    fn built_frames_always_valid(
        len in 42usize..1514,
        src in any::<u32>(),
        dst in any::<u32>(),
        sport in 1u16..u16::MAX,
        dport in 1u16..u16::MAX,
    ) {
        let mut f = vec![0u8; len];
        let b = FrameBuilder {
            src_port: sport,
            dst_port: dport,
            ..FrameBuilder::default()
        };
        b.build_ipv4(&mut f, len, src, dst);
        let eth = nba_io::proto::ether::EtherView::parse(&f).unwrap();
        let ip = nba_io::proto::ipv4::Ipv4View::parse(eth.payload()).unwrap();
        prop_assert!(ip.checksum_ok());
        prop_assert_eq!(ip.src(), src);
        prop_assert_eq!(ip.dst(), dst);
        let udp = nba_io::proto::l4::UdpView::parse(ip.payload()).unwrap();
        prop_assert_eq!(udp.src_port(), sport);
        prop_assert_eq!(udp.dst_port(), dport);
    }

    /// The RSS queue mapping stays in range for any hash and queue count.
    #[test]
    fn rss_queue_in_range(hash in any::<u32>(), queues in 1u16..128) {
        prop_assert!(queue_for_hash(hash, queues) < queues);
    }

    /// The Toeplitz hash is deterministic and direction-sensitive.
    #[test]
    fn toeplitz_sensitivity(src in any::<u32>(), dst in any::<u32>()) {
        let t = Toeplitz::default();
        prop_assert_eq!(t.hash_ipv4(src, dst), t.hash_ipv4(src, dst));
        if src != dst {
            // Swapping src/dst flows the other way; hashes usually differ
            // (they are not symmetric). Just assert determinism holds and
            // the value depends on inputs in at least some cases.
            let _ = t.hash_ipv4(dst, src);
        }
    }
}
