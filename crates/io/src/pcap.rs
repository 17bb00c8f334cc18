//! Pcap trace capture and replay.
//!
//! The paper's Figure 2/13 workloads replay a CAIDA 2013 trace. This module
//! provides the equivalent plumbing: classic libpcap-format files
//! (microsecond resolution, magic `0xa1b2c3d4`) written by the traffic
//! generators and replayed as a [`PacketSource`] at a configurable rate.

use std::io::{self, Read, Write};

use nba_sim::Time;

use crate::buf::{Mempool, MempoolCache, DEFAULT_BUF_CAPACITY, DEFAULT_HEADROOM};
use crate::packet::{Packet, WIRE_OVERHEAD_BYTES};
use crate::port::{rss_hash, Port};
use crate::toeplitz::Toeplitz;

/// Anything that can emit timestamped packets into the runtime.
///
/// Implemented by the synthetic [`crate::gen::TrafficGen`] and by
/// [`Replay`]. One stream, two ways to ask for it: the discrete-event
/// runtime offers it to a simulated NIC by virtual time
/// ([`offer`](PacketSource::offer)), the live runtime's IO threads ask by
/// count ([`generate_burst`](PacketSource::generate_burst)).
pub trait PacketSource {
    /// Offers every slot due strictly before `until`, at most `max_slots`
    /// of them, to `port`, pacing `ts_gen` timestamps accordingly; returns
    /// how many slots were offered. Each slot is put to the port's
    /// [`admit`](Port::admit) rule by its descriptor RSS hash *before* a
    /// buffer is taken from `pool` or a byte written, so a frame the NIC
    /// refuses never exists. Admitted frames are enqueued on the port.
    fn offer(&mut self, until: Time, max_slots: u64, pool: &Mempool, port: &mut Port) -> u64;

    /// Emits the next `count` packets of the stream into `sink`, allocating
    /// through the calling thread's `cache`. The packets carry no pool
    /// handle: the caller sends their buffers home. Returns the number emitted:
    /// short only when the source ran out or an allocation was refused.
    fn generate_burst(
        &mut self,
        count: usize,
        cache: &mut MempoolCache,
        sink: &mut dyn FnMut(Packet),
    ) -> u64;
}

impl PacketSource for crate::gen::TrafficGen {
    fn offer(&mut self, until: Time, max_slots: u64, pool: &Mempool, port: &mut Port) -> u64 {
        crate::gen::TrafficGen::offer(self, until, max_slots, pool, port)
    }

    fn generate_burst(
        &mut self,
        count: usize,
        cache: &mut MempoolCache,
        sink: &mut dyn FnMut(Packet),
    ) -> u64 {
        crate::gen::TrafficGen::generate_burst(self, count, cache, sink)
    }
}

/// Classic pcap global-header magic (microsecond timestamps, native order).
const PCAP_MAGIC: u32 = 0xa1b2_c3d4;
/// `LINKTYPE_ETHERNET`.
const LINKTYPE_ETHERNET: u32 = 1;

/// One record of a loaded trace.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Capture timestamp.
    pub ts: Time,
    /// Frame bytes.
    pub frame: Vec<u8>,
}

/// Writes a classic pcap file.
pub struct PcapWriter<W: Write> {
    out: W,
    records: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Creates a writer and emits the global header.
    pub fn new(mut out: W) -> io::Result<PcapWriter<W>> {
        out.write_all(&PCAP_MAGIC.to_le_bytes())?;
        out.write_all(&2u16.to_le_bytes())?; // Version major.
        out.write_all(&4u16.to_le_bytes())?; // Version minor.
        out.write_all(&0i32.to_le_bytes())?; // Timezone offset.
        out.write_all(&0u32.to_le_bytes())?; // Timestamp accuracy.
        out.write_all(&65535u32.to_le_bytes())?; // Snap length.
        out.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
        Ok(PcapWriter { out, records: 0 })
    }

    /// Appends one frame with the given capture timestamp.
    pub fn write(&mut self, ts: Time, frame: &[u8]) -> io::Result<()> {
        let us = ts.as_us();
        self.out
            .write_all(&((us / 1_000_000) as u32).to_le_bytes())?;
        self.out
            .write_all(&((us % 1_000_000) as u32).to_le_bytes())?;
        self.out.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.out.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.out.write_all(frame)?;
        self.records += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }
}

/// Reads an entire classic pcap file into memory.
///
/// Rejects nanosecond-resolution and byte-swapped variants (the writer
/// above never produces them).
pub fn read_pcap<R: Read>(mut input: R) -> io::Result<Vec<TraceRecord>> {
    let mut hdr = [0u8; 24];
    input.read_exact(&mut hdr)?;
    let magic = u32::from_le_bytes(hdr[0..4].try_into().unwrap());
    if magic != PCAP_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported pcap magic {magic:#010x}"),
        ));
    }
    let linktype = u32::from_le_bytes(hdr[20..24].try_into().unwrap());
    if linktype != LINKTYPE_ETHERNET {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported link type {linktype}"),
        ));
    }
    let mut records = Vec::new();
    loop {
        let mut rec = [0u8; 16];
        match input.read_exact(&mut rec) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e),
        }
        let sec = u64::from(u32::from_le_bytes(rec[0..4].try_into().unwrap()));
        let usec = u64::from(u32::from_le_bytes(rec[4..8].try_into().unwrap()));
        let caplen = u32::from_le_bytes(rec[8..12].try_into().unwrap()) as usize;
        if caplen > 65_535 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "corrupt record length",
            ));
        }
        let mut frame = vec![0u8; caplen];
        input.read_exact(&mut frame)?;
        records.push(TraceRecord {
            ts: Time::from_us(sec * 1_000_000 + usec),
            frame,
        });
    }
    Ok(records)
}

/// Replays a loaded trace as a [`PacketSource`].
///
/// Original inter-arrival gaps are ignored; the replay is re-paced to the
/// configured offered wire rate (how trace replay machines drive DUTs),
/// looping the trace as long as the runtime asks for packets.
pub struct Replay {
    records: Vec<TraceRecord>,
    /// Each record's receive-descriptor RSS hash, under the NIC's key.
    hashes: Vec<u32>,
    offered_gbps: f64,
    next_ts: Time,
    idx: usize,
    emitted: u64,
}

impl Replay {
    /// Creates a replay source at `offered_gbps` (wire rate).
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty, if a record is longer than a packet
    /// buffer ([`DEFAULT_BUF_CAPACITY`] bytes; the message names the
    /// record's index and length), or if the rate is not positive.
    pub fn new(records: Vec<TraceRecord>, offered_gbps: f64) -> Replay {
        assert!(!records.is_empty(), "cannot replay an empty trace");
        let oversize = records
            .iter()
            .position(|r| r.frame.len() > DEFAULT_BUF_CAPACITY);
        if let Some(i) = oversize {
            panic!(
                "trace record {i} is {} bytes, longer than a {DEFAULT_BUF_CAPACITY}-byte packet buffer",
                records[i].frame.len()
            );
        }
        assert!(offered_gbps > 0.0, "offered load must be positive");
        let nic = Toeplitz::default();
        let hashes = records.iter().map(|r| rss_hash(&nic, &r.frame)).collect();
        Replay {
            records,
            hashes,
            offered_gbps,
            next_ts: Time::ZERO,
            idx: 0,
            emitted: 0,
        }
    }

    /// Total packets emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Opens the next slot: the record to replay and its pacing timestamp.
    fn next_slot(&mut self) -> (usize, Time) {
        let idx = self.idx;
        self.idx = (self.idx + 1) % self.records.len();
        let ts = self.next_ts;
        let wire_bits = ((self.records[idx].frame.len() + WIRE_OVERHEAD_BYTES) * 8) as f64;
        self.next_ts += Time::from_secs_f64(wire_bits / (self.offered_gbps * 1e9));
        (idx, ts)
    }

    fn build(&mut self, idx: usize, ts: Time, mut pkt: Packet) -> Packet {
        let frame = &self.records[idx].frame;
        let buf = pkt.buf_mut();
        buf.fill(DEFAULT_HEADROOM.min(buf.capacity() - frame.len()), frame);
        pkt.ts_gen = ts;
        pkt.rss_hash = self.hashes[idx];
        self.emitted += 1;
        pkt
    }
}

impl PacketSource for Replay {
    fn offer(&mut self, until: Time, max_slots: u64, pool: &Mempool, port: &mut Port) -> u64 {
        let mut slots = 0;
        while slots < max_slots && self.next_ts < until {
            let (idx, ts) = self.next_slot();
            slots += 1;
            let Some(q) = port.admit(self.hashes[idx]) else {
                continue;
            };
            match pool.alloc() {
                Some(buf) => {
                    let pkt = self.build(idx, ts, Packet::from_pool(buf, pool.clone()));
                    port.enqueue(q, pkt);
                }
                None => port.nombuf(),
            }
        }
        slots
    }

    fn generate_burst(
        &mut self,
        count: usize,
        cache: &mut MempoolCache,
        sink: &mut dyn FnMut(Packet),
    ) -> u64 {
        for emitted in 0..count {
            let Some(buf) = cache.alloc() else {
                return emitted as u64;
            };
            let (idx, ts) = self.next_slot();
            sink(self.build(idx, ts, Packet::from_buf(buf)));
        }
        count as u64
    }
}

/// Caps any [`PacketSource`] at a fixed budget of stream slots.
///
/// The differential conformance suite runs the same seeded generator under
/// two very different clocks (the DES virtual clock and the live runtime's
/// real time); a budget makes "the first `n` slots" a well-defined workload
/// on both, since generator output depends only on the RNG sequence, never
/// on wall time. By time, every offered slot counts, whether the NIC
/// admitted it or not; by count, every emitted packet (a burst never skips
/// a slot).
pub struct Limited<S> {
    inner: S,
    remaining: u64,
}

impl<S> Limited<S> {
    /// Wraps `inner`, allowing at most `budget` slots in total.
    pub fn new(inner: S, budget: u64) -> Limited<S> {
        Limited {
            inner,
            remaining: budget,
        }
    }

    /// Slots still allowed.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// True once the budget is spent.
    pub fn exhausted(&self) -> bool {
        self.remaining == 0
    }
}

impl<S: PacketSource> PacketSource for Limited<S> {
    fn offer(&mut self, until: Time, max_slots: u64, pool: &Mempool, port: &mut Port) -> u64 {
        let slots = self
            .inner
            .offer(until, max_slots.min(self.remaining), pool, port);
        self.remaining -= slots;
        slots
    }

    fn generate_burst(
        &mut self,
        count: usize,
        cache: &mut MempoolCache,
        sink: &mut dyn FnMut(Packet),
    ) -> u64 {
        let count = count.min(usize::try_from(self.remaining).unwrap_or(usize::MAX));
        let emitted = self.inner.generate_burst(count, cache, sink);
        self.remaining -= emitted;
        emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{TrafficConfig, TrafficGen};

    #[test]
    fn write_read_round_trip() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            w.write(Time::from_us(5), b"frame-one-data").unwrap();
            w.write(Time::from_secs(2), b"x").unwrap();
            assert_eq!(w.records(), 2);
        }
        let recs = read_pcap(&buf[..]).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].ts, Time::from_us(5));
        assert_eq!(recs[0].frame, b"frame-one-data");
        assert_eq!(recs[1].ts, Time::from_secs(2));
        assert_eq!(recs[1].frame, b"x");
    }

    #[test]
    fn rejects_foreign_magic_and_linktype() {
        let mut bad = [0u8; 24];
        bad[0..4].copy_from_slice(&0xdead_beefu32.to_le_bytes());
        assert!(read_pcap(&bad[..]).is_err());

        let mut wrong_link = Vec::new();
        {
            let _ = PcapWriter::new(&mut wrong_link).unwrap();
        }
        wrong_link[20..24].copy_from_slice(&101u32.to_le_bytes());
        assert!(read_pcap(&wrong_link[..]).is_err());
    }

    /// A port with one RX queue of `depth` descriptors.
    fn port(depth: usize) -> Port {
        Port::new(0, 10.0, 1, depth)
    }

    /// Everything queued on the port, in arrival order.
    fn drain(port: &Port) -> Vec<Packet> {
        std::iter::from_fn(|| port.rx_queue(0).pop()).collect()
    }

    #[test]
    fn limited_caps_emission_exactly() {
        let pool = Mempool::new(1 << 12);
        let mut nic = port(1 << 12);
        let mut capped = Limited::new(TrafficGen::new(TrafficConfig::default()), 100);
        // Far more than 100 slots' worth of virtual time.
        let n = capped.offer(Time::from_ms(10), u64::MAX, &pool, &mut nic);
        assert_eq!(n, 100);
        assert_eq!(drain(&nic).len(), 100);
        assert!(capped.exhausted());
        assert_eq!(
            capped.offer(Time::from_ms(20), u64::MAX, &pool, &mut nic),
            0
        );
        assert_eq!(nic.counters().rx_delivered, 100);
    }

    #[test]
    fn limited_counts_offered_slots_not_admitted_frames() {
        // Eight descriptors for a 100-slot budget: the port refuses most
        // slots, and every refusal spends budget like an admission does.
        let pool = Mempool::new(1 << 12);
        let mut nic = Port::new(0, 10.0, 2, 4);
        let mut capped = Limited::new(TrafficGen::new(TrafficConfig::default()), 100);
        assert_eq!(capped.offer(Time::from_us(5), 30, &pool, &mut nic), 30);
        assert_eq!(capped.remaining(), 70);
        assert_eq!(
            capped.offer(Time::from_ms(10), u64::MAX, &pool, &mut nic),
            70
        );
        assert!(capped.exhausted());
        let c = nic.counters();
        assert_eq!(c.rx_delivered + c.rx_dropped, 100);
        assert!(c.rx_delivered <= 8 && c.rx_dropped >= 92, "{c:?}");
        // Refused frames never took a buffer.
        assert_eq!(pool.stats().allocs, c.rx_delivered);
    }

    #[test]
    fn limited_prefix_matches_unlimited_run() {
        let pool = Mempool::new(1 << 12);
        let mut full = TrafficGen::new(TrafficConfig::default());
        let mut frames = Vec::new();
        full.generate(Time::from_ms(1), &pool, &mut |p| {
            frames.push(p.data().to_vec());
        });
        assert!(frames.len() > 50);

        let mut nic = port(64);
        let mut capped = Limited::new(TrafficGen::new(TrafficConfig::default()), 50);
        capped.offer(Time::from_ms(1), u64::MAX, &pool, &mut nic);
        let prefix: Vec<Vec<u8>> = drain(&nic).iter().map(|p| p.data().to_vec()).collect();
        assert_eq!(prefix.len(), 50);
        assert_eq!(&frames[..50], &prefix[..]);
    }

    #[test]
    fn by_count_yields_the_same_stream_as_by_time() {
        // The live IO threads ask by count through a cache, the DES by
        // virtual time: same seed, same packets, same pacing stamps.
        let pool = Mempool::new(1 << 12);
        let cfg = TrafficConfig {
            l4: crate::gen::L4Proto::Tcp,
            flows: 8,
            flow_lifetime_pkts: 5,
            syn_flood_per_mille: 100,
            ..TrafficConfig::default()
        };
        let mut by_time = Vec::new();
        TrafficGen::new(cfg.clone()).generate(Time::from_us(100), &pool, &mut |p| {
            by_time.push((p.ts_gen, p.data().to_vec()));
        });
        assert!(by_time.len() > 100);

        let mut cache = MempoolCache::new(pool.clone(), 32);
        let mut capped = Limited::new(TrafficGen::new(cfg), by_time.len() as u64);
        let mut by_count = Vec::new();
        while !capped.exhausted() {
            // Odd burst sizes: the stream must not depend on the chunking.
            let n = capped.generate_burst(37, &mut cache, &mut |p| {
                by_count.push((p.ts_gen, p.data().to_vec()));
            });
            assert!(n > 0);
        }
        assert_eq!(by_count, by_time);
        assert_eq!(capped.generate_burst(37, &mut cache, &mut |_p| panic!()), 0);
    }

    #[test]
    fn by_count_stops_short_on_exhaustion_without_consuming_the_stream() {
        let pool = Mempool::new(1 << 12);
        let mut whole = Vec::new();
        TrafficGen::new(TrafficConfig::default()).generate(Time::from_us(5), &pool, &mut |p| {
            whole.push(p.data().to_vec());
        });
        assert!(whole.len() > 24);

        let tiny = Mempool::new(8);
        let mut cache = MempoolCache::new(tiny.clone(), 4);
        let mut gen = TrafficGen::new(TrafficConfig::default());
        let mut held = Vec::new();
        assert_eq!(gen.generate_burst(12, &mut cache, &mut |p| held.push(p)), 8);
        assert_eq!(gen.stats().alloc_failures, 1);
        assert_eq!(tiny.stats().exhausted, 1, "one refused refill");
        // Send the buffers home: the stream resumes exactly where it stopped.
        let mut frames: Vec<Vec<u8>> = held.iter().map(|p| p.data().to_vec()).collect();
        tiny.free_bulk(held.drain(..).map(Packet::into_buf));
        assert_eq!(
            gen.generate_burst(8, &mut cache, &mut |p| {
                frames.push(p.data().to_vec());
                held.push(p);
            }),
            8
        );
        tiny.free_bulk(held.drain(..).map(Packet::into_buf));
        assert_eq!(frames[..], whole[..16]);
        drop(cache);
        assert_eq!(tiny.outstanding(), 0);
        assert_eq!(tiny.stats().allocs, tiny.stats().frees);
    }

    #[test]
    fn generator_capture_then_replay_preserves_frames() {
        // Capture one millisecond of synthetic traffic into a pcap...
        let pool = Mempool::new(1 << 16);
        let mut gen = TrafficGen::new(TrafficConfig::default());
        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file).unwrap();
        let mut captured = Vec::new();
        gen.generate(Time::from_us(200), &pool, &mut |p| {
            w.write(p.ts_gen, p.data()).unwrap();
            captured.push(p.data().to_vec());
        });
        assert!(!captured.is_empty());

        // ...then replay it and compare frame bytes in order.
        let recs = read_pcap(&file[..]).unwrap();
        let mut replay = Replay::new(recs, 10.0);
        let mut nic = port(1 << 12);
        replay.offer(Time::from_us(200), u64::MAX, &pool, &mut nic);
        let replayed = drain(&nic);
        assert!(replayed.len() >= captured.len().min(8));
        for (a, b) in captured.iter().zip(&replayed) {
            assert_eq!(a, b.data());
            // The per-record descriptor hash is the NIC's hash of the bytes.
            assert_eq!(b.rss_hash, rss_hash(&Toeplitz::default(), a));
        }
    }

    #[test]
    fn admitted_slots_without_a_buffer_are_counted_as_rx_nombuf() {
        // Deep queues and an eight-buffer pool: the port admits every slot
        // and the pool, not the queue, loses the rest.
        let recs = vec![TraceRecord {
            ts: Time::ZERO,
            frame: vec![0u8; 64],
        }];
        let sources: [Box<dyn PacketSource>; 2] = [
            Box::new(TrafficGen::new(TrafficConfig::default())),
            Box::new(Replay::new(recs, 10.0)),
        ];
        for mut source in sources {
            let pool = Mempool::new(8);
            let mut nic = port(1 << 12);
            let slots = source.offer(Time::from_us(5), u64::MAX, &pool, &mut nic);
            let c = nic.counters();
            assert!(slots > 8 && c.rx_dropped == 0, "{slots} slots, {c:?}");
            assert_eq!(c.rx_delivered + c.rx_dropped + c.rx_nombuf, slots);
            assert_eq!((c.rx_delivered, c.rx_nombuf), (8, slots - 8));
            assert_eq!(pool.stats().exhausted, c.rx_nombuf);
        }
    }

    #[test]
    #[should_panic(expected = "trace record 1 is 4000 bytes")]
    fn replay_refuses_a_record_longer_than_a_buffer() {
        let rec = |len| TraceRecord {
            ts: Time::ZERO,
            frame: vec![0u8; len],
        };
        Replay::new(vec![rec(64), rec(4000)], 10.0);
    }

    #[test]
    fn replay_loops_and_paces() {
        let recs = vec![TraceRecord {
            ts: Time::ZERO,
            frame: vec![0u8; 64],
        }];
        let pool = Mempool::new(1 << 12);
        let mut r = Replay::new(recs, 10.0);
        let mut nic = port(1 << 12);
        let count = r.offer(Time::from_us(100), u64::MAX, &pool, &mut nic);
        // 10 Gbps of 64-byte frames = one per 67.2 ns => ~1488 in 100 us.
        assert!((1400..1600).contains(&count), "count = {count}");
        assert_eq!(nic.counters().rx_delivered, count);
        assert_eq!(r.emitted(), count);
    }
}
