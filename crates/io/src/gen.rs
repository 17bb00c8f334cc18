//! Offered-load traffic generation.
//!
//! The paper's workload is "randomly generated IP traffic with UDP payloads"
//! offered at a fixed rate (up to 80 Gbps across 8 ports), plus a replayed
//! CAIDA 2013 trace for the mixed-size IPsec experiments. This module
//! provides deterministic (seeded) generators for both: fixed-size sweeps,
//! the classic IMIX mix, and a CAIDA-like empirical size mix over a Zipf
//! flow population.
//!
//! Rates are *wire rates*: a 10 Gbps offered load of 64-byte frames is
//! 14.88 Mpps, matching how line rate is accounted on real hardware.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use nba_sim::Time;

use crate::buf::{Mempool, MempoolCache, DEFAULT_HEADROOM};
use crate::packet::{Packet, WIRE_OVERHEAD_BYTES};
use crate::port::Port;
use crate::proto::{self, FrameBuilder};
use crate::toeplitz::Toeplitz;

/// Frame-size distribution of a generated stream.
#[derive(Debug, Clone, PartialEq)]
pub enum SizeDist {
    /// Every frame has the same length.
    Fixed(usize),
    /// Simple IMIX: 64 B (7/12), 594 B (4/12), 1518 B (1/12).
    Imix,
    /// A CAIDA-backbone-like empirical mix: bimodal small/large with a
    /// realistic mean around 700 B of wire load.
    CaidaLike,
    /// Uniform over `[min, max]`.
    Uniform {
        /// Smallest frame length.
        min: usize,
        /// Largest frame length.
        max: usize,
    },
}

impl SizeDist {
    /// Samples one frame length.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        match self {
            SizeDist::Fixed(n) => *n,
            SizeDist::Imix => match rng.gen_range(0..12) {
                0..=6 => 64,
                7..=10 => 594,
                _ => 1518,
            },
            SizeDist::CaidaLike => {
                // (frame length, per-mille probability).
                const MIX: [(usize, u32); 6] = [
                    (64, 700),
                    (128, 140),
                    (256, 60),
                    (576, 40),
                    (1024, 20),
                    (1500, 40),
                ];
                let mut roll = rng.gen_range(0..1000u32);
                for (len, p) in MIX {
                    if roll < p {
                        return len;
                    }
                    roll -= p;
                }
                1500
            }
            SizeDist::Uniform { min, max } => rng.gen_range(*min..=*max),
        }
    }
}

/// IP version of the generated traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpVersion {
    /// IPv4 + UDP.
    V4,
    /// IPv6 + UDP.
    V6,
}

/// How UDP payload bytes are filled.
#[derive(Debug, Clone, PartialEq)]
pub enum PayloadFill {
    /// Zero bytes (fastest; default for timing runs).
    Zeros,
    /// Pseudo-random lowercase ASCII (for pattern-matching workloads).
    Ascii,
    /// ASCII background with `needle` planted into every `every`-th packet
    /// (for IDS detection tests).
    Plant {
        /// The byte string to plant.
        needle: Vec<u8>,
        /// Planting period in packets (1 = every packet).
        every: u32,
    },
}

/// L4 protocol of the generated traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum L4Proto {
    /// UDP datagrams (the paper's workload).
    #[default]
    Udp,
    /// TCP segments with per-flow SYN / data / FIN sequencing, for
    /// stateful elements (conntrack, NAT bindings with connection
    /// lifecycle).
    Tcp,
}

/// Configuration of one traffic source (typically one per port).
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Offered load in wire Gbps.
    pub offered_gbps: f64,
    /// Frame-size distribution.
    pub size: SizeDist,
    /// IPv4 or IPv6 headers.
    pub ip_version: IpVersion,
    /// Number of distinct flows (5-tuples).
    pub flows: usize,
    /// Zipf skew across flows; 0.0 = uniform.
    pub zipf_alpha: f64,
    /// Payload contents.
    pub payload: PayloadFill,
    /// RNG seed (generators are fully deterministic).
    pub seed: u64,
    /// L4 protocol. TCP is IPv4-only and emits SYN on a flow's first
    /// packet, FIN on its last (when `flow_lifetime_pkts` is set).
    pub l4: L4Proto,
    /// Flow churn: after this many packets a flow ends (TCP flows emit a
    /// FIN) and is replaced by a freshly drawn identity — a long-lived
    /// arrival/expiration mix. 0 = flows live forever.
    pub flow_lifetime_pkts: u64,
    /// SYN-flood injection (TCP only): this many slots per thousand are
    /// one-shot SYNs from never-repeated random sources.
    pub syn_flood_per_mille: u32,
    /// Round-robin flow selection instead of random draws: packet `i`
    /// belongs to flow `i % flows`. Guarantees full flow coverage in one
    /// cycle (million-flow occupancy runs need every flow touched without
    /// a coupon-collector tail).
    pub sequential: bool,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            offered_gbps: 10.0,
            size: SizeDist::Fixed(64),
            ip_version: IpVersion::V4,
            flows: 4096,
            zipf_alpha: 0.0,
            payload: PayloadFill::Zeros,
            seed: 0x6e62_615f_7267, // "nba_rg"
            l4: L4Proto::Udp,
            flow_lifetime_pkts: 0,
            syn_flood_per_mille: 0,
            sequential: false,
        }
    }
}

/// One flow identity: the addresses and ports its frames carry.
#[derive(Debug, Clone, Copy)]
struct Flow {
    src_v4: u32,
    dst_v4: u32,
    src_v6: u128,
    dst_v6: u128,
    src_port: u16,
    dst_port: u16,
}

impl Flow {
    /// Draws a random identity, with the receive-descriptor hash the NIC
    /// computes from every frame it sends: `port::rss_hash` of the 4-tuple
    /// for UDP, of the addresses for TCP.
    fn draw(rng: &mut SmallRng, cfg: &TrafficConfig, nic: &Toeplitz) -> (Flow, u32) {
        let src_v4 = rng.gen();
        let dst_v4 = rng.gen();
        // Randomize all 96 bits below the documentation /32 so prefixes at
        // every length see diverse traffic.
        let src_v6 = 0x2001_0db8 << 96 | (rng.gen::<u128>() >> 32);
        let dst_v6 = 0x2001_0db8 << 96 | (rng.gen::<u128>() >> 32);
        let src_port = rng.gen_range(1024..u16::MAX);
        let dst_port = rng.gen_range(1..1024);
        let rss_hash = match (cfg.ip_version, cfg.l4) {
            (IpVersion::V4, L4Proto::Udp) => nic.hash_ipv4_l4(src_v4, dst_v4, src_port, dst_port),
            (IpVersion::V4, L4Proto::Tcp) => nic.hash_ipv4(src_v4, dst_v4),
            (IpVersion::V6, _) => nic.hash_ipv6_l4(src_v6, dst_v6, src_port, dst_port),
        };
        let flow = Flow {
            src_v4,
            dst_v4,
            src_v6,
            dst_v6,
            src_port,
            dst_port,
        };
        (flow, rss_hash)
    }
}

/// Whose identity a slot's frame carries.
#[derive(Debug, Clone, Copy)]
enum Sender {
    /// Flow `i` of the table, unchanged until the slot is written.
    Table(usize),
    /// An identity in no table: a SYN-flood source, or a flow that expired
    /// at this slot (churn has already put its successor in the table).
    Gone(Flow),
}

/// One slot of the stream, drawn but not yet written: everything its frame
/// will say except the payload filler's bytes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    len: usize,
    ts: Time,
    /// The sender's receive-descriptor hash: all the port's admission reads.
    hash: u32,
    sender: Sender,
    tcp_flags: u8,
    tcp_seq: u32,
}

/// Generator statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenStats {
    /// Frames built. A slot the port refused builds none.
    pub generated: u64,
    /// Sum of generated frame bits.
    pub frame_bits: u64,
    /// Slots that got no buffer because the pool was exhausted. Such a slot
    /// still makes its draws, so the stream does not depend on the pool.
    pub alloc_failures: u64,
}

/// Per-flow connection state (TCP sequencing and lifetime churn).
#[derive(Debug, Clone, Copy, Default)]
struct FlowState {
    /// Packets emitted for the current flow identity.
    pkts: u64,
}

/// A deterministic offered-load packet source.
///
/// Every slot of the stream is made in two steps. *Drawing* it makes its
/// random choices — length, pacing stamp, flow, TCP flags, payload filler —
/// and *writing* it puts the frame into a buffer. The flow's RSS hash is
/// known from the draw, so a by-time source ([`offer`](TrafficGen::offer))
/// can be refused by the NIC before it writes anything. A slot makes the
/// same draws whether it is written, refused or short of a buffer, so one
/// seed is one stream.
///
/// The flow table is split by who reads it. A refused slot reads one `u32`
/// of `hashes`; the identity in `flows` is read only to write a frame, and
/// `state` only when the traffic has a lifecycle.
pub struct TrafficGen {
    cfg: TrafficConfig,
    rng: SmallRng,
    /// The NIC's hasher (`Port` hashes with the default key), for the
    /// descriptor hash of every flow identity drawn.
    nic: Toeplitz,
    /// Each flow's receive-descriptor hash.
    hashes: Vec<u32>,
    /// Each flow's identity.
    flows: Vec<Flow>,
    /// Per-flow lifecycle state (TCP flags, lifetime churn); empty when
    /// the traffic has none (UDP flows that live forever).
    state: Vec<FlowState>,
    /// Cumulative Zipf weights (empty when uniform).
    zipf_cdf: Vec<f64>,
    builder: FrameBuilder,
    next_ts: Time,
    /// The last frame length paced and its wire time at the offered rate.
    gap: (usize, Time),
    seq: u64,
    stats: GenStats,
}

impl TrafficGen {
    /// Creates a generator from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no flows, a non-positive rate, or
    /// asks for TCP over IPv6 (unsupported).
    pub fn new(cfg: TrafficConfig) -> TrafficGen {
        assert!(cfg.flows > 0, "traffic needs at least one flow");
        assert!(cfg.offered_gbps > 0.0, "offered load must be positive");
        assert!(
            cfg.l4 == L4Proto::Udp || cfg.ip_version == IpVersion::V4,
            "TCP generation is IPv4-only"
        );
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let nic = Toeplitz::default();
        let (flows, hashes) = (0..cfg.flows)
            .map(|_| Flow::draw(&mut rng, &cfg, &nic))
            .unzip();
        let zipf_cdf = if cfg.zipf_alpha > 0.0 {
            let mut acc = 0.0;
            let mut cdf = Vec::with_capacity(cfg.flows);
            for rank in 1..=cfg.flows {
                acc += 1.0 / (rank as f64).powf(cfg.zipf_alpha);
                cdf.push(acc);
            }
            for w in &mut cdf {
                *w /= acc;
            }
            cdf
        } else {
            Vec::new()
        };
        let lifecycle = cfg.l4 == L4Proto::Tcp || cfg.flow_lifetime_pkts > 0;
        let state = vec![FlowState::default(); if lifecycle { cfg.flows } else { 0 }];
        TrafficGen {
            cfg,
            rng,
            nic,
            hashes,
            flows,
            state,
            zipf_cdf,
            builder: FrameBuilder::default(),
            next_ts: Time::ZERO,
            gap: (0, Time::ZERO),
            seq: 0,
            stats: GenStats::default(),
        }
    }

    /// The generator's statistics so far.
    pub fn stats(&self) -> GenStats {
        self.stats
    }

    /// Minimum frame length this configuration can produce.
    fn min_len(&self) -> usize {
        match (self.cfg.ip_version, self.cfg.l4) {
            (IpVersion::V4, L4Proto::Udp) => FrameBuilder::MIN_V4_LEN,
            (IpVersion::V4, L4Proto::Tcp) => FrameBuilder::MIN_V4_TCP_LEN,
            (IpVersion::V6, _) => FrameBuilder::MIN_V6_LEN,
        }
    }

    fn pick_flow(&mut self) -> usize {
        if self.cfg.sequential {
            // `seq` was already advanced for this packet.
            ((self.seq - 1) % self.hashes.len() as u64) as usize
        } else if self.zipf_cdf.is_empty() {
            self.rng.gen_range(0..self.hashes.len())
        } else {
            let u: f64 = self.rng.gen();
            self.zipf_cdf
                .partition_point(|&c| c < u)
                .min(self.hashes.len() - 1)
        }
    }

    /// Draws a fresh flow identity (lifetime churn replacement, SYN-flood
    /// source).
    fn fresh_flow(&mut self) -> (Flow, u32) {
        Flow::draw(&mut self.rng, &self.cfg, &self.nic)
    }

    /// Offers every slot due strictly before `until`, at most `max_slots`
    /// of them, to `port`; returns how many slots it offered.
    ///
    /// Each slot makes all its draws, then asks the port to
    /// [`admit`](Port::admit) its flow's RSS hash. Only an admitted slot
    /// takes a buffer from `pool` and writes its frame; a refused one
    /// (counted by the port) allocates nothing and writes nothing. An
    /// admitted slot the pool cannot serve is lost and counted in the
    /// port's `rx_nombuf` and in [`GenStats::alloc_failures`].
    pub fn offer(&mut self, until: Time, max_slots: u64, pool: &Mempool, port: &mut Port) -> u64 {
        let mut slots = 0;
        while slots < max_slots && self.next_ts < until {
            let slot = self.draw();
            slots += 1;
            let Some(q) = port.admit(slot.hash) else {
                self.skip_payload(slot.len);
                continue;
            };
            match pool.alloc() {
                Some(buf) => {
                    let pkt = self.write(&slot, Packet::from_pool(buf, pool.clone()));
                    port.enqueue(q, pkt);
                }
                None => {
                    port.nombuf();
                    self.lose(&slot);
                }
            }
        }
        slots
    }

    /// Emits every packet due strictly before `until` into `sink`.
    ///
    /// Packets carry `ts_gen` pacing timestamps spaced so the stream's wire
    /// rate equals the configured offered load. Returns the number emitted.
    /// A slot whose allocation fails is lost (counted, its draws still
    /// made): an exhausted pool drops offered load, it neither delays nor
    /// reshapes it.
    pub fn generate(&mut self, until: Time, pool: &Mempool, sink: &mut dyn FnMut(Packet)) -> u64 {
        let mut emitted = 0;
        while self.next_ts < until {
            let slot = self.draw();
            match pool.alloc() {
                Some(buf) => {
                    emitted += 1;
                    sink(self.write(&slot, Packet::from_pool(buf, pool.clone())));
                }
                None => self.lose(&slot),
            }
        }
        emitted
    }

    /// Emits the next `count` packets of the same stream [`generate`]
    /// produces (pacing timestamps included), allocating through a
    /// per-thread `cache`. The packets carry no pool handle: their buffers
    /// go home through the caller's burst frees. Returns the number
    /// emitted: short only when an allocation was refused, in which case
    /// the burst stops *before* consuming the slot, so the packet sequence
    /// of a seed does not depend on when the pool ran dry.
    ///
    /// [`generate`]: TrafficGen::generate
    pub fn generate_burst(
        &mut self,
        count: usize,
        cache: &mut MempoolCache,
        sink: &mut dyn FnMut(Packet),
    ) -> u64 {
        for emitted in 0..count {
            let Some(buf) = cache.alloc() else {
                self.stats.alloc_failures += 1;
                return emitted as u64;
            };
            let slot = self.draw();
            sink(self.write(&slot, Packet::from_buf(buf)));
        }
        count as u64
    }

    /// Draws the next slot: samples its frame length, advances the pacing
    /// clock and sequence number, and picks its flow, reading its hash and,
    /// if the traffic has a lifecycle, advancing it. Every draw of the slot
    /// but the payload filler's happens here.
    fn draw(&mut self) -> Slot {
        let len = self.cfg.size.sample(&mut self.rng).max(self.min_len());
        let ts = self.next_ts;
        if self.gap.0 != len {
            let wire_bits = ((len + WIRE_OVERHEAD_BYTES) * 8) as f64;
            self.gap = (
                len,
                Time::from_secs_f64(wire_bits / (self.cfg.offered_gbps * 1e9)),
            );
        }
        self.next_ts += self.gap.1;
        self.seq += 1;
        // SYN-flood slots come from one-shot random sources that are
        // never drawn again (no state to complete a handshake with).
        let flood = self.cfg.l4 == L4Proto::Tcp
            && self.cfg.syn_flood_per_mille > 0
            && self.rng.gen_range(0..1000) < self.cfg.syn_flood_per_mille;
        if flood {
            let (flow, hash) = self.fresh_flow();
            return Slot {
                len,
                ts,
                hash,
                sender: Sender::Gone(flow),
                tcp_flags: proto::TCP_SYN,
                tcp_seq: 0,
            };
        }
        let idx = self.pick_flow();
        let hash = self.hashes[idx];
        let mut slot = Slot {
            len,
            ts,
            hash,
            sender: Sender::Table(idx),
            tcp_flags: 0,
            tcp_seq: 0,
        };
        let Some(state) = self.state.get_mut(idx) else {
            // No lifecycle: nothing to advance, and a UDP frame carries
            // no TCP fields.
            return slot;
        };
        let pkts = state.pkts;
        let last = self.cfg.flow_lifetime_pkts > 0 && pkts + 1 >= self.cfg.flow_lifetime_pkts;
        slot.tcp_flags = if pkts == 0 {
            proto::TCP_SYN
        } else if last {
            proto::TCP_FIN | proto::TCP_ACK
        } else {
            proto::TCP_ACK | proto::TCP_PSH
        };
        slot.tcp_seq = pkts as u32;
        if last {
            // Lifetime churn: the flow expires; a fresh identity arrives in
            // its slot.
            *state = FlowState::default();
            slot.sender = Sender::Gone(self.flows[idx]);
            (self.flows[idx], self.hashes[idx]) = self.fresh_flow();
        } else {
            state.pkts = pkts + 1;
        }
        slot
    }

    /// Writes a drawn slot's frame into `pkt`'s buffer, making the payload
    /// filler's draws, and stamps its pacing time and its flow's descriptor
    /// RSS hash.
    fn write(&mut self, slot: &Slot, mut pkt: Packet) -> Packet {
        let Slot {
            len,
            ts,
            hash,
            sender,
            tcp_flags,
            tcp_seq,
        } = *slot;
        let flow = match sender {
            Sender::Table(idx) => self.flows[idx],
            Sender::Gone(flow) => flow,
        };
        let frame = pkt.buf_mut().set_region(DEFAULT_HEADROOM, len);
        self.builder.src_port = flow.src_port;
        self.builder.dst_port = flow.dst_port;
        match (self.cfg.ip_version, self.cfg.l4) {
            (IpVersion::V4, L4Proto::Udp) => {
                self.builder
                    .build_ipv4(frame, len, flow.src_v4, flow.dst_v4);
            }
            (IpVersion::V4, L4Proto::Tcp) => {
                self.builder.build_ipv4_tcp(
                    frame,
                    len,
                    flow.src_v4,
                    flow.dst_v4,
                    tcp_flags,
                    tcp_seq,
                );
            }
            (IpVersion::V6, _) => {
                self.builder
                    .build_ipv6(frame, len, flow.src_v6, flow.dst_v6);
            }
        }
        if let Some(hdr_len) = self.body_offset() {
            self.fill_payload(&mut frame[hdr_len..]);
        }
        pkt.ts_gen = ts;
        // The receive descriptor's hash, as a NIC hands it to the host.
        pkt.rss_hash = hash;
        self.stats.generated += 1;
        self.stats.frame_bits += (len * 8) as u64;
        pkt
    }

    /// Loses a drawn slot the pool could not serve: counted, and its payload
    /// draws still made, so an exhausted pool changes no later frame.
    fn lose(&mut self, slot: &Slot) {
        self.stats.alloc_failures += 1;
        self.skip_payload(slot.len);
    }

    /// Where the payload filler starts: past the UDP headers. TCP bodies
    /// stay untouched, since TCP checksums cover the body and the stateful
    /// suites verify them end to end.
    fn body_offset(&self) -> Option<usize> {
        match (self.cfg.ip_version, self.cfg.l4) {
            (IpVersion::V4, L4Proto::Udp) => Some(FrameBuilder::MIN_V4_LEN),
            (IpVersion::V4, L4Proto::Tcp) => None,
            (IpVersion::V6, _) => Some(FrameBuilder::MIN_V6_LEN),
        }
    }

    fn fill_payload(&mut self, body: &mut [u8]) {
        if matches!(self.cfg.payload, PayloadFill::Zeros) {
            return;
        }
        // One draw per eight bytes: a letter from each byte of the word.
        let letters = |word: u64, out: &mut [u8]| {
            for (b, r) in out.iter_mut().zip(word.to_le_bytes()) {
                *b = b'a' + r % 26;
            }
        };
        let mut chunks = body.chunks_exact_mut(8);
        for chunk in &mut chunks {
            letters(self.rng.gen(), chunk);
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            letters(self.rng.gen(), tail);
        }
        if let Some(span) = self.plant_span(body.len()) {
            let at = self.plant_at(span);
            if let PayloadFill::Plant { needle, .. } = &self.cfg.payload {
                body[at..at + needle.len()].copy_from_slice(needle);
            }
        }
    }

    /// Makes the draws [`fill_payload`](Self::fill_payload) would make for
    /// the body of a `len`-byte frame, writing nothing.
    fn skip_payload(&mut self, len: usize) {
        let Some(hdr_len) = self.body_offset() else {
            return;
        };
        if matches!(self.cfg.payload, PayloadFill::Zeros) {
            return;
        }
        let body_len = len - hdr_len;
        for _ in 0..body_len.div_ceil(8) {
            self.rng.gen::<u64>();
        }
        if let Some(span) = self.plant_span(body_len) {
            self.plant_at(span);
        }
    }

    /// Whether the current slot plants the needle into a body of
    /// `body_len` bytes, and if so how many start offsets it may take
    /// (0: the needle fills the body).
    fn plant_span(&self, body_len: usize) -> Option<usize> {
        let PayloadFill::Plant { needle, every } = &self.cfg.payload else {
            return None;
        };
        let due = *every > 0 && self.seq.is_multiple_of(u64::from(*every));
        (due && body_len >= needle.len()).then(|| body_len - needle.len())
    }

    /// Draws where the needle starts, among `span` offsets.
    fn plant_at(&mut self, span: usize) -> usize {
        if span == 0 {
            0
        } else {
            self.rng.gen_range(0..span)
        }
    }
}

/// The generator as it was before its flow table was split: one array of
/// records, each holding the identity and its hash; every slot copies its
/// flow's record and reads and writes its lifecycle state, whatever the
/// traffic. Kept only as the oracle the generator is checked against. It
/// wraps a [`TrafficGen`] for what the split left alone (sizes, pacing
/// fields, the payload filler, statistics) and keeps its own table, drawn
/// afresh from the seed.
#[cfg(test)]
mod oracle {
    use super::*;

    #[derive(Debug, Clone, Copy)]
    struct OracleSlot {
        len: usize,
        ts: Time,
        flow: (Flow, u32),
        tcp_flags: u8,
        tcp_seq: u32,
    }

    pub(super) struct OracleGen {
        g: TrafficGen,
        flows: Vec<(Flow, u32)>,
        state: Vec<FlowState>,
    }

    impl OracleGen {
        pub(super) fn new(cfg: TrafficConfig) -> OracleGen {
            let mut rng = SmallRng::seed_from_u64(cfg.seed);
            let nic = Toeplitz::default();
            let flows = (0..cfg.flows)
                .map(|_| Flow::draw(&mut rng, &cfg, &nic))
                .collect();
            let state = vec![FlowState::default(); cfg.flows];
            OracleGen {
                g: TrafficGen::new(cfg),
                flows,
                state,
            }
        }

        pub(super) fn stats(&self) -> GenStats {
            self.g.stats
        }

        pub(super) fn offer(
            &mut self,
            until: Time,
            max_slots: u64,
            pool: &Mempool,
            port: &mut Port,
        ) -> u64 {
            let mut slots = 0;
            while slots < max_slots && self.g.next_ts < until {
                let slot = self.draw();
                slots += 1;
                let Some(q) = port.admit(slot.flow.1) else {
                    self.g.skip_payload(slot.len);
                    continue;
                };
                match pool.alloc() {
                    Some(buf) => {
                        let pkt = self.write(&slot, Packet::from_pool(buf, pool.clone()));
                        port.enqueue(q, pkt);
                    }
                    None => {
                        port.nombuf();
                        self.lose(&slot);
                    }
                }
            }
            slots
        }

        pub(super) fn generate(
            &mut self,
            until: Time,
            pool: &Mempool,
            sink: &mut dyn FnMut(Packet),
        ) -> u64 {
            let mut emitted = 0;
            while self.g.next_ts < until {
                let slot = self.draw();
                match pool.alloc() {
                    Some(buf) => {
                        emitted += 1;
                        sink(self.write(&slot, Packet::from_pool(buf, pool.clone())));
                    }
                    None => self.lose(&slot),
                }
            }
            emitted
        }

        pub(super) fn generate_burst(
            &mut self,
            count: usize,
            cache: &mut MempoolCache,
            sink: &mut dyn FnMut(Packet),
        ) -> u64 {
            for emitted in 0..count {
                let Some(buf) = cache.alloc() else {
                    self.g.stats.alloc_failures += 1;
                    return emitted as u64;
                };
                let slot = self.draw();
                sink(self.write(&slot, Packet::from_buf(buf)));
            }
            count as u64
        }

        fn pick_flow(&mut self) -> usize {
            let g = &mut self.g;
            if g.cfg.sequential {
                ((g.seq - 1) % self.flows.len() as u64) as usize
            } else if g.zipf_cdf.is_empty() {
                g.rng.gen_range(0..self.flows.len())
            } else {
                let u: f64 = g.rng.gen();
                g.zipf_cdf
                    .partition_point(|&c| c < u)
                    .min(self.flows.len() - 1)
            }
        }

        fn draw(&mut self) -> OracleSlot {
            let g = &mut self.g;
            let len = g.cfg.size.sample(&mut g.rng).max(g.min_len());
            let ts = g.next_ts;
            if g.gap.0 != len {
                let wire_bits = ((len + WIRE_OVERHEAD_BYTES) * 8) as f64;
                g.gap = (
                    len,
                    Time::from_secs_f64(wire_bits / (g.cfg.offered_gbps * 1e9)),
                );
            }
            g.next_ts += g.gap.1;
            g.seq += 1;
            let flood = g.cfg.l4 == L4Proto::Tcp
                && g.cfg.syn_flood_per_mille > 0
                && g.rng.gen_range(0..1000) < g.cfg.syn_flood_per_mille;
            if flood {
                return OracleSlot {
                    len,
                    ts,
                    flow: g.fresh_flow(),
                    tcp_flags: proto::TCP_SYN,
                    tcp_seq: 0,
                };
            }
            let idx = self.pick_flow();
            let g = &mut self.g;
            let pkts = self.state[idx].pkts;
            let last = g.cfg.flow_lifetime_pkts > 0 && pkts + 1 >= g.cfg.flow_lifetime_pkts;
            let tcp_flags = if pkts == 0 {
                proto::TCP_SYN
            } else if last {
                proto::TCP_FIN | proto::TCP_ACK
            } else {
                proto::TCP_ACK | proto::TCP_PSH
            };
            let flow = self.flows[idx];
            if last {
                self.flows[idx] = g.fresh_flow();
                self.state[idx] = FlowState::default();
            } else {
                self.state[idx].pkts = pkts + 1;
            }
            OracleSlot {
                len,
                ts,
                flow,
                tcp_flags,
                tcp_seq: pkts as u32,
            }
        }

        fn write(&mut self, slot: &OracleSlot, mut pkt: Packet) -> Packet {
            let OracleSlot {
                len,
                ts,
                flow: (flow, rss_hash),
                tcp_flags,
                tcp_seq,
            } = *slot;
            let g = &mut self.g;
            let frame = pkt.buf_mut().set_region(DEFAULT_HEADROOM, len);
            g.builder.src_port = flow.src_port;
            g.builder.dst_port = flow.dst_port;
            match (g.cfg.ip_version, g.cfg.l4) {
                (IpVersion::V4, L4Proto::Udp) => {
                    g.builder.build_ipv4(frame, len, flow.src_v4, flow.dst_v4);
                }
                (IpVersion::V4, L4Proto::Tcp) => {
                    g.builder.build_ipv4_tcp(
                        frame,
                        len,
                        flow.src_v4,
                        flow.dst_v4,
                        tcp_flags,
                        tcp_seq,
                    );
                }
                (IpVersion::V6, _) => {
                    g.builder.build_ipv6(frame, len, flow.src_v6, flow.dst_v6);
                }
            }
            if let Some(hdr_len) = g.body_offset() {
                g.fill_payload(&mut frame[hdr_len..]);
            }
            pkt.ts_gen = ts;
            pkt.rss_hash = rss_hash;
            g.stats.generated += 1;
            g.stats.frame_bits += (len * 8) as u64;
            pkt
        }

        fn lose(&mut self, slot: &OracleSlot) {
            self.g.stats.alloc_failures += 1;
            self.g.skip_payload(slot.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::PortCounters;
    use crate::proto::{
        ether::EtherView, ipv4::Ipv4View, ipv6::Ipv6View, l4::TcpView, IPPROTO_TCP, TCP_ACK,
        TCP_FIN, TCP_PSH, TCP_SYN,
    };
    use proptest::prelude::*;

    fn run_gen(cfg: TrafficConfig, until: Time) -> (Vec<Packet>, GenStats) {
        let pool = Mempool::new(1 << 20);
        let mut gen = TrafficGen::new(cfg);
        let mut out = Vec::new();
        gen.generate(until, &pool, &mut |p| out.push(p));
        (out, gen.stats())
    }

    #[test]
    fn rate_matches_offered_load() {
        // 10 Gbps of 64-byte frames for 1 ms => 14.88 Mpps * 1 ms = ~14880.
        let cfg = TrafficConfig::default();
        let (pkts, stats) = run_gen(cfg, Time::from_ms(1));
        let expect = (10e9 / 672.0 * 1e-3) as i64;
        assert!(
            (pkts.len() as i64 - expect).abs() <= 1,
            "{} vs {}",
            pkts.len(),
            expect
        );
        assert_eq!(stats.generated, pkts.len() as u64);
    }

    #[test]
    fn frames_are_valid_ipv4() {
        let (pkts, _) = run_gen(TrafficConfig::default(), Time::from_us(10));
        assert!(!pkts.is_empty());
        for p in &pkts {
            let eth = EtherView::parse(p.data()).unwrap();
            let ip = Ipv4View::parse(eth.payload()).unwrap();
            assert!(ip.checksum_ok());
            assert_eq!(usize::from(ip.total_len()), p.len() - 14);
        }
    }

    #[test]
    fn frames_are_valid_ipv6() {
        let cfg = TrafficConfig {
            ip_version: IpVersion::V6,
            ..TrafficConfig::default()
        };
        let (pkts, _) = run_gen(cfg, Time::from_us(10));
        assert!(!pkts.is_empty());
        for p in &pkts {
            let eth = EtherView::parse(p.data()).unwrap();
            let ip = Ipv6View::parse(eth.payload()).unwrap();
            assert_eq!(ip.hop_limit(), 64);
            assert_eq!(p.len(), 64.max(FrameBuilder::MIN_V6_LEN));
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let (a, _) = run_gen(TrafficConfig::default(), Time::from_us(50));
        let (b, _) = run_gen(TrafficConfig::default(), Time::from_us(50));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.data(), y.data());
            assert_eq!(x.ts_gen, y.ts_gen);
        }
    }

    #[test]
    fn zipf_skews_flow_popularity() {
        let cfg = TrafficConfig {
            flows: 64,
            zipf_alpha: 1.2,
            ..TrafficConfig::default()
        };
        let (pkts, _) = run_gen(cfg, Time::from_ms(1));
        let mut by_dst = std::collections::HashMap::new();
        for p in &pkts {
            let eth = EtherView::parse(p.data()).unwrap();
            let ip = Ipv4View::parse(eth.payload()).unwrap();
            *by_dst.entry(ip.dst()).or_insert(0u32) += 1;
        }
        let mut counts: Vec<u32> = by_dst.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // The most popular flow should dominate a uniform share by far.
        assert!(counts[0] > pkts.len() as u32 / 64 * 5);
    }

    #[test]
    fn imix_and_caida_mixes_have_expected_spread() {
        for size in [SizeDist::Imix, SizeDist::CaidaLike] {
            let cfg = TrafficConfig {
                size: size.clone(),
                offered_gbps: 40.0,
                ..TrafficConfig::default()
            };
            let (pkts, _) = run_gen(cfg, Time::from_ms(1));
            let small = pkts.iter().filter(|p| p.len() <= 128).count();
            let large = pkts.iter().filter(|p| p.len() >= 1024).count();
            assert!(small > 0 && large > 0, "{size:?} lacks size diversity");
        }
    }

    #[test]
    fn planted_needle_appears_periodically() {
        let cfg = TrafficConfig {
            size: SizeDist::Fixed(256),
            payload: PayloadFill::Plant {
                needle: b"EVILPATTERN".to_vec(),
                every: 4,
            },
            ..TrafficConfig::default()
        };
        let (pkts, _) = run_gen(cfg, Time::from_us(200));
        let hits = pkts
            .iter()
            .filter(|p| p.data().windows(11).any(|w| w == b"EVILPATTERN"))
            .count();
        assert!(hits >= pkts.len() / 5, "{hits} of {}", pkts.len());
        assert!(hits <= pkts.len() / 3);
    }

    const NEEDLE: &[u8] = b"ATTACK1";

    fn planted(size: SizeDist, every: u32) -> TrafficConfig {
        TrafficConfig {
            size,
            payload: PayloadFill::Plant {
                needle: NEEDLE.to_vec(),
                every,
            },
            ..TrafficConfig::default()
        }
    }

    /// Where the needle sits in a UDP body, after checking that every other
    /// byte is a lowercase letter.
    fn needle_offset(body: &[u8]) -> Option<usize> {
        let at = body.windows(NEEDLE.len()).position(|w| w == NEEDLE);
        let filler = |b: &[u8]| b.iter().all(u8::is_ascii_lowercase);
        match at {
            Some(at) => assert!(filler(&body[..at]) && filler(&body[at + NEEDLE.len()..])),
            None => assert!(filler(body), "{body:?}"),
        }
        at
    }

    #[test]
    fn filler_is_lowercase_and_the_needle_lands_on_schedule() {
        // IMIX bodies are 22, 552 and 1476 bytes: whole words and tails.
        let (pkts, _) = run_gen(planted(SizeDist::Imix, 16), Time::from_us(400));
        assert!(pkts.len() > 64, "{} pkts", pkts.len());
        for (i, p) in pkts.iter().enumerate() {
            let body = &p.data()[FrameBuilder::MIN_V4_LEN..];
            // `seq` counts from 1: the 16th, 32nd, ... slots are planted.
            assert_eq!(needle_offset(body).is_some(), (i + 1) % 16 == 0, "slot {i}");
        }
        let ascii = TrafficConfig {
            payload: PayloadFill::Ascii,
            ..planted(SizeDist::Imix, 0)
        };
        for p in run_gen(ascii, Time::from_us(100)).0 {
            assert_eq!(needle_offset(&p.data()[FrameBuilder::MIN_V4_LEN..]), None);
        }
    }

    #[test]
    fn fill_handles_bodies_around_a_word_and_around_the_needle() {
        for body_len in [0, 1, 7, 8, 9, 15, 16, 17] {
            let size = SizeDist::Fixed(FrameBuilder::MIN_V4_LEN + body_len);
            let (pkts, _) = run_gen(planted(size, 1), Time::from_us(2));
            assert!(pkts.len() >= 4);
            for p in &pkts {
                let body = &p.data()[FrameBuilder::MIN_V4_LEN..];
                assert_eq!(body.len(), body_len);
                // Planted wherever it fits; a body of exactly the needle's
                // length is the needle.
                let at = needle_offset(body);
                assert_eq!(at.is_some(), body_len >= NEEDLE.len(), "body {body_len}");
                assert!(body_len != NEEDLE.len() || at == Some(0));
            }
        }
    }

    #[test]
    fn tcp_flows_carry_handshake_then_data_then_fin() {
        let cfg = TrafficConfig {
            l4: L4Proto::Tcp,
            flows: 4,
            flow_lifetime_pkts: 8,
            size: SizeDist::Fixed(128),
            ..TrafficConfig::default()
        };
        let (pkts, _) = run_gen(cfg, Time::from_us(200));
        assert!(!pkts.is_empty());
        let mut per_flow: std::collections::HashMap<(u32, u16), Vec<(u8, u32)>> =
            std::collections::HashMap::new();
        for p in &pkts {
            let eth = EtherView::parse(p.data()).unwrap();
            let ip = Ipv4View::parse(eth.payload()).unwrap();
            assert!(ip.checksum_ok());
            assert_eq!(ip.protocol(), IPPROTO_TCP);
            let tcp = TcpView::parse(ip.payload()).unwrap();
            per_flow
                .entry((ip.src(), tcp.src_port()))
                .or_default()
                .push((tcp.flags(), tcp.seq()));
        }
        // Flow-lifetime churn keeps replacing identities, so there should be
        // more distinct 5-tuples than configured slots.
        assert!(per_flow.len() > 4, "{} flows", per_flow.len());
        for segs in per_flow.values() {
            // Each identity starts with a SYN at seq 0 and never exceeds
            // its lifetime; a completed identity ends with FIN|ACK.
            assert_eq!(segs[0], (TCP_SYN, 0));
            assert!(segs.len() <= 8, "{} pkts in one identity", segs.len());
            for (i, (flags, seq)) in segs.iter().enumerate() {
                assert_eq!(*seq, i as u32);
                if i > 0 && i + 1 < 8 {
                    assert_eq!(*flags, TCP_ACK | TCP_PSH);
                }
            }
            if segs.len() == 8 {
                assert_eq!(segs[7].0, TCP_FIN | TCP_ACK);
            }
        }
    }

    #[test]
    fn syn_flood_injects_one_shot_syns() {
        let cfg = TrafficConfig {
            l4: L4Proto::Tcp,
            flows: 4,
            syn_flood_per_mille: 500,
            size: SizeDist::Fixed(128),
            ..TrafficConfig::default()
        };
        let (pkts, _) = run_gen(cfg, Time::from_us(500));
        let mut syn_sources = std::collections::HashMap::new();
        let mut data = 0usize;
        for p in &pkts {
            let eth = EtherView::parse(p.data()).unwrap();
            let ip = Ipv4View::parse(eth.payload()).unwrap();
            let tcp = TcpView::parse(ip.payload()).unwrap();
            if tcp.flags() == TCP_SYN {
                *syn_sources
                    .entry((ip.src(), tcp.src_port()))
                    .or_insert(0u32) += 1;
            } else {
                data += 1;
            }
        }
        // Roughly half the stream is SYNs, from sources that (with
        // overwhelming probability) never repeat; legitimate flows keep
        // sending data between them.
        assert!(syn_sources.len() > pkts.len() / 4);
        assert!(data > pkts.len() / 4);
        let repeats = syn_sources.values().filter(|&&c| c > 1).count();
        assert!(repeats <= 1, "{repeats} repeated flood sources");
    }

    #[test]
    fn sequential_mode_touches_every_flow_once_per_round() {
        let cfg = TrafficConfig {
            flows: 32,
            sequential: true,
            ..TrafficConfig::default()
        };
        let (pkts, _) = run_gen(cfg, Time::from_us(30));
        assert!(pkts.len() >= 64, "{} pkts", pkts.len());
        let mut seen = std::collections::HashSet::new();
        for p in pkts.iter().take(32) {
            let eth = EtherView::parse(p.data()).unwrap();
            let ip = Ipv4View::parse(eth.payload()).unwrap();
            seen.insert(ip.src());
        }
        // The first N packets cover all N flow slots exactly once.
        assert_eq!(seen.len(), 32);
    }

    #[test]
    fn tcp_stream_is_deterministic_for_same_seed() {
        let cfg = TrafficConfig {
            l4: L4Proto::Tcp,
            flows: 8,
            flow_lifetime_pkts: 5,
            syn_flood_per_mille: 100,
            ..TrafficConfig::default()
        };
        let (a, _) = run_gen(cfg.clone(), Time::from_us(100));
        let (b, _) = run_gen(cfg, Time::from_us(100));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.data(), y.data());
        }
    }

    #[test]
    fn pool_exhaustion_counts_failures_but_time_advances() {
        // The same windows over an unbounded pool: the stream a remote
        // generator sends, whatever the receiver's pool says.
        let (whole, _) = run_gen(TrafficConfig::default(), Time::from_us(30));
        let same_slot_in_whole = |p: &Packet| {
            let twin = whole.iter().find(|w| w.ts_gen == p.ts_gen).unwrap();
            assert_eq!(p.data(), twin.data(), "frame at {:?}", p.ts_gen);
        };
        let pool = Mempool::new(4);
        let mut gen = TrafficGen::new(TrafficConfig::default());
        let mut kept = Vec::new();
        gen.generate(Time::from_us(10), &pool, &mut |p| kept.push(p));
        assert_eq!(kept.len(), 4);
        assert!(gen.stats().alloc_failures > 0);
        // Later windows still progress, and stay empty while the pool is dry.
        let n = gen.generate(Time::from_us(20), &pool, &mut |_p| {});
        assert_eq!(n, 0);
        // Once the buffers come back, the frames are the unbounded run's:
        // the lost slots made their flow draws too.
        kept.iter().for_each(same_slot_in_whole);
        kept.clear();
        gen.generate(Time::from_us(30), &pool, &mut |p| kept.push(p));
        assert_eq!(kept.len(), 4);
        assert!(kept[0].ts_gen >= Time::from_us(20));
        kept.iter().for_each(same_slot_in_whole);
    }

    /// A traffic shape from drawn knobs. `l4`: IPv4 UDP, IPv6 UDP, TCP
    /// (IPv4 only), TCP with a SYN flood. `size`: fixed, IMIX, CAIDA-like,
    /// uniform. `payload`: zeros, ASCII, a planted needle (TCP bodies are
    /// never filled). `order`: random, Zipf, sequential.
    fn shape(
        (l4, size, payload, order): (u8, u8, u8, u8),
        (len, spread): (usize, usize),
        (flows, lifetime, flood): (usize, u64, u32),
        seed: u64,
    ) -> TrafficConfig {
        TrafficConfig {
            offered_gbps: 40.0,
            size: match size {
                0 => SizeDist::Fixed(len),
                1 => SizeDist::Imix,
                2 => SizeDist::CaidaLike,
                _ => SizeDist::Uniform {
                    min: len,
                    max: len + spread,
                },
            },
            ip_version: if l4 == 1 {
                IpVersion::V6
            } else {
                IpVersion::V4
            },
            flows,
            zipf_alpha: if order == 1 { 1.1 } else { 0.0 },
            payload: match payload {
                0 => PayloadFill::Zeros,
                1 => PayloadFill::Ascii,
                _ => PayloadFill::Plant {
                    needle: NEEDLE.to_vec(),
                    every: 3,
                },
            },
            seed,
            l4: if l4 >= 2 { L4Proto::Tcp } else { L4Proto::Udp },
            flow_lifetime_pkts: lifetime,
            syn_flood_per_mille: if l4 == 3 { flood } else { 0 },
            sequential: order == 2,
        }
    }

    /// What a packet says: its frame, pacing stamp, descriptor hash and
    /// ingress port and queue.
    type Seen = (Vec<u8>, Time, u32, u16, u16);

    fn seen(p: &Packet) -> Seen {
        (
            p.data().to_vec(),
            p.ts_gen,
            p.rss_hash,
            p.port_in,
            p.queue_in,
        )
    }

    /// A call's return value (slots offered, packets emitted), recorded in
    /// line with the packets.
    fn returned(n: u64) -> Seen {
        (Vec::new(), Time::ZERO, n as u32, 0, 0)
    }

    /// Runs `generate` through a 24-buffer pool whose packets are held for
    /// three half-microsecond windows at a time, so the pool runs dry.
    fn by_time(
        mut generate: impl FnMut(Time, &Mempool, &mut dyn FnMut(Packet)) -> u64,
    ) -> Vec<Seen> {
        let pool = Mempool::new(24);
        let (mut held, mut out) = (Vec::new(), Vec::new());
        for step in 1..=18 {
            let n = generate(Time::from_ns(step * 500), &pool, &mut |p| held.push(p));
            out.push(returned(n));
            if step % 3 == 0 {
                out.extend(held.drain(..).map(|p| seen(&p)));
            }
        }
        out
    }

    /// Runs `generate_burst` through a thread cache over a 24-buffer pool,
    /// in bursts of 1 to 16, sending the buffers home every third burst.
    fn by_count(
        mut burst: impl FnMut(usize, &mut MempoolCache, &mut dyn FnMut(Packet)) -> u64,
    ) -> Vec<Seen> {
        let pool = Mempool::new(24);
        let mut cache = MempoolCache::new(pool.clone(), 8);
        let (mut held, mut out) = (Vec::new(), Vec::new());
        for round in 1..=30 {
            let n = burst(1 + round * 7 % 16, &mut cache, &mut |p| held.push(p));
            out.push(returned(n));
            if round % 3 == 0 {
                out.extend(held.iter().map(seen));
                pool.free_bulk(held.drain(..).map(Packet::into_buf));
            }
        }
        out
    }

    /// Offers half-microsecond windows to a port of `queues` four-descriptor
    /// queues over a 6-buffer pool. Every third window the queues are
    /// drained and what they held is kept until the next drain, so slots
    /// are refused and admitted ones find the pool dry.
    fn by_port(
        queues: u16,
        mut offer: impl FnMut(Time, &Mempool, &mut Port) -> u64,
    ) -> (Vec<Seen>, PortCounters) {
        let pool = Mempool::new(6);
        let mut port = Port::new(0, 10.0, queues, 4);
        let (mut held, mut out) = (Vec::new(), Vec::new());
        for step in 1..=18 {
            let n = offer(Time::from_ns(step * 500), &pool, &mut port);
            out.push(returned(n));
            if step % 3 == 0 {
                held.clear();
                for q in 0..queues {
                    while let Some(p) = port.rx_queue(q).pop() {
                        out.push(seen(&p));
                        held.push(p);
                    }
                }
            }
        }
        (out, port.counters())
    }

    proptest! {
        /// The split flow table writes the stream the one-record-per-flow
        /// generator wrote, bit for bit, by time, by count and offered to a
        /// port that refuses slots and a pool that runs dry: the same
        /// frames, stamps, hashes, queues, per-window counts, generator
        /// statistics and port counters.
        #[test]
        fn stream_equals_the_oracle(
            knobs in (0u8..4, 0u8..4, 0u8..3, 0u8..3),
            sizes in (40usize..400, 0usize..1100),
            table in (1usize..40, 0u64..10, 0u32..600),
            churn in any::<bool>(),
            queues in 1u16..4,
            seed in any::<u64>(),
        ) {
            let (flows, lifetime, flood) = table;
            let cfg = shape(knobs, sizes, (flows, if churn { lifetime + 1 } else { 0 }, flood), seed);

            let (mut gen, mut old) = (TrafficGen::new(cfg.clone()), oracle::OracleGen::new(cfg.clone()));
            prop_assert_eq!(by_time(|t, pool, sink| gen.generate(t, pool, sink)),
                by_time(|t, pool, sink| old.generate(t, pool, sink)));
            prop_assert_eq!(gen.stats(), old.stats());

            let (mut gen, mut old) = (TrafficGen::new(cfg.clone()), oracle::OracleGen::new(cfg.clone()));
            prop_assert_eq!(by_count(|n, cache, sink| gen.generate_burst(n, cache, sink)),
                by_count(|n, cache, sink| old.generate_burst(n, cache, sink)));
            prop_assert_eq!(gen.stats(), old.stats());

            let (mut gen, mut old) = (TrafficGen::new(cfg.clone()), oracle::OracleGen::new(cfg));
            let (seen_new, counters_new) = by_port(queues, |t, pool, port| gen.offer(t, u64::MAX, pool, port));
            let (seen_old, counters_old) = by_port(queues, |t, pool, port| old.offer(t, u64::MAX, pool, port));
            prop_assert_eq!(seen_new, seen_old);
            prop_assert_eq!(counters_new, counters_old);
            prop_assert_eq!(gen.stats(), old.stats());
        }
    }
}
