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

/// One flow identity, with the RSS hash a NIC computes from its frames.
#[derive(Debug, Clone, Copy)]
struct Flow {
    src_v4: u32,
    dst_v4: u32,
    src_v6: u128,
    dst_v6: u128,
    src_port: u16,
    dst_port: u16,
    /// The receive-descriptor hash: `port::rss_hash` of every frame this
    /// identity sends (the 4-tuple for UDP, the addresses for TCP).
    rss_hash: u32,
}

impl Flow {
    /// Draws a random identity and hashes it the way the NIC will.
    fn draw(rng: &mut SmallRng, cfg: &TrafficConfig, nic: &Toeplitz) -> Flow {
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
        Flow {
            src_v4,
            dst_v4,
            src_v6,
            dst_v6,
            src_port,
            dst_port,
            rss_hash,
        }
    }
}

/// One slot of the stream, drawn but not yet written: everything its frame
/// will say except the payload filler's bytes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    len: usize,
    ts: Time,
    flow: Flow,
    tcp_flags: u8,
    tcp_seq: u32,
}

/// Generator statistics.
#[derive(Debug, Clone, Copy, Default)]
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
pub struct TrafficGen {
    cfg: TrafficConfig,
    rng: SmallRng,
    /// The NIC's hasher (`Port` hashes with the default key), for the
    /// descriptor hash of every flow identity drawn.
    nic: Toeplitz,
    flows: Vec<Flow>,
    /// Per-flow lifecycle state (TCP flags, lifetime churn).
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
        let flows = (0..cfg.flows)
            .map(|_| Flow::draw(&mut rng, &cfg, &nic))
            .collect::<Vec<_>>();
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
        let state = vec![FlowState::default(); cfg.flows];
        TrafficGen {
            cfg,
            rng,
            nic,
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
            ((self.seq - 1) % self.flows.len() as u64) as usize
        } else if self.zipf_cdf.is_empty() {
            self.rng.gen_range(0..self.flows.len())
        } else {
            let u: f64 = self.rng.gen();
            self.zipf_cdf
                .partition_point(|&c| c < u)
                .min(self.flows.len() - 1)
        }
    }

    /// Draws a fresh flow identity (lifetime churn replacement, SYN-flood
    /// source).
    fn fresh_flow(&mut self) -> Flow {
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
            let Some(q) = port.admit(slot.flow.rss_hash) else {
                self.skip_payload(&slot);
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
    /// clock and sequence number, and picks its flow, advancing that flow's
    /// lifecycle. Every draw of the slot but the payload filler's happens
    /// here.
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
            return Slot {
                len,
                ts,
                flow: self.fresh_flow(),
                tcp_flags: proto::TCP_SYN,
                tcp_seq: 0,
            };
        }
        let idx = self.pick_flow();
        let pkts = self.state[idx].pkts;
        let last = self.cfg.flow_lifetime_pkts > 0 && pkts + 1 >= self.cfg.flow_lifetime_pkts;
        let tcp_flags = if pkts == 0 {
            proto::TCP_SYN
        } else if last {
            proto::TCP_FIN | proto::TCP_ACK
        } else {
            proto::TCP_ACK | proto::TCP_PSH
        };
        let flow = self.flows[idx];
        if last {
            // Lifetime churn: the flow expires; a fresh identity arrives in
            // its slot.
            self.flows[idx] = self.fresh_flow();
            self.state[idx] = FlowState::default();
        } else {
            self.state[idx].pkts = pkts + 1;
        }
        Slot {
            len,
            ts,
            flow,
            tcp_flags,
            tcp_seq: pkts as u32,
        }
    }

    /// Writes a drawn slot's frame into `pkt`'s buffer, making the payload
    /// filler's draws, and stamps its pacing time and its flow's descriptor
    /// RSS hash.
    fn write(&mut self, slot: &Slot, mut pkt: Packet) -> Packet {
        let Slot {
            len,
            ts,
            flow,
            tcp_flags,
            tcp_seq,
        } = *slot;
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
        pkt.rss_hash = flow.rss_hash;
        self.stats.generated += 1;
        self.stats.frame_bits += (len * 8) as u64;
        pkt
    }

    /// Loses a drawn slot the pool could not serve: counted, and its payload
    /// draws still made, so an exhausted pool changes no later frame.
    fn lose(&mut self, slot: &Slot) {
        self.stats.alloc_failures += 1;
        self.skip_payload(slot);
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
    /// the slot's body, writing nothing.
    fn skip_payload(&mut self, slot: &Slot) {
        let Some(hdr_len) = self.body_offset() else {
            return;
        };
        if matches!(self.cfg.payload, PayloadFill::Zeros) {
            return;
        }
        let body_len = slot.len - hdr_len;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{
        ether::EtherView, ipv4::Ipv4View, ipv6::Ipv6View, l4::TcpView, IPPROTO_TCP, TCP_ACK,
        TCP_FIN, TCP_PSH, TCP_SYN,
    };

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
}
