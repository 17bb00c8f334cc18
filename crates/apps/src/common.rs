//! Framework-neutral elements: L2 forwarding, header checks, TTL
//! decrement, no-ops, and the synthetic branch element of Figures 1/10.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use nba_core::batch::{anno, Anno, PacketResult};
use nba_core::element::{Disposition, ElemCtx, Element, ElementEffects, HeaderFact, SlotClaim};
use nba_io::proto::{self, ether, ipv4::Ipv4View, ipv6::Ipv6View};
use nba_io::{checksum, Packet};
use nba_sim::CpuProfile;

/// Does nothing (composition-overhead experiments, §4.2).
#[derive(Debug, Default)]
pub struct NoOp;

impl Element for NoOp {
    fn class_name(&self) -> &'static str {
        "NoOp"
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, _: &mut Packet, _: &mut Anno) -> PacketResult {
        PacketResult::Out(0)
    }

    fn cpu_profile(&self) -> CpuProfile {
        // A trivial body still costs a call and a touch of the packet.
        CpuProfile::fixed(120)
    }
}

/// The minimal L2 forwarder of §4.6: swaps MAC addresses and spreads
/// packets round-robin over all output ports.
#[derive(Debug)]
pub struct L2Forward {
    ports: u16,
    next: u16,
}

impl L2Forward {
    /// Creates a forwarder cycling over `ports` output ports.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(ports: u16) -> L2Forward {
        assert!(ports > 0, "L2Forward needs at least one port");
        L2Forward { ports, next: 0 }
    }
}

impl Element for L2Forward {
    fn class_name(&self) -> &'static str {
        "L2Forward"
    }

    fn slot_claims(&self) -> &'static [SlotClaim] {
        const CLAIMS: &[SlotClaim] = &[SlotClaim::writes(anno::IFACE_OUT)];
        CLAIMS
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, pkt: &mut Packet, anno: &mut Anno) -> PacketResult {
        ether::swap_addresses(pkt.data_mut());
        anno.set(anno::IFACE_OUT, u64::from(self.next));
        self.next = (self.next + 1) % self.ports;
        PacketResult::Out(0)
    }

    fn cpu_profile(&self) -> CpuProfile {
        CpuProfile::fixed(24)
    }
}

/// Validates IPv4 headers; valid packets leave port 0, invalid port 1
/// (configurations usually connect port 1 to `Discard`).
#[derive(Debug, Default)]
pub struct CheckIPHeader;

impl Element for CheckIPHeader {
    fn class_name(&self) -> &'static str {
        "CheckIPHeader"
    }

    fn output_count(&self) -> usize {
        2
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, pkt: &mut Packet, _: &mut Anno) -> PacketResult {
        // The common case, read at the fixed offsets of an option-less
        // header; any other frame takes the full parse.
        if plain_valid_ipv4(pkt.data()) {
            return PacketResult::Out(0);
        }
        let Ok(eth) = ether::EtherView::parse(pkt.data()) else {
            return PacketResult::Out(1);
        };
        if eth.ethertype() != proto::ETHERTYPE_IPV4 {
            return PacketResult::Out(1);
        }
        match Ipv4View::parse(eth.payload()) {
            Ok(ip) if ip.checksum_ok() && ip.ttl() > 0 => PacketResult::Out(0),
            _ => PacketResult::Out(1),
        }
    }

    fn cpu_profile(&self) -> CpuProfile {
        // Header parse + 20-byte checksum verification.
        CpuProfile::fixed(50)
    }

    // Port 0 carries only packets that passed the IPv4 checks; port 1 is
    // the reject path (validity is *not* established there).
    fn effects(&self) -> ElementEffects {
        const EST: &[(usize, HeaderFact)] = &[(0, HeaderFact::Ipv4Valid)];
        ElementEffects {
            establishes: EST,
            ..ElementEffects::default()
        }
    }
}

/// `true` if `frame` is an Ethernet II frame whose IPv4 header has no
/// options (version 4, IHL 5) and passes every [`CheckIPHeader`] check: a
/// total length within the frame, a good checksum, and a live TTL.
fn plain_valid_ipv4(frame: &[u8]) -> bool {
    let Some(hdr) = frame.get(ether::ETHER_HDR_LEN..ether::ETHER_HDR_LEN + 20) else {
        return false;
    };
    let total = usize::from(u16::from_be_bytes([hdr[2], hdr[3]]));
    frame[12..14] == proto::ETHERTYPE_IPV4.to_be_bytes()
        && hdr[0] == 0x45
        && (20..=frame.len() - ether::ETHER_HDR_LEN).contains(&total)
        && hdr[8] > 0
        && checksum::verify(hdr)
}

/// Validates IPv6 headers; valid packets leave port 0, invalid port 1.
#[derive(Debug, Default)]
pub struct CheckIP6Header;

impl Element for CheckIP6Header {
    fn class_name(&self) -> &'static str {
        "CheckIP6Header"
    }

    fn output_count(&self) -> usize {
        2
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, pkt: &mut Packet, _: &mut Anno) -> PacketResult {
        let Ok(eth) = ether::EtherView::parse(pkt.data()) else {
            return PacketResult::Out(1);
        };
        if eth.ethertype() != proto::ETHERTYPE_IPV6 {
            return PacketResult::Out(1);
        }
        match Ipv6View::parse(eth.payload()) {
            Ok(ip) if ip.hop_limit() > 0 => PacketResult::Out(0),
            _ => PacketResult::Out(1),
        }
    }

    fn cpu_profile(&self) -> CpuProfile {
        CpuProfile::fixed(38)
    }

    fn effects(&self) -> ElementEffects {
        const EST: &[(usize, HeaderFact)] = &[(0, HeaderFact::Ipv6Valid)];
        ElementEffects {
            establishes: EST,
            ..ElementEffects::default()
        }
    }
}

/// Decrements the IPv4 TTL with an incremental checksum update; expired
/// packets are dropped.
#[derive(Debug, Default)]
pub struct DecIPTTL;

impl Element for DecIPTTL {
    fn class_name(&self) -> &'static str {
        "DecIPTTL"
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, pkt: &mut Packet, _: &mut Anno) -> PacketResult {
        let frame = pkt.data_mut();
        if frame.len() < ether::ETHER_HDR_LEN + 20 {
            return PacketResult::Drop;
        }
        match nba_io::proto::ipv4::dec_ttl(&mut frame[ether::ETHER_HDR_LEN..]) {
            Some(0) | None => PacketResult::Drop,
            Some(_) => PacketResult::Out(0),
        }
    }

    fn cpu_profile(&self) -> CpuProfile {
        CpuProfile::fixed(30)
    }

    // Touches the IPv4 TTL and checksum fields: must sit behind a
    // validator on every path (NBA043 otherwise). Expired packets drop.
    fn effects(&self) -> ElementEffects {
        const REQ: &[HeaderFact] = &[HeaderFact::Ipv4Valid];
        ElementEffects {
            requires: REQ,
            disposition: Disposition::MayDrop,
            ..ElementEffects::default()
        }
    }
}

/// Decrements the IPv6 hop limit; expired packets are dropped.
#[derive(Debug, Default)]
pub struct DecIP6HLIM;

impl Element for DecIP6HLIM {
    fn class_name(&self) -> &'static str {
        "DecIP6HLIM"
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, pkt: &mut Packet, _: &mut Anno) -> PacketResult {
        let frame = pkt.data_mut();
        if frame.len() < ether::ETHER_HDR_LEN + 40 {
            return PacketResult::Drop;
        }
        match nba_io::proto::ipv6::dec_hop_limit(&mut frame[ether::ETHER_HDR_LEN..]) {
            Some(0) | None => PacketResult::Drop,
            Some(_) => PacketResult::Out(0),
        }
    }

    fn cpu_profile(&self) -> CpuProfile {
        CpuProfile::fixed(22)
    }

    fn effects(&self) -> ElementEffects {
        const REQ: &[HeaderFact] = &[HeaderFact::Ipv6Valid];
        ElementEffects {
            requires: REQ,
            disposition: Disposition::MayDrop,
            ..ElementEffects::default()
        }
    }
}

/// Drops Ethernet broadcast/multicast frames (port 1), like Click's
/// `DropBroadcasts`.
#[derive(Debug, Default)]
pub struct DropBroadcasts;

impl Element for DropBroadcasts {
    fn class_name(&self) -> &'static str {
        "DropBroadcasts"
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, pkt: &mut Packet, _: &mut Anno) -> PacketResult {
        match ether::EtherView::parse(pkt.data()) {
            Ok(eth) if !eth.is_multicast() => PacketResult::Out(0),
            _ => PacketResult::Drop,
        }
    }

    fn cpu_profile(&self) -> CpuProfile {
        CpuProfile::fixed(10)
    }

    fn effects(&self) -> ElementEffects {
        ElementEffects {
            disposition: Disposition::MayDrop,
            ..ElementEffects::default()
        }
    }
}

/// Sends each packet to output 1 with probability `p`, else output 0 — the
/// synthetic two-path branch of the batch-split experiments (Figures 1/10).
#[derive(Debug)]
pub struct RandomWeightedBranch {
    p_minority: f64,
    rng: SmallRng,
}

impl RandomWeightedBranch {
    /// Creates a branch sending `p_minority` of packets to port 1.
    ///
    /// # Panics
    ///
    /// Panics if `p_minority` is outside `[0, 1]`.
    pub fn new(p_minority: f64, seed: u64) -> RandomWeightedBranch {
        assert!(
            (0.0..=1.0).contains(&p_minority),
            "probability out of range"
        );
        RandomWeightedBranch {
            p_minority,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Element for RandomWeightedBranch {
    fn class_name(&self) -> &'static str {
        "RandomWeightedBranch"
    }

    fn output_count(&self) -> usize {
        2
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, _: &mut Packet, _: &mut Anno) -> PacketResult {
        PacketResult::Out(u8::from(self.rng.gen::<f64>() < self.p_minority))
    }

    fn cpu_profile(&self) -> CpuProfile {
        CpuProfile::fixed(12)
    }
}

/// Sets the output NIC port annotation round-robin (echo workloads that
/// bounce packets back without routing).
#[derive(Debug)]
pub struct RoundRobinOutput {
    ports: u16,
    next: u16,
}

impl RoundRobinOutput {
    /// Creates the element cycling over `ports`.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(ports: u16) -> RoundRobinOutput {
        assert!(ports > 0);
        RoundRobinOutput { ports, next: 0 }
    }
}

impl Element for RoundRobinOutput {
    fn class_name(&self) -> &'static str {
        "RoundRobinOutput"
    }

    fn slot_claims(&self) -> &'static [SlotClaim] {
        const CLAIMS: &[SlotClaim] = &[SlotClaim::writes(anno::IFACE_OUT)];
        CLAIMS
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, _: &mut Packet, anno: &mut Anno) -> PacketResult {
        anno.set(anno::IFACE_OUT, u64::from(self.next));
        self.next = (self.next + 1) % self.ports;
        PacketResult::Out(0)
    }

    fn cpu_profile(&self) -> CpuProfile {
        CpuProfile::fixed(8)
    }
}

/// Classifies frames by EtherType: IPv4 -> port 0, IPv6 -> port 1,
/// everything else -> port 2 (Click's `Classifier` specialized to the
/// pipelines here).
#[derive(Debug, Default)]
pub struct Classifier;

impl Element for Classifier {
    fn class_name(&self) -> &'static str {
        "Classifier"
    }

    fn output_count(&self) -> usize {
        3
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, pkt: &mut Packet, _: &mut Anno) -> PacketResult {
        match ether::EtherView::parse(pkt.data()).map(|e| e.ethertype()) {
            Ok(proto::ETHERTYPE_IPV4) => PacketResult::Out(0),
            Ok(proto::ETHERTYPE_IPV6) => PacketResult::Out(1),
            _ => PacketResult::Out(2),
        }
    }

    fn cpu_profile(&self) -> CpuProfile {
        CpuProfile::fixed(14)
    }
}

/// Annotation slot shared by [`Paint`] and [`CheckPaint`]: reuses the
/// flow-id slot's upper byte-space is avoided by keeping a dedicated
/// constant here (the framework reserves slots 0-6; paint rides in the
/// flow-id slot's high bits, which RSS never sets).
const PAINT_SHIFT: u32 = 56;

/// Marks packets with a color in an annotation (Click's `Paint`).
#[derive(Debug)]
pub struct Paint {
    color: u8,
}

impl Paint {
    /// Creates a painter with the given color (1..=255; 0 means unpainted).
    ///
    /// # Panics
    ///
    /// Panics if `color` is zero.
    pub fn new(color: u8) -> Paint {
        assert!(color != 0, "paint color 0 means unpainted");
        Paint { color }
    }
}

impl Element for Paint {
    fn class_name(&self) -> &'static str {
        "Paint"
    }

    // Paint read-modify-writes the high byte of the RSS flow-id slot.
    fn slot_claims(&self) -> &'static [SlotClaim] {
        const CLAIMS: &[SlotClaim] = &[
            SlotClaim::reads(anno::FLOW_ID),
            SlotClaim::writes(anno::FLOW_ID),
        ];
        CLAIMS
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, _: &mut Packet, anno: &mut Anno) -> PacketResult {
        let v = anno.get(anno::FLOW_ID) & !(0xffu64 << PAINT_SHIFT);
        anno.set(anno::FLOW_ID, v | u64::from(self.color) << PAINT_SHIFT);
        PacketResult::Out(0)
    }

    fn cpu_profile(&self) -> CpuProfile {
        CpuProfile::fixed(6)
    }
}

/// Branches on the paint color: matching packets -> port 1, others ->
/// port 0 (Click's `CheckPaint`).
#[derive(Debug)]
pub struct CheckPaint {
    color: u8,
}

impl CheckPaint {
    /// Creates a checker for the given color.
    pub fn new(color: u8) -> CheckPaint {
        CheckPaint { color }
    }
}

impl Element for CheckPaint {
    fn class_name(&self) -> &'static str {
        "CheckPaint"
    }

    fn slot_claims(&self) -> &'static [SlotClaim] {
        const CLAIMS: &[SlotClaim] = &[SlotClaim::reads(anno::FLOW_ID)];
        CLAIMS
    }

    fn output_count(&self) -> usize {
        2
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, _: &mut Packet, anno: &mut Anno) -> PacketResult {
        let painted = (anno.get(anno::FLOW_ID) >> PAINT_SHIFT) as u8;
        PacketResult::Out(u8::from(painted == self.color))
    }

    fn cpu_profile(&self) -> CpuProfile {
        CpuProfile::fixed(6)
    }
}

/// Counts packets and bytes passing through (Click's `Counter`).
#[derive(Debug)]
pub struct PacketCounter {
    /// Shared counters readable outside the pipeline.
    pub stats: std::sync::Arc<CounterStats>,
}

/// The [`PacketCounter`]'s shared state.
#[derive(Debug, Default)]
pub struct CounterStats {
    /// Packets seen.
    pub packets: std::sync::atomic::AtomicU64,
    /// Frame bytes seen.
    pub bytes: std::sync::atomic::AtomicU64,
}

impl PacketCounter {
    /// Creates a counter around shared state.
    pub fn new(stats: std::sync::Arc<CounterStats>) -> PacketCounter {
        PacketCounter { stats }
    }
}

impl Element for PacketCounter {
    fn class_name(&self) -> &'static str {
        "PacketCounter"
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, pkt: &mut Packet, _: &mut Anno) -> PacketResult {
        use std::sync::atomic::Ordering;
        self.stats.packets.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes
            .fetch_add(pkt.len() as u64, Ordering::Relaxed);
        PacketResult::Out(0)
    }

    fn cpu_profile(&self) -> CpuProfile {
        CpuProfile::fixed(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{ctx_harness, run_one};
    use nba_io::proto::FrameBuilder;

    fn v4_frame(len: usize) -> Packet {
        let mut f = vec![0u8; len];
        FrameBuilder::default().build_ipv4(&mut f, len, 0x0a000001, 0xc0a80101);
        Packet::from_bytes(&f)
    }

    #[test]
    fn classifier_splits_by_ethertype() {
        let mut el = Classifier;
        let (nls, insp) = ctx_harness();
        let mut v4 = v4_frame(64);
        assert_eq!(run_one(&mut el, &nls, &insp, &mut v4), PacketResult::Out(0));
        let mut v6 = {
            let mut f = vec![0u8; 80];
            nba_io::proto::FrameBuilder::default().build_ipv6(&mut f, 80, 1, 2);
            Packet::from_bytes(&f)
        };
        assert_eq!(run_one(&mut el, &nls, &insp, &mut v6), PacketResult::Out(1));
        let mut arp = v4_frame(64);
        arp.data_mut()[12] = 0x08;
        arp.data_mut()[13] = 0x06;
        assert_eq!(
            run_one(&mut el, &nls, &insp, &mut arp),
            PacketResult::Out(2)
        );
    }

    #[test]
    fn paint_then_check_paint_round_trips() {
        let (nls, insp) = ctx_harness();
        let mut pkt = v4_frame(64);
        let mut anno = Anno::default();
        anno.set(anno::FLOW_ID, 0x1234_5678); // RSS hash must survive.
        let mut ectx = nba_core::element::ElemCtx {
            now: nba_sim::Time::ZERO,
            compute: nba_core::element::ComputeMode::Full,
            nls: &nls,
            worker: 0,
            inspector: &insp,
        };
        Paint::new(7).process(&mut ectx, &mut pkt, &mut anno);
        assert_eq!(anno.get(anno::FLOW_ID) & 0xffff_ffff, 0x1234_5678);
        assert_eq!(
            CheckPaint::new(7).process(&mut ectx, &mut pkt, &mut anno),
            PacketResult::Out(1)
        );
        assert_eq!(
            CheckPaint::new(8).process(&mut ectx, &mut pkt, &mut anno),
            PacketResult::Out(0)
        );
    }

    #[test]
    fn packet_counter_accumulates() {
        use std::sync::atomic::Ordering;
        let stats = std::sync::Arc::new(CounterStats::default());
        let mut el = PacketCounter::new(stats.clone());
        let (nls, insp) = ctx_harness();
        for len in [64usize, 128, 256] {
            let mut pkt = v4_frame(len);
            run_one(&mut el, &nls, &insp, &mut pkt);
        }
        assert_eq!(stats.packets.load(Ordering::Relaxed), 3);
        assert_eq!(stats.bytes.load(Ordering::Relaxed), 64 + 128 + 256);
    }

    #[test]
    fn check_ip_header_accepts_valid_rejects_bad() {
        let mut el = CheckIPHeader;
        let (nls, insp) = ctx_harness();
        let mut pkt = v4_frame(64);
        assert_eq!(
            run_one(&mut el, &nls, &insp, &mut pkt),
            PacketResult::Out(0)
        );

        // Corrupt the checksum.
        pkt.data_mut()[24] ^= 0xff;
        assert_eq!(
            run_one(&mut el, &nls, &insp, &mut pkt),
            PacketResult::Out(1)
        );

        // Non-IP ethertype.
        let mut arp = v4_frame(64);
        arp.data_mut()[12] = 0x08;
        arp.data_mut()[13] = 0x06;
        assert_eq!(
            run_one(&mut el, &nls, &insp, &mut arp),
            PacketResult::Out(1)
        );

        // Truncated frame.
        let mut small = Packet::from_bytes(&[0u8; 10]);
        assert_eq!(
            run_one(&mut el, &nls, &insp, &mut small),
            PacketResult::Out(1)
        );
    }

    #[test]
    fn dec_ttl_drops_at_zero_and_keeps_checksum() {
        let mut el = DecIPTTL;
        let (nls, insp) = ctx_harness();
        let mut pkt = v4_frame(64);
        // TTL starts at 64; decrement 63 times fine.
        for _ in 0..63 {
            assert_eq!(
                run_one(&mut el, &nls, &insp, &mut pkt),
                PacketResult::Out(0)
            );
        }
        // The header must still checksum after all updates.
        let mut chk = CheckIPHeader;
        assert_eq!(
            run_one(&mut chk, &nls, &insp, &mut pkt),
            PacketResult::Out(0)
        );
        // TTL 1 -> 0: drop.
        assert_eq!(run_one(&mut el, &nls, &insp, &mut pkt), PacketResult::Drop);
    }

    #[test]
    fn l2fwd_swaps_and_rotates() {
        let mut el = L2Forward::new(3);
        let (nls, insp) = ctx_harness();
        let mut outs = Vec::new();
        for _ in 0..4 {
            let mut pkt = v4_frame(64);
            let src = ether::EtherView::parse(pkt.data()).unwrap().src();
            let (r, anno) = crate::test_util::run_one_anno(&mut el, &nls, &insp, &mut pkt);
            assert_eq!(r, PacketResult::Out(0));
            assert_eq!(ether::EtherView::parse(pkt.data()).unwrap().dst(), src);
            outs.push(anno.get(anno::IFACE_OUT));
        }
        assert_eq!(outs, vec![0, 1, 2, 0]);
    }

    #[test]
    fn random_branch_respects_probability() {
        let mut el = RandomWeightedBranch::new(0.25, 42);
        let (nls, insp) = ctx_harness();
        let mut minority = 0;
        for _ in 0..4000 {
            let mut pkt = v4_frame(64);
            if run_one(&mut el, &nls, &insp, &mut pkt) == PacketResult::Out(1) {
                minority += 1;
            }
        }
        let frac = minority as f64 / 4000.0;
        assert!((frac - 0.25).abs() < 0.03, "observed {frac}");
    }

    #[test]
    fn drop_broadcasts_filters_multicast() {
        let mut el = DropBroadcasts;
        let (nls, insp) = ctx_harness();
        let mut uni = v4_frame(64);
        assert_eq!(
            run_one(&mut el, &nls, &insp, &mut uni),
            PacketResult::Out(0)
        );
        let mut bc = v4_frame(64);
        bc.data_mut()[0..6].copy_from_slice(&[0xff; 6]);
        assert_eq!(run_one(&mut el, &nls, &insp, &mut bc), PacketResult::Drop);
    }
}
