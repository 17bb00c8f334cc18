//! Property tests of the application substrates: routing tables against
//! oracles, ESP round trips for arbitrary payloads, the header check's
//! fast path against its full parse, and the stateful elements' checksum
//! rewrite and batch bodies against their full forms.

use std::sync::Arc;

use proptest::prelude::*;

use nba_apps::common::CheckIPHeader;
use nba_apps::ipsec::{open_esp, IPsecAES, IPsecAuthHMAC, IPsecESPEncap, SaTable};
use nba_apps::ipv4::{RouteV4, RoutingTableV4};
use nba_apps::ipv6::{RouteV6, RoutingTableV6};
use nba_apps::stateful::{
    BackendTable, ConnTrackFirewall, FirewallConfig, MaglevConfig, MaglevLb, Nat44, NatConfig,
};
use nba_core::batch::{anno, Anno, PacketBatch, PacketResult};
use nba_core::element::{ComputeMode, ElemCtx, Element};
use nba_core::flow::{FlowOp, FlowRegistry, FlowShardSnapshot, FlowTableConfig};
use nba_core::nls::NodeLocalStorage;
use nba_core::stats::{Counters, SystemInspector};
use nba_io::checksum;
use nba_io::proto::{self, ether, ipv4::Ipv4View, FrameBuilder};
use nba_io::proto::{IPPROTO_TCP, TCP_ACK, TCP_FIN, TCP_RST, TCP_SYN};
use nba_io::Packet;
use nba_sim::Time;

fn route_v4() -> impl Strategy<Value = RouteV4> {
    (any::<u32>(), 0u8..=32, 0u16..1000).prop_map(|(p, len, hop)| RouteV4 {
        prefix: if len == 0 {
            0
        } else {
            p >> (32 - u32::from(len)) << (32 - u32::from(len))
        },
        len,
        next_hop: hop,
    })
}

fn route_v6() -> impl Strategy<Value = RouteV6> {
    (any::<u128>(), 0u8..=64, 0u16..1000).prop_map(|(p, len, hop)| RouteV6 {
        prefix: if len == 0 {
            0
        } else {
            p >> (128 - u32::from(len)) << (128 - u32::from(len))
        },
        len,
        next_hop: hop,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DIR-24-8 equals the linear-scan oracle for arbitrary route sets.
    #[test]
    fn dir24_8_equals_oracle(
        routes in proptest::collection::vec(route_v4(), 1..40),
        probes in proptest::collection::vec(any::<u32>(), 1..50),
    ) {
        let t = RoutingTableV4::build(&routes);
        for dst in probes {
            prop_assert_eq!(t.lookup(dst), t.lookup_linear(dst), "dst {:#x}", dst);
        }
        // Probing near the inserted prefixes stresses boundaries.
        for r in &routes {
            for delta in [0u32, 1, 255, 256] {
                let dst = r.prefix.wrapping_add(delta);
                prop_assert_eq!(t.lookup(dst), t.lookup_linear(dst), "dst {:#x}", dst);
            }
        }
    }

    /// Binary-search-on-lengths equals the linear-scan oracle.
    #[test]
    fn waldvogel_equals_oracle(
        routes in proptest::collection::vec(route_v6(), 1..30),
        probes in proptest::collection::vec(any::<u128>(), 1..30),
    ) {
        let t = RoutingTableV6::build(&routes);
        for dst in probes {
            prop_assert_eq!(t.lookup(dst), t.lookup_linear(dst), "dst {:#x}", dst);
        }
        for r in &routes {
            for delta in [0u128, 1, 1 << 64, 1 << 96] {
                let dst = r.prefix.wrapping_add(delta);
                prop_assert_eq!(t.lookup(dst), t.lookup_linear(dst), "dst {:#x}", dst);
            }
        }
    }

    /// The full encap+encrypt+auth pipeline round-trips any payload.
    #[test]
    fn esp_round_trip(
        payload in proptest::collection::vec(any::<u8>(), 8..1200),
        dst in any::<u32>(),
    ) {
        let frame_len = 42 + payload.len();
        let mut f = vec![0u8; frame_len];
        FrameBuilder::default().build_ipv4(&mut f, frame_len, 0x0a000001, dst);
        f[42..].copy_from_slice(&payload);
        let original_ip_payload = f[34..].to_vec();
        let mut pkt = Packet::from_bytes(&f);

        let sa = Arc::new(SaTable::new(5));
        let counters = Arc::new(Counters::default());
        let insp = SystemInspector::new(vec![counters]);
        let nls = NodeLocalStorage::new();
        let mut ctx = ElemCtx {
            now: Time::ZERO,
            compute: ComputeMode::Full,
            nls: &nls,
            worker: 0,
            inspector: &insp,
        };
        let mut anno = Anno::default();
        let mut encap = IPsecESPEncap::new(sa.clone());
        let mut aes = IPsecAES::new(sa.clone());
        let mut auth = IPsecAuthHMAC::new(sa.clone());
        prop_assert_eq!(encap.process(&mut ctx, &mut pkt, &mut anno), PacketResult::Out(0));
        prop_assert_eq!(aes.process(&mut ctx, &mut pkt, &mut anno), PacketResult::Out(0));
        prop_assert_eq!(auth.process(&mut ctx, &mut pkt, &mut anno), PacketResult::Out(0));

        let (proto, recovered) = open_esp(pkt.data(), &sa).expect("open");
        prop_assert_eq!(proto, nba_io::proto::IPPROTO_UDP);
        prop_assert_eq!(recovered, original_ip_payload);
    }
}

/// A frame for the header checks: a valid IPv4/UDP frame of `len`
/// bytes to `dst` with one `defect` applied (0 and anything past the last
/// kind leave it valid), the header checksum recomputed after every edit
/// but the deliberate corruption.
fn test_frame(defect: u8, len: usize, dst: u32, cut: usize) -> Packet {
    let len = len.max(FrameBuilder::MIN_V4_LEN);
    let mut f = vec![0u8; len.max(FrameBuilder::MIN_V6_LEN)];
    FrameBuilder::default().build_ipv4(&mut f, len, 0x0a00_0001, dst);
    f.truncate(len);
    let reseal = |f: &mut [u8], hdr_len: usize| {
        nba_io::proto::ipv4::write_checksum(&mut f[14..], hdr_len);
    };
    match defect {
        1 => f[24] ^= 0x5a,
        2 if len >= 38 => {
            // IHL 6: one word of options, still a valid header.
            f[14] = 0x46;
            reseal(&mut f, 24);
        }
        3 | 4 => {
            f[22] = defect - 3;
            reseal(&mut f, 20);
        }
        5 => f.truncate(cut % 34),
        6 => {
            f.resize(len.max(FrameBuilder::MIN_V6_LEN), 0);
            let n = f.len();
            FrameBuilder::default().build_ipv6(&mut f, n, 1, u128::from(dst));
        }
        7 => {
            f[14] = 0x65;
            reseal(&mut f, 20);
        }
        8 | 9 => {
            // Total length past the frame, or short of the header.
            let total = if defect == 8 { len - 13 } else { 19 };
            f[16..18].copy_from_slice(&(total as u16).to_be_bytes());
            reseal(&mut f, 20);
        }
        10 => f[12..14].copy_from_slice(&0x0806u16.to_be_bytes()),
        _ => {}
    }
    Packet::from_bytes(&f)
}

/// `CheckIPHeader`'s verdict by the full parse alone: an Ethernet II
/// frame carrying an IPv4 header that parses, with a good checksum and a
/// live TTL, leaves port 0.
fn full_parse_verdict(frame: &[u8]) -> PacketResult {
    let valid = ether::EtherView::parse(frame)
        .ok()
        .filter(|eth| eth.ethertype() == proto::ETHERTYPE_IPV4)
        .and_then(|eth| Ipv4View::parse(eth.payload()).ok())
        .is_some_and(|ip| ip.checksum_ok() && ip.ttl() > 0);
    PacketResult::Out(if valid { 0 } else { 1 })
}

fn frames() -> impl Strategy<Value = Vec<(u8, usize, u32, usize)>> {
    let frame = (0u8..14, 0usize..200, any::<u32>(), any::<usize>());
    proptest::collection::vec(frame, 0..70)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `CheckIPHeader`'s option-less fast path decides every frame as the
    /// full parse does: valid, bad-checksum, IHL 6, TTL 0 and 1, short,
    /// IPv6, wrong-version, bad-length and non-IP frames.
    #[test]
    fn check_ip_header_fast_path_equals_full_parse(frames in frames()) {
        let insp = SystemInspector::new(vec![Arc::new(Counters::default())]);
        let nls = NodeLocalStorage::new();
        let mut ctx = ElemCtx {
            now: Time::ZERO,
            compute: ComputeMode::Full,
            nls: &nls,
            worker: 0,
            inspector: &insp,
        };
        for &(defect, len, dst, cut) in &frames {
            let mut pkt = test_frame(defect, len, dst, cut);
            let want = full_parse_verdict(pkt.data());
            let got = CheckIPHeader.process(&mut ctx, &mut pkt, &mut Anno::default());
            prop_assert_eq!(got, want, "defect {} len {}", defect, len);
        }
    }
}

fn backend_set(bits: u16) -> Vec<u32> {
    (0..16u32).filter(|b| bits & (1 << b) != 0).collect()
}

proptest! {
    /// Rendezvous slot assignment is minimally disruptive: removing one
    /// backend reassigns exactly the slots that backend owned, and every
    /// untouched slot keeps its owner bit-for-bit.
    #[test]
    fn maglev_removal_remaps_only_the_removed_backends_slots(
        bits in 3u16..u16::MAX,
        victim_pick in 0usize..16,
        seed in any::<u64>(),
        table_size in proptest::sample::select(vec![13u32, 251, 509]),
    ) {
        let backends = backend_set(bits);
        prop_assume!(backends.len() >= 2);
        let victim = backends[victim_pick % backends.len()];
        let survivors: Vec<u32> =
            backends.iter().copied().filter(|&b| b != victim).collect();

        let before = BackendTable::build(seed, table_size, &backends);
        let after = BackendTable::build(seed, table_size, &survivors);
        prop_assert_eq!(before.slots().len(), after.slots().len());
        for (slot, (&b, &a)) in before.slots().iter().zip(after.slots()).enumerate() {
            prop_assert_ne!(a, victim, "slot {} still routed to the removed backend", slot);
            if b != victim {
                prop_assert_eq!(a, b, "slot {} moved although its owner survived", slot);
            }
        }
    }

    /// Adding a backend only steals slots for the newcomer: every slot
    /// either keeps its previous owner or switches to the added backend,
    /// never to a third party.
    #[test]
    fn maglev_addition_only_steals_for_the_newcomer(
        bits in 1u16..u16::MAX,
        newcomer_pick in 0usize..16,
        seed in any::<u64>(),
    ) {
        let mut backends = backend_set(bits);
        let absent: Vec<u32> =
            (0..16u32).filter(|b| !backends.contains(b)).collect();
        prop_assume!(!absent.is_empty());
        let newcomer = absent[newcomer_pick % absent.len()];

        let before = BackendTable::build(seed, 251, &backends);
        backends.push(newcomer);
        let after = BackendTable::build(seed, 251, &backends);
        for (&b, &a) in before.slots().iter().zip(after.slots()) {
            prop_assert!(a == b || a == newcomer,
                "slot moved from {} to {} when only {} was added", b, a, newcomer);
        }
    }

    /// Every pick lands on a live backend, and the slot distribution is
    /// roughly balanced: no backend is starved and none owns more than a
    /// small multiple of its fair share.
    #[test]
    fn maglev_picks_live_backends_and_balances(
        bits in 1u16..u16::MAX,
        seed in any::<u64>(),
        hashes in proptest::collection::vec(any::<u64>(), 1..50),
    ) {
        let backends = backend_set(bits);
        prop_assume!(!backends.is_empty());
        let table = BackendTable::build(seed, 251, &backends);
        for h in hashes {
            prop_assert!(backends.contains(&table.pick(h)));
        }
        let fair = table.slots().len() / backends.len();
        for &b in &backends {
            let owned = table.slots().iter().filter(|&&s| s == b).count();
            prop_assert!(owned >= 1, "backend {} owns no slots", b);
            prop_assert!(owned <= fair * 4 + 8,
                "backend {} owns {} of {} slots", b, owned, table.slots().len());
        }
    }
}

// --- Stateful elements ---

/// The one's-complement sum of two 16-bit words.
fn ones_add(a: u16, b: u16) -> u16 {
    let s = u32::from(a) + u32::from(b);
    ((s & 0xffff) + (s >> 16)) as u16
}

/// `a - b` in one's complement, reading both zeros (0 and 0xffff) as one.
fn ones_diff(a: u16, b: u16) -> u16 {
    match ones_add(a, !b) {
        0xffff => 0,
        d => d,
    }
}

/// Where a generator frame (IHL 5) keeps its L4 checksum.
fn l4_ck_at(frame: &[u8]) -> usize {
    34 + if frame[23] == IPPROTO_TCP { 16 } else { 6 }
}

fn stored(frame: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([frame[at], frame[at + 1]])
}

/// The L4 checksum a full recomputation over the pseudo-header and the
/// segment gives `frame`, before UDP's zero-to-0xffff rule.
fn full_l4_checksum(frame: &[u8]) -> u16 {
    let total = usize::from(u16::from_be_bytes([frame[16], frame[17]]));
    let mut f = frame.to_vec();
    let at = l4_ck_at(&f);
    f[at..at + 2].fill(0);
    let pseudo = proto::ipv4_pseudo_header(&f[14..34], (total - 20) as u16, f[23]);
    checksum::internet_checksum_parts(&[&pseudo, &f[34..14 + total]])
}

/// The IPv4 header checksum a full recomputation gives `frame`.
fn full_ip_checksum(frame: &[u8]) -> u16 {
    let mut hdr = frame[14..34].to_vec();
    hdr[10..12].fill(0);
    checksum::internet_checksum(&hdr)
}

/// Stores a valid L4 checksum in `frame` (a computed UDP zero goes out as
/// 0xffff), or none (0) for UDP with `udp_zero`.
fn seal(frame: &mut [u8], udp_zero: bool) {
    let at = l4_ck_at(frame);
    let ck = match full_l4_checksum(frame) {
        _ if udp_zero => 0,
        0 if frame[23] != IPPROTO_TCP => 0xffff,
        ck => ck,
    };
    frame[at..at + 2].copy_from_slice(&ck.to_be_bytes());
}

/// Where a TCP or UDP generator frame's payload starts.
fn payload_at(tcp: bool) -> usize {
    if tcp {
        FrameBuilder::MIN_V4_TCP_LEN
    } else {
        FrameBuilder::MIN_V4_LEN
    }
}

/// A TCP or UDP frame of `len` bytes from `src:sport`, its payload filled
/// from `fill`, sealed by [`seal`].
fn l4_frame(tcp: bool, len: usize, src: u32, sport: u16, fill: u64, udp_zero: bool) -> Vec<u8> {
    let b = FrameBuilder {
        src_port: sport,
        dst_port: 80,
        ..Default::default()
    };
    let mut f = vec![0u8; len];
    if tcp {
        b.build_ipv4_tcp(&mut f, len, src, 0x0808_0808, TCP_ACK, 7);
    } else {
        b.build_ipv4(&mut f, len, src, 0x0808_0808);
    }
    let mut x = fill | 1;
    for byte in &mut f[payload_at(tcp)..] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *byte = x as u8;
    }
    seal(&mut f, udp_zero);
    f
}

fn inspector() -> SystemInspector {
    SystemInspector::new(vec![Arc::new(Counters::default())])
}

/// `frame` through a fresh `Nat44` whose pool starts at `base`, on flow
/// `flow`: the translated frame.
fn translate_once(frame: &[u8], base: u32, flow: u64) -> Vec<u8> {
    let nls = NodeLocalStorage::new();
    FlowRegistry::new().publish(&nls);
    let insp = inspector();
    let mut ctx = ElemCtx {
        now: Time::ZERO,
        compute: ComputeMode::Full,
        nls: &nls,
        worker: 0,
        inspector: &insp,
    };
    let mut nat = Nat44::new(NatConfig {
        ext_ip_base: base,
        ..NatConfig::default()
    });
    let mut pkt = Packet::from_bytes(frame);
    let mut a = Anno::default();
    a.set(anno::FLOW_ID, flow);
    assert_eq!(
        nat.process(&mut ctx, &mut pkt, &mut a),
        PacketResult::Out(0)
    );
    pkt.data().to_vec()
}

/// One packet of a stateful stream: source host, destination host, flow
/// id (its bucket) and kind (UDP, ICMP, five TCP flag sets, or masked).
type StreamPkt = (u8, u8, u8, u8);

/// The frame of a [`StreamPkt`]. ICMP is not TCP/UDP, so every element
/// drops it as unparseable.
fn stream_frame(&(src, dst, _, kind): &StreamPkt) -> Vec<u8> {
    let b = FrameBuilder {
        src_port: 1000 + u16::from(src % 3),
        dst_port: 80 + u16::from(dst),
        ..Default::default()
    };
    let (s, d) = (0x0a00_0000 | u32::from(src), 0xc0a8_0000 | u32::from(dst));
    let mut f = vec![0u8; 64];
    match kind {
        0 => b.build_ipv4(&mut f, 64, s, d),
        1 => {
            b.build_ipv4(&mut f, 64, s, d);
            f[23] = 1;
        }
        k => {
            let flags = [
                TCP_SYN,
                TCP_ACK,
                TCP_FIN | TCP_ACK,
                TCP_RST,
                TCP_SYN | TCP_ACK,
            ];
            b.build_ipv4_tcp(&mut f, 64, s, d, flags[usize::from(k - 2) % 5], 0);
        }
    }
    f
}

/// Stream kinds from this one on are masked slots: the batch body must
/// skip them, and the per-packet run never sees them.
const MASKED: u8 = 7;

fn stateful_element(which: u8, table: FlowTableConfig, ports: u32) -> Box<dyn Element> {
    match which {
        0 => Box::new(Nat44::new(NatConfig {
            ports_per_ip: ports,
            table,
            ..NatConfig::default()
        })),
        1 => Box::new(ConnTrackFirewall::new(FirewallConfig { table })),
        _ => Box::new(MaglevLb::new(MaglevConfig {
            backends: 4,
            flip_epoch: 2,
            table,
            ..MaglevConfig::default()
        })),
    }
}

/// What a stream run leaves: per packet (result, frame, `IFACE_OUT`),
/// `None` for a masked slot, plus the flow journal and the counters.
type StreamOutcome = (
    Vec<Option<(PacketResult, Vec<u8>, u64)>>,
    Option<(Vec<FlowOp>, FlowShardSnapshot)>,
);

/// Runs `stream` through a fresh element on worker 0 of 2 (odd buckets
/// are foreign, so inserts there migrate): through `process` packet by
/// packet, or through `process_batch` in batches of `batch`.
fn run_stream(
    which: u8,
    table: FlowTableConfig,
    ports: u32,
    stream: &[StreamPkt],
    batch: Option<usize>,
) -> StreamOutcome {
    let nls = NodeLocalStorage::new();
    let registry = FlowRegistry::new();
    registry.set_workers(2);
    registry.enable_journal();
    registry.publish(&nls);
    let insp = inspector();
    let mut ctx = ElemCtx {
        now: Time::ZERO,
        compute: ComputeMode::Full,
        nls: &nls,
        worker: 0,
        inspector: &insp,
    };
    let mut el = stateful_element(which, table, ports);
    let mut out = Vec::new();
    match batch {
        None => {
            for p in stream {
                if p.3 >= MASKED {
                    out.push(None);
                    continue;
                }
                let mut pkt = Packet::from_bytes(&stream_frame(p));
                let mut a = Anno::default();
                a.set(anno::FLOW_ID, u64::from(p.2));
                let r = el.process(&mut ctx, &mut pkt, &mut a);
                out.push(Some((r, pkt.data().to_vec(), a.get(anno::IFACE_OUT))));
            }
        }
        Some(n) => {
            for chunk in stream.chunks(n) {
                let mut b = PacketBatch::with_capacity(n);
                for p in chunk {
                    let i = b.push(Packet::from_bytes(&stream_frame(p)));
                    b.anno_mut(i).set(anno::FLOW_ID, u64::from(p.2));
                    if p.3 >= MASKED {
                        b.mask(i);
                    }
                }
                el.process_batch(&mut ctx, &mut b);
                for i in 0..b.slot_count() {
                    out.push(b.packet(i).map(|pkt| {
                        (
                            b.result(i),
                            pkt.data().to_vec(),
                            b.anno(i).get(anno::IFACE_OUT),
                        )
                    }));
                }
            }
        }
    }
    let report = registry
        .report()
        .map(|r| (r.journal.ops.clone(), r.totals()));
    (out, report)
}

proptest! {
    /// NAT44's incremental checksum update (RFC 1624) equals a full
    /// recomputation of the IPv4 and L4 checksums on TCP and UDP frames
    /// of any length (odd segments included); a UDP datagram sent without
    /// a checksum gets a full one, and a computed zero leaves as 0xffff
    /// (`make_zero` aims the payload at it). An L4 checksum that arrived
    /// wrong leaves wrong by the same amount.
    #[test]
    fn stateful_rewrite_checksums_equal_full_recompute(
        tcp in any::<bool>(),
        len in 42usize..160,
        src in any::<u32>(),
        sport in any::<u16>(),
        fill in any::<u64>(),
        base in any::<u32>(),
        flow in any::<u64>(),
        udp_zero in any::<bool>(),
        make_zero in any::<bool>(),
        corrupt in proptest::sample::select(vec![0u16, 0, 0, 1, 0x7fff, 0xfffe]),
    ) {
        let len = if tcp { len.max(FrameBuilder::MIN_V4_TCP_LEN) } else { len };
        let udp_zero = udp_zero && !tcp;
        let mut frame = l4_frame(tcp, len, src, sport, fill, udp_zero);
        let at = l4_ck_at(&frame);
        let word = payload_at(tcp);
        let make_zero = make_zero && len >= word + 2;
        if make_zero {
            // Add the translated frame's checksum to a payload word: the
            // translated sum becomes 0xffff, its checksum zero.
            let c = full_l4_checksum(&translate_once(&frame, base, flow));
            let w = ones_add(u16::from_be_bytes([frame[word], frame[word + 1]]), c);
            frame[word..word + 2].copy_from_slice(&w.to_be_bytes());
            seal(&mut frame, udp_zero);
        }
        let valid = stored(&frame, at);
        let corrupt = if udp_zero { 0 } else { corrupt };
        if corrupt != 0 {
            let bad = ones_add(valid, corrupt);
            frame[at..at + 2].copy_from_slice(&bad.to_be_bytes());
        }
        let sent = stored(&frame, at);

        let out = translate_once(&frame, base, flow);
        prop_assert_eq!(stored(&out, 24), full_ip_checksum(&out));
        let full = full_l4_checksum(&out);
        let want = if !tcp && full == 0 { 0xffff } else { full };
        let got = stored(&out, at);
        if make_zero {
            prop_assert_eq!(full, 0, "the payload word did not aim the sum at zero");
        }
        if corrupt == 0 {
            prop_assert_eq!(got, want, "tcp {} len {} udp_zero {}", tcp, len, udp_zero);
        } else {
            prop_assert_eq!(ones_diff(got, want), ones_diff(sent, valid));
        }
    }

    /// The stateful elements' batch body equals `process` run packet by
    /// packet over the same stream, at batch sizes 1, 7 and 64: frames,
    /// results, `IFACE_OUT`, the flow journal op for op, and every
    /// counter. The tables are small enough to force sweeps, lazy reaps
    /// (TTL 0), table-full drops and NAT port exhaustion, and the same
    /// flow often recurs within one batch.
    #[test]
    fn stateful_batch_body_equals_per_packet(
        which in 0u8..3,
        stream in proptest::collection::vec((0u8..12, 0u8..3, 0u8..6, 0u8..9), 1..250),
        capacity in proptest::sample::select(vec![128u64, 256, 1024]),
        ttl in 0u64..3,
        epoch_pkts in proptest::sample::select(vec![1u64, 2, 5]),
        ports in proptest::sample::select(vec![128u32, 256, 640]),
    ) {
        let table = FlowTableConfig {
            capacity,
            ttl_epochs: ttl,
            embryonic_ttl_epochs: 1,
            epoch_pkts,
        };
        let want = run_stream(which, table, ports, &stream, None);
        for n in [1, 7, 64] {
            let got = run_stream(which, table, ports, &stream, Some(n));
            prop_assert!(got == want, "element {} batch {}: {:?} != {:?}", which, n, got, want);
        }
    }
}

/// The streams `stateful_batch_body_equals_per_packet` draws do reach the
/// corners it names: sweeps and lazy reaps evict, full tables refuse
/// inserts, NAT slices run out of ports, and re-steered inserts migrate.
#[test]
fn stateful_streams_reach_the_corners() {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let stream: Vec<StreamPkt> = (0..2000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let b = x.to_le_bytes();
            (b[0] % 12, b[1] % 3, b[2] % 6, b[3] % 9)
        })
        .collect();
    // TTL 0: every revisit finds its binding expired and reaps it. TTL 2
    // with one port per bucket slice: bindings live, and slices run dry.
    for (ttl, ports) in [(0, 640), (2, 128)] {
        let table = FlowTableConfig {
            capacity: 256,
            ttl_epochs: ttl,
            embryonic_ttl_epochs: 1,
            epoch_pkts: 5,
        };
        let (_, report) = run_stream(0, table, ports, &stream, None);
        let (_, totals) = report.expect("the stream attached a shard");
        assert!(totals.evict_idle > 0, "ttl {ttl}: {totals:?}");
        assert!(totals.migrated_in > 0, "ttl {ttl}: {totals:?}");
        if ttl == 0 {
            assert_eq!(totals.hits, 0, "{totals:?}");
        } else {
            assert!(totals.hits > 0 && totals.table_full_drops > 0, "{totals:?}");
        }
    }
}
