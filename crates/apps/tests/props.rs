//! Property tests of the application substrates: routing tables against
//! oracles, ESP round trips for arbitrary payloads, and the header check's
//! fast path against its full parse.

use std::sync::Arc;

use proptest::prelude::*;

use nba_apps::common::CheckIPHeader;
use nba_apps::ipsec::{open_esp, IPsecAES, IPsecAuthHMAC, IPsecESPEncap, SaTable};
use nba_apps::ipv4::{RouteV4, RoutingTableV4};
use nba_apps::ipv6::{RouteV6, RoutingTableV6};
use nba_apps::stateful::BackendTable;
use nba_core::batch::{Anno, PacketResult};
use nba_core::element::{ComputeMode, ElemCtx, Element};
use nba_core::nls::NodeLocalStorage;
use nba_core::stats::{Counters, SystemInspector};
use nba_io::proto::{self, ether, ipv4::Ipv4View, FrameBuilder};
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
