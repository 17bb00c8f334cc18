//! The IPv4 router: DIR-24-8 longest-prefix-match lookup (Gupta et al.,
//! INFOCOM'98), as in PacketShader and the paper's IPv4 application.
//!
//! `TBL24` maps the top 24 address bits to either a next hop or (high bit
//! set) an index into 256-entry `TBLlong` blocks indexed by the low 8 bits.
//! Lookup is one memory access for prefixes up to /24 and two beyond —
//! which is why the paper calls the IPv4 router memory-intensive.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use nba_core::batch::{anno, Anno, PacketResult};
use nba_core::element::{
    DbInput, DbOutput, Disposition, ElemCtx, Element, ElementEffects, HeaderFact, KernelIo,
    OffloadSpec, Postprocess, SlotClaim,
};
use nba_io::proto::ether::ETHER_HDR_LEN;
use nba_io::Packet;
use nba_sim::{CpuProfile, GpuProfile};

/// "No route" marker inside table entries.
const NO_ROUTE: u16 = 0x7fff;
/// High bit: the entry points into `TBLlong`.
const LONG_FLAG: u16 = 0x8000;

/// A route: prefix, length, next hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteV4 {
    /// Network prefix (host byte order, upper `len` bits significant).
    pub prefix: u32,
    /// Prefix length, 0..=32.
    pub len: u8,
    /// Next-hop id (maps onto an output port).
    pub next_hop: u16,
}

/// The compiled DIR-24-8 table.
pub struct RoutingTableV4 {
    tbl24: Vec<u16>,
    tbl_long: Vec<u16>,
    routes: Vec<RouteV4>,
}

impl RoutingTableV4 {
    /// Builds the table from a route list (longest prefix wins).
    ///
    /// # Panics
    ///
    /// Panics if a prefix length exceeds 32 or a next hop uses the marker
    /// bits.
    pub fn build(routes: &[RouteV4]) -> RoutingTableV4 {
        let mut tbl24 = vec![NO_ROUTE; 1 << 24];
        let mut tbl_long: Vec<u16> = Vec::new();
        // Insert in ascending prefix-length order so longer prefixes
        // overwrite shorter ones.
        let mut sorted: Vec<RouteV4> = routes.to_vec();
        sorted.sort_by_key(|r| r.len);
        for r in &sorted {
            assert!(r.len <= 32, "prefix length {} out of range", r.len);
            assert!(
                r.next_hop & (LONG_FLAG | NO_ROUTE) != LONG_FLAG && r.next_hop < NO_ROUTE,
                "next hop {} collides with table markers",
                r.next_hop
            );
            if r.len <= 24 {
                let shift = 24 - u32::from(r.len);
                let base = (r.prefix >> 8) >> shift << shift;
                let count = 1usize << shift;
                for slot in &mut tbl24[base as usize..base as usize + count] {
                    // A /<=24 route must not clobber existing TBLlong
                    // blocks created by longer prefixes... but since we
                    // insert short-to-long, blocks do not exist yet.
                    *slot = r.next_hop;
                }
            } else {
                let idx24 = (r.prefix >> 8) as usize;
                let cur = tbl24[idx24];
                let block = if cur & LONG_FLAG != 0 {
                    (cur & !LONG_FLAG) as usize
                } else {
                    // Materialize a block seeded with the current entry.
                    let block = tbl_long.len() / 256;
                    tbl_long.extend(std::iter::repeat_n(cur, 256));
                    tbl24[idx24] = LONG_FLAG | block as u16;
                    block
                };
                let shift = 32 - u32::from(r.len);
                let low = (r.prefix & 0xff) >> shift << shift;
                let count = 1usize << shift;
                let start = block * 256 + low as usize;
                for slot in &mut tbl_long[start..start + count] {
                    *slot = r.next_hop;
                }
            }
        }
        RoutingTableV4 {
            tbl24,
            tbl_long,
            routes: sorted,
        }
    }

    /// Generates a random-but-reproducible table: a default route plus
    /// `n` prefixes spread over /8../28 (a few percent beyond /24 to
    /// exercise `TBLlong`), next hops in `0..next_hops`. `next_hops` is
    /// clamped to `1..=0x7fff`, the next-hop ids the table can hold.
    pub fn random(seed: u64, n: usize, next_hops: u16) -> RoutingTableV4 {
        let next_hops = next_hops.clamp(1, NO_ROUTE);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut routes = vec![RouteV4 {
            prefix: 0,
            len: 0,
            next_hop: rng.gen_range(0..next_hops),
        }];
        // A default-free-zone-like coverage layer: every /8 is routed, so
        // random traffic spreads over all next hops (and output ports)
        // instead of collapsing onto the default route.
        for b in 0u32..=255 {
            routes.push(RouteV4 {
                prefix: b << 24,
                len: 8,
                next_hop: rng.gen_range(0..next_hops),
            });
        }
        for _ in 0..n {
            let len = match rng.gen_range(0..100) {
                0..=4 => rng.gen_range(9..=15),
                5..=89 => rng.gen_range(16..=24),
                _ => rng.gen_range(25..=28),
            };
            let prefix = rng.gen::<u32>() >> (32 - len) << (32 - len);
            routes.push(RouteV4 {
                prefix,
                len: len as u8,
                next_hop: rng.gen_range(0..next_hops),
            });
        }
        RoutingTableV4::build(&routes)
    }

    /// Looks up the next hop for `dst` (1-2 memory accesses).
    #[inline]
    pub fn lookup(&self, dst: u32) -> Option<u16> {
        let e = self.tbl24[(dst >> 8) as usize];
        let hop = if e & LONG_FLAG != 0 {
            self.tbl_long[((e & !LONG_FLAG) as usize) * 256 + (dst & 0xff) as usize]
        } else {
            e
        };
        if hop == NO_ROUTE {
            None
        } else {
            Some(hop)
        }
    }

    /// Linear-scan longest-prefix match (test oracle).
    pub fn lookup_linear(&self, dst: u32) -> Option<u16> {
        let mut best: Option<(u8, u16)> = None;
        for r in &self.routes {
            let mask = if r.len == 0 {
                0
            } else {
                u32::MAX << (32 - u32::from(r.len))
            };
            if dst & mask == r.prefix & mask {
                // Ties resolve to the later route, matching build order.
                match best {
                    Some((l, _)) if l > r.len => {}
                    _ => best = Some((r.len, r.next_hop)),
                }
            }
        }
        best.map(|(_, h)| h)
    }

    /// Number of TBLlong blocks materialized.
    pub fn long_blocks(&self) -> usize {
        self.tbl_long.len() / 256
    }
}

impl std::fmt::Debug for RoutingTableV4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutingTableV4")
            .field("routes", &self.routes.len())
            .field("long_blocks", &self.long_blocks())
            .finish()
    }
}

/// Parses a routes file: one `prefix/len next_hop` per line, `#` comments.
///
/// ```text
/// # destination        next hop
/// 0.0.0.0/0            0
/// 10.0.0.0/8           3
/// 192.168.1.128/25     7
/// ```
pub fn parse_routes_v4(text: &str) -> Result<Vec<RouteV4>, String> {
    let mut routes = Vec::new();
    for (lno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (dest, hop) = (parts.next(), parts.next());
        let (Some(dest), Some(hop)) = (dest, hop) else {
            return Err(format!("line {}: expected 'prefix/len hop'", lno + 1));
        };
        let (addr, len) = dest
            .split_once('/')
            .ok_or_else(|| format!("line {}: missing /len", lno + 1))?;
        let len: u8 = len
            .parse()
            .ok()
            .filter(|l| *l <= 32)
            .ok_or_else(|| format!("line {}: bad prefix length {len:?}", lno + 1))?;
        let mut octets = [0u8; 4];
        let mut it = addr.split('.');
        for o in &mut octets {
            *o = it
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| format!("line {}: bad address {addr:?}", lno + 1))?;
        }
        if it.next().is_some() {
            return Err(format!("line {}: bad address {addr:?}", lno + 1));
        }
        let next_hop: u16 = hop
            .parse()
            .map_err(|_| format!("line {}: bad next hop {hop:?}", lno + 1))?;
        routes.push(RouteV4 {
            prefix: u32::from_be_bytes(octets),
            len,
            next_hop,
        });
    }
    if routes.is_empty() {
        return Err("no routes in file".to_owned());
    }
    Ok(routes)
}

/// Byte offset of the IPv4 destination address in an Ethernet frame.
const DST_OFFSET: usize = ETHER_HDR_LEN + 16;

/// The IPv4 lookup element (offloadable).
///
/// Writes the routing decision into the [`anno::IFACE_OUT`] annotation —
/// the framework, not the element, owns the port mapping (§3.2).
pub struct IPLookup {
    table: Arc<RoutingTableV4>,
    ports: u16,
}

impl IPLookup {
    /// Creates a lookup element over a shared table, mapping next hops onto
    /// `ports` output ports.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(table: Arc<RoutingTableV4>, ports: u16) -> IPLookup {
        assert!(ports > 0);
        IPLookup { table, ports }
    }

    /// The shared table.
    pub fn table(&self) -> &Arc<RoutingTableV4> {
        &self.table
    }
}

impl Element for IPLookup {
    fn class_name(&self) -> &'static str {
        "IPLookup"
    }

    // The CPU path writes the next-hop port; post_offload reads the slot
    // the kernel's annotation postprocess filled.
    fn slot_claims(&self) -> &'static [SlotClaim] {
        const CLAIMS: &[SlotClaim] = &[
            SlotClaim::writes(anno::IFACE_OUT),
            SlotClaim::reads(anno::IFACE_OUT),
        ];
        CLAIMS
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, pkt: &mut Packet, anno: &mut Anno) -> PacketResult {
        let data = pkt.data();
        if data.len() < DST_OFFSET + 4 {
            return PacketResult::Drop;
        }
        let dst = u32::from_be_bytes(data[DST_OFFSET..DST_OFFSET + 4].try_into().unwrap());
        match self.table.lookup(dst) {
            Some(hop) => {
                anno.set(anno::IFACE_OUT, u64::from(hop % self.ports));
                PacketResult::Out(0)
            }
            None => PacketResult::Drop,
        }
    }

    fn cpu_profile(&self) -> CpuProfile {
        // Two dependent memory accesses over a 32 MB table: cache-hostile.
        CpuProfile::fixed(112)
    }

    // Trusts the destination-address field: must run behind a header
    // validator; packets with no matching route drop.
    fn effects(&self) -> ElementEffects {
        const REQ: &[HeaderFact] = &[HeaderFact::Ipv4Valid];
        ElementEffects {
            requires: REQ,
            disposition: Disposition::MayDrop,
            ..ElementEffects::default()
        }
    }

    fn offload(&self) -> Option<OffloadSpec> {
        let table = self.table.clone();
        let ports = self.ports;
        Some(OffloadSpec {
            input: DbInput::PartialPacket {
                offset: DST_OFFSET,
                len: 4,
            },
            output: DbOutput::PerItem { len: 8 },
            gpu: GpuProfile {
                // Two dependent global-memory reads per lane.
                fixed_ns: 900.0,
                ns_per_byte: 0.0,
            },
            kernel: Arc::new(move |io: KernelIo<'_>| {
                for i in 0..io.items {
                    let item = io.item_in(i);
                    let hop = if item.len() == 4 {
                        let dst = u32::from_be_bytes(item.try_into().unwrap());
                        table.lookup(dst).map(|h| h % ports)
                    } else {
                        None
                    };
                    // Drop-marker u64::MAX is translated by postprocessing
                    // consumers; routed packets carry the port.
                    let v = hop.map_or(u64::MAX, u64::from);
                    let r = io.item_out_range(i);
                    io.output[r].copy_from_slice(&v.to_le_bytes());
                }
            }),
            heavy: false,
            postprocess: Postprocess::Annotation(anno::IFACE_OUT),
        })
    }

    fn post_offload(&mut self, _: &mut ElemCtx<'_>, batch: &mut nba_core::batch::PacketBatch) {
        // The kernel marks lookup misses with u64::MAX: drop those.
        for (_, anno, result) in batch.live_mut() {
            *result = match anno.get(anno::IFACE_OUT) {
                u64::MAX => PacketResult::Drop,
                _ => PacketResult::Out(0),
            };
        }
    }
}

impl std::fmt::Debug for IPLookup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IPLookup")
            .field("table", &self.table)
            .field("ports", &self.ports)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{ctx_harness, run_one_anno};
    use nba_io::proto::FrameBuilder;

    fn route(p: &str, len: u8, hop: u16) -> RouteV4 {
        let parts: Vec<u8> = p.split('.').map(|x| x.parse().unwrap()).collect();
        RouteV4 {
            prefix: u32::from_be_bytes([parts[0], parts[1], parts[2], parts[3]]),
            len,
            next_hop: hop,
        }
    }

    #[test]
    fn routes_file_parses_and_builds() {
        let t = parse_routes_v4("# demo\n0.0.0.0/0 0\n10.0.0.0/8 3\n192.168.1.128/25 7 # deep\n")
            .unwrap();
        assert_eq!(t.len(), 3);
        let table = RoutingTableV4::build(&t);
        assert_eq!(table.lookup(u32::from_be_bytes([10, 1, 2, 3])), Some(3));
        assert_eq!(
            table.lookup(u32::from_be_bytes([192, 168, 1, 200])),
            Some(7)
        );
        assert_eq!(table.lookup(u32::from_be_bytes([8, 8, 8, 8])), Some(0));
    }

    #[test]
    fn routes_file_errors_carry_lines() {
        assert!(parse_routes_v4("").is_err());
        let e = parse_routes_v4("10.0.0.0/33 1").unwrap_err();
        assert!(e.contains("line 1"), "{e}");
        let e = parse_routes_v4("10.0.0.0/8 1\n10.0.0/8 2").unwrap_err();
        assert!(e.contains("line 2"), "{e}");
        let e = parse_routes_v4("10.0.0.0/8").unwrap_err();
        assert!(e.contains("expected"), "{e}");
    }

    #[test]
    fn longest_prefix_wins() {
        let t = RoutingTableV4::build(&[
            route("10.0.0.0", 8, 1),
            route("10.1.0.0", 16, 2),
            route("10.1.1.0", 24, 3),
            route("10.1.1.128", 25, 4),
            route("10.1.1.192", 27, 5),
        ]);
        assert_eq!(t.lookup(u32::from_be_bytes([10, 9, 9, 9])), Some(1));
        assert_eq!(t.lookup(u32::from_be_bytes([10, 1, 9, 9])), Some(2));
        assert_eq!(t.lookup(u32::from_be_bytes([10, 1, 1, 9])), Some(3));
        assert_eq!(t.lookup(u32::from_be_bytes([10, 1, 1, 129])), Some(4));
        assert_eq!(t.lookup(u32::from_be_bytes([10, 1, 1, 200])), Some(5));
        assert_eq!(t.lookup(u32::from_be_bytes([11, 0, 0, 1])), None);
        assert!(t.long_blocks() >= 1);
    }

    #[test]
    fn matches_linear_oracle_on_random_tables() {
        let t = RoutingTableV4::random(7, 800, 64);
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..4_000 {
            let dst: u32 = rng.gen();
            assert_eq!(t.lookup(dst), t.lookup_linear(dst), "dst = {dst:#x}");
        }
    }

    #[test]
    fn random_table_has_default_route() {
        let t = RoutingTableV4::random(3, 100, 8);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(t.lookup(rng.gen()).is_some());
        }
    }

    #[test]
    fn element_sets_out_port_annotation() {
        let t = Arc::new(RoutingTableV4::build(&[route("0.0.0.0", 0, 13)]));
        let mut el = IPLookup::new(t, 8);
        let (nls, insp) = ctx_harness();
        let mut f = vec![0u8; 64];
        FrameBuilder::default().build_ipv4(&mut f, 64, 1, 0xc0a80001);
        let mut pkt = Packet::from_bytes(&f);
        let (r, anno_set) = run_one_anno(&mut el, &nls, &insp, &mut pkt);
        assert_eq!(r, PacketResult::Out(0));
        assert_eq!(anno_set.get(anno::IFACE_OUT), 13 % 8);
    }

    #[test]
    fn gpu_kernel_agrees_with_cpu_path() {
        let t = Arc::new(RoutingTableV4::random(11, 500, 16));
        let el = IPLookup::new(t.clone(), 8);
        let spec = el.offload().unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let dsts: Vec<u32> = (0..256).map(|_| rng.gen()).collect();
        let segments: Vec<[u8; 4]> = dsts.iter().map(|d| d.to_be_bytes()).collect();
        let seg_refs: Vec<&[u8]> = segments.iter().map(|s| s.as_slice()).collect();
        let out_lens = vec![8usize; dsts.len()];
        let (staged, out_len) = KernelIo::stage(&seg_refs, &out_lens);
        let mut out = vec![0u8; out_len];
        (spec.kernel)(KernelIo::parse(&staged, &mut out));
        for (i, dst) in dsts.iter().enumerate() {
            let got = u64::from_le_bytes(out[i * 8..i * 8 + 8].try_into().unwrap());
            let expect = t.lookup(*dst).map_or(u64::MAX, |h| u64::from(h % 8));
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn short_packet_dropped() {
        let t = Arc::new(RoutingTableV4::random(1, 10, 4));
        let mut el = IPLookup::new(t, 4);
        let (nls, insp) = ctx_harness();
        let mut pkt = Packet::from_bytes(&[0u8; 20]);
        let (r, _) = run_one_anno(&mut el, &nls, &insp, &mut pkt);
        assert_eq!(r, PacketResult::Drop);
    }
}
