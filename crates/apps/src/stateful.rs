//! Stateful flow applications over the sharded [`FlowTable`]: NAT44,
//! a connection-tracking firewall, and a Maglev-style L4 load balancer.
//!
//! All three follow the same ownership discipline: each worker replica
//! owns one flow shard exclusively (RSS flow affinity guarantees a flow's
//! packets always land on the bucket's home worker), so the hot path takes
//! no locks. State is keyed per RSS bucket with per-bucket logical clocks,
//! which makes lookups, expiries, NAT port allocations, and journal
//! content deterministic across the DES and live runtimes at any worker
//! count.
//!
//! Elements attach to the run's [`FlowRegistry`] lazily on the first
//! packet (from node-local storage), so constructing a replica — including
//! the lint/verify spec-collection throwaway — costs nothing.

use std::sync::Arc;

use nba_core::batch::{anno, Anno, PacketBatch, PacketResult};
use nba_core::element::{Disposition, ElemCtx, Element, ElementEffects, HeaderFact, SlotClaim};
use nba_core::flow::{
    bucket_of, owner_add, owner_sub, EvictReason, Evicted, FlowKey, FlowRegistry, FlowTable,
    FlowTableConfig, Probe, ShardFlowState, FLOW_BUCKETS,
};
use nba_io::checksum::{incremental_update, internet_checksum_parts};
use nba_io::proto::ether::ETHER_HDR_LEN;
use nba_io::proto::ipv4::IPV4_MIN_HDR_LEN;
use nba_io::proto::{ipv4_pseudo_header, IPPROTO_TCP, IPPROTO_UDP, TCP_FIN, TCP_RST, TCP_SYN};
use nba_io::Packet;
use nba_sim::CpuProfile;

// --- Shared parsing / rewrite plumbing ---

/// The 5-tuple plus the offsets needed to rewrite the frame in place.
struct ParsedV4 {
    key: FlowKey,
    /// IPv4 header offset in the frame.
    ip_off: usize,
    /// L4 header offset in the frame.
    l4_off: usize,
    /// L4 segment length (from the IP total length).
    seg_len: usize,
    /// TCP flags byte (0 for UDP).
    tcp_flags: u8,
}

/// Extracts the TCP/UDP 5-tuple from a validated IPv4 frame. Returns
/// `None` for other protocols, truncated L4 headers, or frames whose IP
/// total length overruns the buffer.
fn parse_v4(frame: &[u8]) -> Option<ParsedV4> {
    let ip_off = ETHER_HDR_LEN;
    let ip = frame.get(ip_off..)?;
    if ip.len() < IPV4_MIN_HDR_LEN || ip[0] >> 4 != 4 {
        return None;
    }
    let ihl = usize::from(ip[0] & 0xf) * 4;
    let total = usize::from(u16::from_be_bytes([ip[2], ip[3]]));
    if ihl < IPV4_MIN_HDR_LEN || total < ihl || total > ip.len() {
        return None;
    }
    let proto = ip[9];
    let src_ip = u32::from_be_bytes(ip[12..16].try_into().unwrap());
    let dst_ip = u32::from_be_bytes(ip[16..20].try_into().unwrap());
    let l4 = &ip[ihl..total];
    let (min_l4, flags_at) = match proto {
        IPPROTO_TCP => (20, Some(13)),
        IPPROTO_UDP => (8, None),
        _ => return None,
    };
    if l4.len() < min_l4 {
        return None;
    }
    Some(ParsedV4 {
        key: FlowKey {
            proto,
            src_ip,
            dst_ip,
            src_port: u16::from_be_bytes([l4[0], l4[1]]),
            dst_port: u16::from_be_bytes([l4[2], l4[3]]),
        },
        ip_off,
        l4_off: ip_off + ihl,
        seg_len: total - ihl,
        tcp_flags: flags_at.map_or(0, |i| l4[i]),
    })
}

/// Rewrites the source address/port of a parsed TCP/UDP frame and
/// adjusts the IPv4 header checksum and the L4 checksum for the changed
/// words incrementally (RFC 1624 eqn. 3, as RFC 3022 §4.2 asks of a NAT):
/// given a valid input the result equals a full recomputation, and a
/// checksum that arrived wrong leaves wrong by the same amount. A UDP
/// datagram sent without a checksum (0) gets a full one.
fn rewrite_src(frame: &mut [u8], p: &ParsedV4, new_ip: u32, new_port: u16) {
    let (old_ip, old_port) = (p.key.src_ip, p.key.src_port);
    let ip = &mut frame[p.ip_off..];
    ip[12..16].copy_from_slice(&new_ip.to_be_bytes());
    let ck = u16::from_be_bytes([ip[10], ip[11]]);
    ip[10..12].copy_from_slice(&update_u32(ck, old_ip, new_ip).to_be_bytes());
    let ck_at = p.l4_off + if p.key.proto == IPPROTO_TCP { 16 } else { 6 };
    frame[p.l4_off..p.l4_off + 2].copy_from_slice(&new_port.to_be_bytes());
    let old_ck = u16::from_be_bytes([frame[ck_at], frame[ck_at + 1]]);
    let mut ck = if p.key.proto == IPPROTO_UDP && old_ck == 0 {
        let pseudo = ipv4_pseudo_header(
            &frame[p.ip_off..p.ip_off + IPV4_MIN_HDR_LEN],
            p.seg_len as u16,
            p.key.proto,
        );
        internet_checksum_parts(&[&pseudo, &frame[p.l4_off..p.l4_off + p.seg_len]])
    } else {
        // The source address is in the pseudo-header.
        incremental_update(update_u32(old_ck, old_ip, new_ip), old_port, new_port)
    };
    // UDP transmits an all-zero checksum as "not computed"; RFC 768 maps
    // a computed zero onto 0xffff.
    if p.key.proto == IPPROTO_UDP && ck == 0 {
        ck = 0xffff;
    }
    frame[ck_at..ck_at + 2].copy_from_slice(&ck.to_be_bytes());
}

/// [`incremental_update`] for a 32-bit field (two 16-bit words).
fn update_u32(ck: u16, old: u32, new: u32) -> u16 {
    let hi = incremental_update(ck, (old >> 16) as u16, (new >> 16) as u16);
    incremental_update(hi, old as u16, new as u16)
}

/// The per-element attachment to the run's flow plane: the owned shard
/// table plus the shared counters, created on the first processed packet.
struct FlowAttach {
    table: FlowTable,
    shard: Arc<ShardFlowState>,
    /// Run worker count (0 = unknown): foreign-bucket detection.
    workers: usize,
}

impl FlowAttach {
    fn new(ctx: &ElemCtx<'_>, cfg: FlowTableConfig) -> FlowAttach {
        let registry = FlowRegistry::from_nls(ctx.nls);
        FlowAttach {
            table: FlowTable::new(ctx.worker, cfg, &registry),
            shard: registry.shard(ctx.worker),
            workers: registry.workers(),
        }
    }

    /// Is `bucket` homed on another worker? True only after a re-steer
    /// (RSS otherwise never delivers foreign buckets here).
    fn foreign(&self, bucket: u16, worker: usize) -> bool {
        self.workers > 0 && usize::from(bucket) % self.workers != worker
    }
}

/// One packet as the read-only pass leaves it: the parsed frame and, if
/// the element tracks it, its probe into the flow table.
struct Staged {
    p: ParsedV4,
    probe: Option<Probe>,
}

/// What a stateful element keeps besides its own state: the flow-table
/// sizing, the attachment (made on the first packet), the batch's staged
/// packets and the evictions a table operation hands back.
struct FlowPlane {
    cfg: FlowTableConfig,
    attach: Option<FlowAttach>,
    staged: Vec<Option<Staged>>,
    evicted: Vec<Evicted>,
}

impl FlowPlane {
    fn new(cfg: FlowTableConfig) -> FlowPlane {
        FlowPlane {
            cfg,
            attach: None,
            staged: Vec::new(),
            evicted: Vec::new(),
        }
    }

    fn attach(&mut self, ctx: &ElemCtx<'_>) -> &mut FlowAttach {
        let cfg = self.cfg;
        self.attach.get_or_insert_with(|| FlowAttach::new(ctx, cfg))
    }

    /// The attachment [`flow_step`] made before any `step` ran.
    fn attached(&mut self) -> (&mut FlowAttach, &mut Vec<Evicted>) {
        let at = self
            .attach
            .as_mut()
            .expect("attached before the first step");
        (at, &mut self.evicted)
    }
}

/// A stateful element as the shared bodies see it: which key it tracks a
/// packet under, and the per-packet step that runs its table operations.
trait FlowElement {
    /// The key `p` is tracked under, or `None` if the element lets `p`
    /// through without touching the table.
    fn key_of(p: &ParsedV4) -> Option<FlowKey>;

    fn plane(&mut self) -> &mut FlowPlane;

    /// Everything the element does to one packet, given its staged form
    /// (`None`: the frame did not parse). Runs in packet order.
    fn step(
        &mut self,
        worker: usize,
        pkt: &mut Packet,
        anno: &mut Anno,
        staged: Option<Staged>,
    ) -> PacketResult;
}

/// Parses one packet and hashes its key, once: the first half of the
/// read-only pass (the probes are the second).
fn stage<E: FlowElement>(pkt: &Packet, anno: &Anno) -> Option<Staged> {
    let p = parse_v4(pkt.data())?;
    let probe = E::key_of(&p).map(|key| Probe::new(bucket_of(anno.get(anno::FLOW_ID)), key));
    Some(Staged { p, probe })
}

/// `process` of a stateful element: attach, stage and probe the packet,
/// then step it.
fn flow_step<E: FlowElement>(
    el: &mut E,
    ctx: &ElemCtx<'_>,
    pkt: &mut Packet,
    anno: &mut Anno,
) -> PacketResult {
    let table = &el.plane().attach(ctx).table;
    let mut staged = stage::<E>(pkt, anno);
    if let Some(Staged { probe: Some(p), .. }) = &mut staged {
        table.probe(p);
    }
    el.step(ctx.worker, pkt, anno, staged)
}

/// `process_batch` of a stateful element, in two passes. The first stages
/// every live packet, then probes every staged key in a loop of its own,
/// so the cache misses of the batch's flow slots overlap; it only reads
/// the table, so it cannot change what the table does. The second steps
/// the packets in slot order, exactly as [`flow_step`] would one by one
/// (a probe an earlier step made stale probes again).
fn flow_batch<E: FlowElement>(el: &mut E, ctx: &ElemCtx<'_>, batch: &mut PacketBatch) {
    if batch.is_empty() {
        return;
    }
    let mut staged = std::mem::take(&mut el.plane().staged);
    staged.extend(batch.live_mut().map(|(pkt, anno, _)| stage::<E>(pkt, anno)));
    let table = &el.plane().attach(ctx).table;
    for p in staged
        .iter_mut()
        .flatten()
        .filter_map(|st| st.probe.as_mut())
    {
        table.probe(p);
    }
    for ((pkt, anno, result), st) in batch.live_mut().zip(staged.drain(..)) {
        *result = el.step(ctx.worker, pkt, anno, st);
    }
    el.plane().staged = staged;
}

// --- NAT44 ---

/// The most ports one external address offers: 1024..=65535.
pub const NAT_MAX_PORTS_PER_IP: u32 = 64512;

/// Knobs of the [`Nat44`] element.
#[derive(Debug, Clone)]
pub struct NatConfig {
    /// First external IPv4 address of the pool.
    pub ext_ip_base: u32,
    /// Consecutive external addresses in the pool.
    pub ext_ips: u32,
    /// Ports usable per external address (allocated from 1024 upward, so
    /// at most [`NAT_MAX_PORTS_PER_IP`]; [`Nat44::new`] clamps larger
    /// values). The pool holds `ext_ips * ports_per_ip` mappings.
    pub ports_per_ip: u32,
    /// Flow-table sizing and expiry.
    pub table: FlowTableConfig,
}

impl Default for NatConfig {
    fn default() -> Self {
        NatConfig {
            // 198.18.0.0/15 is reserved for benchmarking (RFC 2544).
            ext_ip_base: u32::from_be_bytes([198, 18, 0, 1]),
            ext_ips: 1,
            ports_per_ip: NAT_MAX_PORTS_PER_IP,
            table: FlowTableConfig::default(),
        }
    }
}

/// One bucket's slice of the global port-index space. Allocation pops the
/// free stack (ports released by expired bindings) before bumping the
/// high-water mark — both orders are per-bucket deterministic, so DES and
/// live allocate identical mappings.
#[derive(Debug, Default)]
struct PortSlice {
    /// Next never-used offset within the slice.
    next: u32,
    /// Offsets released by evicted bindings.
    free: Vec<u32>,
}

/// The port-index space, split into one slice per bucket.
struct PortPool {
    slices: Vec<PortSlice>,
    /// Ports per bucket slice (floor; remainder ports go unused).
    slice_len: u32,
}

impl PortPool {
    fn alloc(&mut self, bucket: u16) -> Option<u64> {
        if self.slice_len == 0 {
            return None;
        }
        let slice = &mut self.slices[usize::from(bucket)];
        let off = match slice.free.pop() {
            Some(off) => off,
            None if slice.next < self.slice_len => {
                slice.next += 1;
                slice.next - 1
            }
            None => return None,
        };
        Some(u64::from(bucket) * u64::from(self.slice_len) + u64::from(off))
    }

    /// Hands the ports of `bindings` (evicted from `bucket`) back.
    fn release(&mut self, bucket: u16, bindings: impl Iterator<Item = u64>) {
        let base = u64::from(bucket) * u64::from(self.slice_len);
        for idx in bindings {
            let off = idx.wrapping_sub(base);
            if off < u64::from(self.slice_len) {
                self.slices[usize::from(bucket)].free.push(off as u32);
            }
        }
    }
}

/// Endpoint-independent NAT44: source address/port translation with a
/// per-bucket port pool. The binding is keyed on `(proto, src)` alone
/// (full-cone behaviour), so every destination a host talks to reuses one
/// external mapping. Packets that cannot be mapped (pool or table
/// exhausted, non-TCP/UDP) drop.
pub struct Nat44 {
    cfg: NatConfig,
    plane: FlowPlane,
    ports: PortPool,
}

impl Nat44 {
    /// Creates the element; state attaches on the first packet.
    /// `ports_per_ip` is clamped to [`NAT_MAX_PORTS_PER_IP`], so no two
    /// port indices ever share an (address, port) mapping.
    pub fn new(cfg: NatConfig) -> Nat44 {
        let cfg = NatConfig {
            ports_per_ip: cfg.ports_per_ip.min(NAT_MAX_PORTS_PER_IP),
            ..cfg
        };
        let space = u64::from(cfg.ext_ips) * u64::from(cfg.ports_per_ip);
        let slice_len = (space / FLOW_BUCKETS as u64).min(u64::from(u32::MAX)) as u32;
        Nat44 {
            plane: FlowPlane::new(cfg.table),
            ports: PortPool {
                slices: (0..FLOW_BUCKETS).map(|_| PortSlice::default()).collect(),
                slice_len,
            },
            cfg,
        }
    }

    /// Decodes a global port index into `(external ip, external port)`.
    fn mapping_of(&self, idx: u64) -> (u32, u16) {
        let per_ip = u64::from(self.cfg.ports_per_ip);
        let ip = self.cfg.ext_ip_base.wrapping_add((idx / per_ip) as u32);
        (ip, (1024 + idx % per_ip) as u16)
    }

    /// A new binding for a table miss: a port from the bucket's slice,
    /// entered in the table. `None` when the slice or the table is full.
    fn bind(&mut self, worker: usize, probe: &Probe) -> Option<u64> {
        let bucket = probe.bucket();
        let (at, evicted) = self.plane.attached();
        let Some(idx) = self.ports.alloc(bucket) else {
            owner_add(&at.shard.stats.table_full_drops, 1);
            return None;
        };
        let foreign = at.foreign(bucket, worker);
        match at.table.insert_probed(probe, idx, false, foreign, evicted) {
            Ok(()) => {
                owner_add(&at.shard.stats.nat_ports_in_use, 1);
                Some(idx)
            }
            Err(_) => {
                // Table full: hand the port straight back.
                self.ports.release(bucket, std::iter::once(idx));
                None
            }
        }
    }
}

impl FlowElement for Nat44 {
    fn key_of(p: &ParsedV4) -> Option<FlowKey> {
        // The binding ignores the destination: endpoint-independent.
        Some(FlowKey {
            dst_ip: 0,
            dst_port: 0,
            ..p.key
        })
    }

    fn plane(&mut self) -> &mut FlowPlane {
        &mut self.plane
    }

    fn step(
        &mut self,
        worker: usize,
        pkt: &mut Packet,
        _anno: &mut Anno,
        staged: Option<Staged>,
    ) -> PacketResult {
        let Some(Staged {
            p,
            probe: Some(probe),
        }) = staged
        else {
            return PacketResult::Drop;
        };
        let bucket = probe.bucket();
        let (at, evicted) = self.plane.attached();
        at.table.tick(bucket, evicted);
        let idx = match at.table.lookup_probed(&probe, evicted) {
            Some(idx) => Some(idx),
            None => self.bind(worker, &probe),
        };
        // Expired bindings release their ports before we answer.
        let (at, evicted) = self.plane.attached();
        if !evicted.is_empty() {
            owner_sub(&at.shard.stats.nat_ports_in_use, evicted.len() as u64);
            self.ports
                .release(bucket, evicted.drain(..).map(|ev| ev.value));
        }
        match idx {
            Some(idx) => {
                let (ip, port) = self.mapping_of(idx);
                rewrite_src(pkt.data_mut(), &p, ip, port);
                PacketResult::Out(0)
            }
            None => PacketResult::Drop,
        }
    }
}

impl Element for Nat44 {
    fn class_name(&self) -> &'static str {
        "Nat44"
    }

    fn slot_claims(&self) -> &'static [SlotClaim] {
        const CLAIMS: &[SlotClaim] = &[SlotClaim::reads(anno::FLOW_ID)];
        CLAIMS
    }

    fn process(
        &mut self,
        ctx: &mut ElemCtx<'_>,
        pkt: &mut Packet,
        anno: &mut Anno,
    ) -> PacketResult {
        flow_step(self, ctx, pkt, anno)
    }

    fn process_batch(&mut self, ctx: &mut ElemCtx<'_>, batch: &mut PacketBatch) {
        flow_batch(self, ctx, batch);
    }

    fn cpu_profile(&self) -> CpuProfile {
        // Hash probe + header rewrite + two checksums.
        CpuProfile::fixed(96)
    }

    fn effects(&self) -> ElementEffects {
        const REQ: &[HeaderFact] = &[HeaderFact::Ipv4Valid];
        const OK: &[SlotClaim] = &[SlotClaim::reads(anno::FLOW_ID)];
        ElementEffects {
            requires: REQ,
            default_ok: OK,
            disposition: Disposition::MayDrop,
            ..ElementEffects::default()
        }
    }
}

impl std::fmt::Debug for Nat44 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nat44")
            .field("ext_ips", &self.cfg.ext_ips)
            .field("ports_per_ip", &self.cfg.ports_per_ip)
            .field("slice_len", &self.ports.slice_len)
            .finish()
    }
}

// --- Connection-tracking firewall ---

/// TCP connection states tracked per flow (stored in the table value).
const CT_SYN_SENT: u64 = 0;
const CT_ESTABLISHED: u64 = 1;

/// Knobs of the [`ConnTrackFirewall`] element.
#[derive(Debug, Clone, Default)]
pub struct FirewallConfig {
    /// Flow-table sizing and expiry. Set `embryonic_ttl_epochs` short to
    /// shed half-open (SYN flood) state quickly.
    pub table: FlowTableConfig,
}

/// A stateful TCP firewall: SYN opens an embryonic entry, the first
/// non-SYN segment of a tracked flow promotes it to ESTABLISHED, FIN/RST
/// closes it. Out-of-state segments (no tracked flow) leave on port 1 —
/// wire it to `Discard` — and are counted in `out_of_state_drops`.
/// Non-TCP traffic passes untracked. A full table drops the opening SYN
/// rather than displacing live (possibly established) entries.
pub struct ConnTrackFirewall {
    plane: FlowPlane,
}

impl ConnTrackFirewall {
    /// Creates the element; state attaches on the first packet.
    pub fn new(cfg: FirewallConfig) -> ConnTrackFirewall {
        ConnTrackFirewall {
            plane: FlowPlane::new(cfg.table),
        }
    }
}

impl FlowElement for ConnTrackFirewall {
    fn key_of(p: &ParsedV4) -> Option<FlowKey> {
        (p.key.proto == IPPROTO_TCP).then_some(p.key)
    }

    fn plane(&mut self) -> &mut FlowPlane {
        &mut self.plane
    }

    fn step(
        &mut self,
        worker: usize,
        _pkt: &mut Packet,
        _anno: &mut Anno,
        staged: Option<Staged>,
    ) -> PacketResult {
        let Some(Staged { p, probe }) = staged else {
            return PacketResult::Drop;
        };
        let Some(probe) = probe else {
            // Non-TCP passes untracked.
            return PacketResult::Out(0);
        };
        let bucket = probe.bucket();
        let (at, evicted) = self.plane.attached();
        at.table.tick(bucket, evicted);
        evicted.clear();
        let flags = p.tcp_flags;
        let tracked = at.table.lookup_probed(&probe, evicted);
        evicted.clear();
        let out = if flags & TCP_RST != 0 || flags & TCP_FIN != 0 {
            match tracked {
                Some(_) => {
                    at.table.remove_probed(&probe, EvictReason::Closed, evicted);
                    evicted.clear();
                    PacketResult::Out(0)
                }
                None => PacketResult::Out(1),
            }
        } else if flags & TCP_SYN != 0 {
            match tracked {
                // SYN retransmit of a tracked flow: fine.
                Some(_) => PacketResult::Out(0),
                None => {
                    let foreign = at.foreign(bucket, worker);
                    match at
                        .table
                        .insert_probed(&probe, CT_SYN_SENT, true, foreign, evicted)
                    {
                        Ok(()) => {
                            evicted.clear();
                            PacketResult::Out(0)
                        }
                        // Never displace live flows for a new SYN.
                        Err(_) => PacketResult::Drop,
                    }
                }
            }
        } else {
            match tracked {
                Some(CT_SYN_SENT) => {
                    at.table.promote(&probe, CT_ESTABLISHED, false);
                    PacketResult::Out(0)
                }
                Some(_) => PacketResult::Out(0),
                None => PacketResult::Out(1),
            }
        };
        if out == PacketResult::Out(1) {
            owner_add(&at.shard.stats.out_of_state_drops, 1);
        }
        out
    }
}

impl Element for ConnTrackFirewall {
    fn class_name(&self) -> &'static str {
        "ConnTrackFirewall"
    }

    fn output_count(&self) -> usize {
        2
    }

    fn slot_claims(&self) -> &'static [SlotClaim] {
        const CLAIMS: &[SlotClaim] = &[SlotClaim::reads(anno::FLOW_ID)];
        CLAIMS
    }

    fn process(
        &mut self,
        ctx: &mut ElemCtx<'_>,
        pkt: &mut Packet,
        anno: &mut Anno,
    ) -> PacketResult {
        flow_step(self, ctx, pkt, anno)
    }

    fn process_batch(&mut self, ctx: &mut ElemCtx<'_>, batch: &mut PacketBatch) {
        flow_batch(self, ctx, batch);
    }

    fn cpu_profile(&self) -> CpuProfile {
        // Hash probe + a small state machine.
        CpuProfile::fixed(64)
    }

    fn effects(&self) -> ElementEffects {
        const REQ: &[HeaderFact] = &[HeaderFact::Ipv4Valid];
        const OK: &[SlotClaim] = &[SlotClaim::reads(anno::FLOW_ID)];
        ElementEffects {
            requires: REQ,
            default_ok: OK,
            disposition: Disposition::MayDrop,
            ..ElementEffects::default()
        }
    }
}

impl std::fmt::Debug for ConnTrackFirewall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnTrackFirewall").finish()
    }
}

// --- Maglev L4 load balancer ---

/// Knobs of the [`MaglevLb`] element.
#[derive(Debug, Clone)]
pub struct MaglevConfig {
    /// Live backends at start of run (ids `0..backends`).
    pub backends: u32,
    /// Consistent-hash lookup table size (rounded up to at least the
    /// backend count; prime sizes spread best).
    pub table_size: u32,
    /// Output NIC ports backends map onto (`backend % ports`).
    pub ports: u16,
    /// Seed of the per-slot backend preferences.
    pub seed: u64,
    /// Per-bucket epoch at which the backend set flips (0 = never).
    pub flip_epoch: u64,
    /// Backend removed at the flip.
    pub flip_remove: u32,
    /// Flow-table sizing and expiry (connection pinning).
    pub table: FlowTableConfig,
}

impl Default for MaglevConfig {
    fn default() -> Self {
        MaglevConfig {
            backends: 8,
            table_size: 251,
            ports: 8,
            seed: 42,
            flip_epoch: 0,
            flip_remove: 7,
            table: FlowTableConfig::default(),
        }
    }
}

/// A consistent-hash backend table. Each slot independently picks the
/// backend with the highest rendezvous hash, so removing one backend
/// remaps only the slots that backend owned — the minimal-disruption
/// property the L4 balancer tests pin down.
#[derive(Debug, Clone)]
pub struct BackendTable {
    slots: Vec<u32>,
}

impl BackendTable {
    /// Builds the table for the given live backend set.
    pub fn build(seed: u64, table_size: u32, backends: &[u32]) -> BackendTable {
        let size = table_size.max(1).max(backends.len() as u32);
        let slots = (0..size)
            .map(|slot| {
                backends
                    .iter()
                    .copied()
                    .max_by_key(|b| mix(seed, u64::from(*b), u64::from(slot)))
                    .unwrap_or(0)
            })
            .collect();
        BackendTable { slots }
    }

    /// The backend owning `hash`.
    pub fn pick(&self, hash: u64) -> u32 {
        self.slots[(hash % self.slots.len() as u64) as usize]
    }

    /// The slot assignments (test inspection).
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }
}

/// A 64-bit mixer (splitmix-style) for rendezvous hashing.
fn mix(seed: u64, backend: u64, slot: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(backend.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(slot.wrapping_mul(0x94d0_49bb_1331_11eb));
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z
}

/// Maglev-style L4 load balancing with connection pinning: the first
/// packet of a flow consults the consistent-hash table and pins the
/// backend in the flow shard; later packets stick to it even across a
/// backend flip (minimal disruption for live connections). The chosen
/// backend lands in [`anno::IFACE_OUT`] modulo `ports`.
pub struct MaglevLb {
    cfg: MaglevConfig,
    before: BackendTable,
    after: BackendTable,
    plane: FlowPlane,
}

impl MaglevLb {
    /// Creates the element; the before/after tables are precomputed so a
    /// mid-run flip costs nothing.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(cfg: MaglevConfig) -> MaglevLb {
        assert!(cfg.ports > 0, "MaglevLb needs at least one output port");
        let live: Vec<u32> = (0..cfg.backends.max(1)).collect();
        let before = BackendTable::build(cfg.seed, cfg.table_size, &live);
        let survivors: Vec<u32> = live
            .iter()
            .copied()
            .filter(|b| *b != cfg.flip_remove)
            .collect();
        let after = if survivors.is_empty() {
            before.clone()
        } else {
            BackendTable::build(cfg.seed, cfg.table_size, &survivors)
        };
        MaglevLb {
            plane: FlowPlane::new(cfg.table),
            cfg,
            before,
            after,
        }
    }

    /// The backend table in force at `epoch`.
    fn table_at(&self, epoch: u64) -> &BackendTable {
        if self.cfg.flip_epoch > 0 && epoch >= self.cfg.flip_epoch {
            &self.after
        } else {
            &self.before
        }
    }
}

impl FlowElement for MaglevLb {
    fn key_of(p: &ParsedV4) -> Option<FlowKey> {
        Some(p.key)
    }

    fn plane(&mut self) -> &mut FlowPlane {
        &mut self.plane
    }

    fn step(
        &mut self,
        worker: usize,
        _pkt: &mut Packet,
        anno: &mut Anno,
        staged: Option<Staged>,
    ) -> PacketResult {
        let Some(Staged {
            probe: Some(probe), ..
        }) = staged
        else {
            return PacketResult::Drop;
        };
        let bucket = probe.bucket();
        let (at, evicted) = self.plane.attached();
        at.table.tick(bucket, evicted);
        evicted.clear();
        let backend = match at.table.lookup_probed(&probe, evicted) {
            Some(b) => b,
            None => {
                let epoch = at.table.epoch(bucket);
                let b = u64::from(self.table_at(epoch).pick(probe.digest()));
                let (at, evicted) = self.plane.attached();
                let foreign = at.foreign(bucket, worker);
                // A full table degrades to unpinned consistent hashing —
                // the balancer never drops for lack of state.
                let _ = at.table.insert_probed(&probe, b, false, foreign, evicted);
                b
            }
        };
        self.plane.evicted.clear();
        anno.set(anno::IFACE_OUT, backend % u64::from(self.cfg.ports));
        PacketResult::Out(0)
    }
}

impl Element for MaglevLb {
    fn class_name(&self) -> &'static str {
        "MaglevLb"
    }

    fn slot_claims(&self) -> &'static [SlotClaim] {
        const CLAIMS: &[SlotClaim] = &[
            SlotClaim::reads(anno::FLOW_ID),
            SlotClaim::writes(anno::IFACE_OUT),
        ];
        CLAIMS
    }

    fn process(
        &mut self,
        ctx: &mut ElemCtx<'_>,
        pkt: &mut Packet,
        anno: &mut Anno,
    ) -> PacketResult {
        flow_step(self, ctx, pkt, anno)
    }

    fn process_batch(&mut self, ctx: &mut ElemCtx<'_>, batch: &mut PacketBatch) {
        flow_batch(self, ctx, batch);
    }

    fn cpu_profile(&self) -> CpuProfile {
        // Hash probe or one table read.
        CpuProfile::fixed(48)
    }

    fn effects(&self) -> ElementEffects {
        const REQ: &[HeaderFact] = &[HeaderFact::Ipv4Valid];
        const OK: &[SlotClaim] = &[SlotClaim::reads(anno::FLOW_ID)];
        ElementEffects {
            requires: REQ,
            default_ok: OK,
            disposition: Disposition::MayDrop,
            ..ElementEffects::default()
        }
    }
}

impl std::fmt::Debug for MaglevLb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaglevLb")
            .field("backends", &self.cfg.backends)
            .field("table_size", &self.before.slots.len())
            .field("flip_epoch", &self.cfg.flip_epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nba_core::element::ComputeMode;
    use nba_core::nls::NodeLocalStorage;
    use nba_core::stats::{Counters, SystemInspector};
    use nba_io::proto::FrameBuilder;
    use nba_io::proto::TCP_ACK;
    use nba_sim::Time;

    fn run_flow(
        el: &mut dyn Element,
        nls: &NodeLocalStorage,
        insp: &SystemInspector,
        pkt: &mut Packet,
        flow_id: u64,
    ) -> (PacketResult, Anno) {
        let mut ctx = ElemCtx {
            now: Time::ZERO,
            compute: ComputeMode::Full,
            nls,
            worker: 0,
            inspector: insp,
        };
        let mut anno = Anno::default();
        anno.set(anno::FLOW_ID, flow_id);
        let r = el.process(&mut ctx, pkt, &mut anno);
        (r, anno)
    }

    fn harness() -> (NodeLocalStorage, SystemInspector) {
        let nls = NodeLocalStorage::new();
        FlowRegistry::new().publish(&nls);
        (
            nls,
            SystemInspector::new(vec![Arc::new(Counters::default())]),
        )
    }

    fn tcp_frame(src: u32, sport: u16, dst: u32, dport: u16, flags: u8) -> Vec<u8> {
        let mut f = vec![0u8; 64];
        let b = FrameBuilder {
            src_port: sport,
            dst_port: dport,
            ..Default::default()
        };
        b.build_ipv4_tcp(&mut f, 64, src, dst, flags, 0);
        f
    }

    fn udp_frame(src: u32, sport: u16, dst: u32, dport: u16) -> Vec<u8> {
        let mut f = vec![0u8; 64];
        let b = FrameBuilder {
            src_port: sport,
            dst_port: dport,
            ..Default::default()
        };
        b.build_ipv4(&mut f, 64, src, dst);
        f
    }

    fn frame_checksums_ok(frame: &[u8]) -> bool {
        let p = parse_v4(frame).expect("parseable");
        let ip = &frame[p.ip_off..];
        if nba_io::checksum::internet_checksum(&ip[..p.l4_off - p.ip_off]) != 0 {
            return false;
        }
        let pseudo = ipv4_pseudo_header(&ip[..IPV4_MIN_HDR_LEN], p.seg_len as u16, p.key.proto);
        internet_checksum_parts(&[&pseudo, &frame[p.l4_off..p.l4_off + p.seg_len]]) == 0
    }

    #[test]
    fn nat_translates_and_reuses_binding_across_destinations() {
        let (nls, insp) = harness();
        let mut nat = Nat44::new(NatConfig::default());
        let mut a = Packet::from_bytes(&udp_frame(0x0a000001, 5000, 0x08080808, 53));
        let (r, _) = run_flow(&mut nat, &nls, &insp, &mut a, 3);
        assert_eq!(r, PacketResult::Out(0));
        let pa = parse_v4(a.data()).unwrap();
        assert_eq!(pa.key.src_ip, u32::from_be_bytes([198, 18, 0, 1]));
        assert!(frame_checksums_ok(a.data()));
        // Same source, different destination: endpoint-independent
        // mapping reuses the same external ip/port.
        let mut b = Packet::from_bytes(&udp_frame(0x0a000001, 5000, 0x01010101, 123));
        let (r, _) = run_flow(&mut nat, &nls, &insp, &mut b, 3);
        assert_eq!(r, PacketResult::Out(0));
        let pb = parse_v4(b.data()).unwrap();
        assert_eq!(
            (pa.key.src_ip, pa.key.src_port),
            (pb.key.src_ip, pb.key.src_port)
        );
        // A different source gets a different mapping.
        let mut c = Packet::from_bytes(&udp_frame(0x0a000002, 5000, 0x08080808, 53));
        run_flow(&mut nat, &nls, &insp, &mut c, 3);
        let pc = parse_v4(c.data()).unwrap();
        assert_ne!(
            (pa.key.src_ip, pa.key.src_port),
            (pc.key.src_ip, pc.key.src_port)
        );
    }

    #[test]
    fn nat_pool_exhaustion_drops_then_recovers_after_expiry() {
        let (nls, insp) = harness();
        // 128 ports over 128 buckets = one port per bucket slice; epoch
        // every 2 packets, 1-epoch TTL → idle bindings expire fast.
        let mut nat = Nat44::new(NatConfig {
            ext_ips: 1,
            ports_per_ip: 128,
            table: FlowTableConfig {
                capacity: 1 << 10,
                ttl_epochs: 1,
                embryonic_ttl_epochs: 0,
                epoch_pkts: 2,
            },
            ..NatConfig::default()
        });
        let mut a = Packet::from_bytes(&udp_frame(0x0a000001, 1, 0x08080808, 53));
        assert_eq!(
            run_flow(&mut nat, &nls, &insp, &mut a, 0).0,
            PacketResult::Out(0)
        );
        // Second distinct source in the same bucket: slice exhausted.
        let mut b = Packet::from_bytes(&udp_frame(0x0a000002, 2, 0x08080808, 53));
        assert_eq!(
            run_flow(&mut nat, &nls, &insp, &mut b, 0).0,
            PacketResult::Drop
        );
        // Tick the bucket clock past the TTL with packets from source 2:
        // source 1's binding expires and its port is released.
        for _ in 0..6 {
            let mut p = Packet::from_bytes(&udp_frame(0x0a000002, 2, 0x08080808, 53));
            run_flow(&mut nat, &nls, &insp, &mut p, 0);
        }
        let mut c = Packet::from_bytes(&udp_frame(0x0a000002, 2, 0x08080808, 53));
        assert_eq!(
            run_flow(&mut nat, &nls, &insp, &mut c, 0).0,
            PacketResult::Out(0)
        );
    }

    #[test]
    fn nat_zero_sized_pools_never_panic() {
        for (ips, ppp) in [(0, 64512), (1, 0), (0, 0), (1, 1)] {
            let (nls, insp) = harness();
            let mut nat = Nat44::new(NatConfig {
                ext_ips: ips,
                ports_per_ip: ppp,
                ..NatConfig::default()
            });
            let mut p = Packet::from_bytes(&udp_frame(1, 1, 2, 2));
            // 1 port over 128 buckets floors to empty slices: every
            // allocation fails, nothing panics.
            assert_eq!(
                run_flow(&mut nat, &nls, &insp, &mut p, 0).0,
                PacketResult::Drop
            );
        }
    }

    #[test]
    fn nat_port_indices_never_share_a_mapping() {
        for ports_per_ip in [1, 127, 64511, 64512, 64513, 70_000, u32::MAX] {
            let nat = Nat44::new(NatConfig {
                ext_ips: 2,
                ports_per_ip,
                ..NatConfig::default()
            });
            let indices = u64::from(nat.ports.slice_len) * FLOW_BUCKETS as u64;
            let mut seen = std::collections::HashSet::new();
            for idx in 0..indices {
                let (ip, port) = nat.mapping_of(idx);
                assert!(port >= 1024, "index {idx} maps below port 1024");
                assert!(
                    seen.insert((ip, port)),
                    "ports_per_ip {ports_per_ip}: index {idx} reuses {ip:#x}:{port}"
                );
            }
        }
    }

    #[test]
    fn firewall_tracks_the_tcp_lifecycle() {
        let (nls, insp) = harness();
        let mut fw = ConnTrackFirewall::new(FirewallConfig::default());
        let syn = tcp_frame(1, 1000, 2, 80, TCP_SYN);
        let data = tcp_frame(1, 1000, 2, 80, TCP_ACK | 0x08);
        let fin = tcp_frame(1, 1000, 2, 80, TCP_FIN | TCP_ACK);
        let mut p = Packet::from_bytes(&syn);
        assert_eq!(
            run_flow(&mut fw, &nls, &insp, &mut p, 9).0,
            PacketResult::Out(0)
        );
        let mut p = Packet::from_bytes(&data);
        assert_eq!(
            run_flow(&mut fw, &nls, &insp, &mut p, 9).0,
            PacketResult::Out(0)
        );
        let mut p = Packet::from_bytes(&fin);
        assert_eq!(
            run_flow(&mut fw, &nls, &insp, &mut p, 9).0,
            PacketResult::Out(0)
        );
        // After FIN the flow is gone: more data is out of state.
        let mut p = Packet::from_bytes(&data);
        assert_eq!(
            run_flow(&mut fw, &nls, &insp, &mut p, 9).0,
            PacketResult::Out(1)
        );
    }

    #[test]
    fn firewall_rejects_unsolicited_segments() {
        let (nls, insp) = harness();
        let reg = FlowRegistry::from_nls(&nls);
        let mut fw = ConnTrackFirewall::new(FirewallConfig::default());
        let mut p = Packet::from_bytes(&tcp_frame(1, 1000, 2, 80, TCP_ACK));
        assert_eq!(
            run_flow(&mut fw, &nls, &insp, &mut p, 9).0,
            PacketResult::Out(1)
        );
        let mut p = Packet::from_bytes(&tcp_frame(1, 1000, 2, 80, TCP_RST));
        assert_eq!(
            run_flow(&mut fw, &nls, &insp, &mut p, 9).0,
            PacketResult::Out(1)
        );
        let report = reg.report().expect("attached");
        assert_eq!(report.totals().out_of_state_drops, 2);
        // Non-TCP passes untracked.
        let mut p = Packet::from_bytes(&udp_frame(1, 1000, 2, 53));
        assert_eq!(
            run_flow(&mut fw, &nls, &insp, &mut p, 9).0,
            PacketResult::Out(0)
        );
    }

    #[test]
    fn maglev_pins_flows_and_balances_new_ones() {
        let (nls, insp) = harness();
        let mut lb = MaglevLb::new(MaglevConfig {
            backends: 4,
            ports: 8,
            ..MaglevConfig::default()
        });
        let mut seen = std::collections::HashSet::new();
        for src in 0..64u32 {
            let frame = tcp_frame(src + 1, 1000, 2, 80, TCP_ACK);
            let mut p = Packet::from_bytes(&frame);
            let (r, anno1) = run_flow(&mut lb, &nls, &insp, &mut p, u64::from(src));
            assert_eq!(r, PacketResult::Out(0));
            // The pinned repeat lands on the same backend.
            let mut p = Packet::from_bytes(&frame);
            let (_, anno2) = run_flow(&mut lb, &nls, &insp, &mut p, u64::from(src));
            assert_eq!(anno1.get(anno::IFACE_OUT), anno2.get(anno::IFACE_OUT));
            seen.insert(anno1.get(anno::IFACE_OUT));
        }
        assert!(seen.len() >= 3, "only {} backends used", seen.len());
    }

    #[test]
    fn backend_removal_remaps_only_the_removed_backends_slots() {
        let all: Vec<u32> = (0..8).collect();
        let survivors: Vec<u32> = (0..8).filter(|b| *b != 3).collect();
        let before = BackendTable::build(42, 251, &all);
        let after = BackendTable::build(42, 251, &survivors);
        for (b, a) in before.slots().iter().zip(after.slots()) {
            if *b != 3 {
                assert_eq!(b, a, "slot moved although its backend survived");
            } else {
                assert_ne!(*a, 3);
            }
        }
        let moved = before.slots().iter().filter(|b| **b == 3).count();
        assert!(moved > 0, "backend 3 owned no slots");
    }

    #[test]
    fn maglev_flip_keeps_pinned_flows_and_remaps_new_ones() {
        let (nls, insp) = harness();
        // Epoch every 2 packets; flip at epoch 2.
        let mut lb = MaglevLb::new(MaglevConfig {
            backends: 4,
            ports: 8,
            flip_epoch: 2,
            flip_remove: 2,
            table: FlowTableConfig {
                capacity: 1 << 10,
                ttl_epochs: u64::MAX,
                embryonic_ttl_epochs: 0,
                epoch_pkts: 2,
            },
            ..MaglevConfig::default()
        });
        // Find a flow the pre-flip table maps to the doomed backend.
        let pinned_src = (1..2000u32)
            .find(|s| {
                let key = FlowKey {
                    proto: IPPROTO_TCP,
                    src_ip: *s,
                    dst_ip: 2,
                    src_port: 1000,
                    dst_port: 80,
                };
                lb.before.pick(key.digest()) == 2
            })
            .expect("some flow maps to backend 2");
        let frame = tcp_frame(pinned_src, 1000, 2, 80, TCP_ACK);
        let mut p = Packet::from_bytes(&frame);
        let (_, a0) = run_flow(&mut lb, &nls, &insp, &mut p, 5);
        assert_eq!(a0.get(anno::IFACE_OUT), 2);
        // Tick the bucket past the flip epoch.
        for _ in 0..6 {
            let mut p = Packet::from_bytes(&frame);
            let (_, a) = run_flow(&mut lb, &nls, &insp, &mut p, 5);
            // Pinned: still the old backend, even after the flip.
            assert_eq!(a.get(anno::IFACE_OUT), a0.get(anno::IFACE_OUT));
        }
        // A NEW flow that the old table mapped to backend 2 now avoids it.
        let fresh_src = (pinned_src + 1..20000u32)
            .find(|s| {
                let key = FlowKey {
                    proto: IPPROTO_TCP,
                    src_ip: *s,
                    dst_ip: 2,
                    src_port: 1000,
                    dst_port: 80,
                };
                lb.before.pick(key.digest()) == 2
            })
            .expect("another flow maps to backend 2");
        let frame = tcp_frame(fresh_src, 1000, 2, 80, TCP_ACK);
        let mut p = Packet::from_bytes(&frame);
        let (_, a) = run_flow(&mut lb, &nls, &insp, &mut p, 5);
        assert_ne!(a.get(anno::IFACE_OUT), 2);
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(parse_v4(&[0u8; 10]).is_none());
        assert!(parse_v4(&[0u8; 60]).is_none()); // version 0
        let esp = {
            let mut f = vec![0u8; 64];
            FrameBuilder::default().build_ipv4(&mut f, 64, 1, 2);
            f[ETHER_HDR_LEN + 9] = 50; // ESP: not ours
            f
        };
        assert!(parse_v4(&esp).is_none());
    }
}
