//! Packet batches: the framework's first-class unit of work (§3.2).
//!
//! A batch does not carry packet contents — only packet objects (which own
//! their buffers), a per-packet processing-result array, one batch
//! annotation set, and per-packet annotation sets. The paper restricts
//! annotations to 7 slots so a set fits a cache line; we keep that layout.
//!
//! Packets leave a batch in two ways:
//! * **masked out** — dropped or moved to a split batch; the slot becomes
//!   empty but the arrays are not compacted (the branch-prediction trick),
//! * **taken** — moved into another batch during a split.

use nba_io::Packet;
use nba_sim::Time;

/// Number of annotation slots per packet and per batch (fits a cache line).
pub const ANNO_SLOTS: usize = 7;

/// Well-known annotation slot indices.
pub mod anno {
    /// Per-packet: virtual timestamp (picoseconds) at generation.
    pub const TIMESTAMP: usize = 0;
    /// Per-packet: input NIC port.
    pub const IFACE_IN: usize = 1;
    /// Per-packet: output NIC port chosen by a routing element; the
    /// framework transmits through it at the end of the pipeline (§3.2
    /// "NBA moves the hardware resource mapping ... into the framework").
    pub const IFACE_OUT: usize = 2;
    /// Per-packet: flow id / RSS hash.
    pub const FLOW_ID: usize = 3;
    /// Per-packet: Aho-Corasick verdict (pattern index + 1, or 0).
    pub const AC_MATCH: usize = 4;
    /// Per-packet: regex verdict (rule index + 1, or 0).
    pub const RE_MATCH: usize = 5;
    /// Per-packet: original (as-received) frame bits, for input-normalized
    /// throughput accounting across encapsulating pipelines.
    pub const ORIG_BITS: usize = 6;
    /// Per-batch: load-balancer decision — device index + 1, or 0 for CPU.
    pub const LB_DEVICE: usize = 0;
    /// Per-batch: telemetry trace id, stamped at RX when batch-lifecycle
    /// tracing is enabled (0 otherwise, and for batches born from splits).
    /// Nothing on the processing path reads it, so stamping cannot change
    /// behaviour.
    pub const TRACE_ID: usize = 1;
    /// Per-batch: current causal span id, stamped at RX when tracing is
    /// enabled and re-stamped as the batch crosses stages (offload enqueue,
    /// device launch, completion), so each trace event links to its causal
    /// parent. 0 when tracing is off; nothing on the processing path reads
    /// it.
    pub const SPAN_ID: usize = 2;

    /// Per-packet slots the framework owns: elements must never write
    /// these ([`TIMESTAMP`] and [`IFACE_IN`] are seeded at RX,
    /// [`ORIG_BITS`] drives input-normalized throughput accounting).
    /// The static verifier rejects write claims on them (`NBA011`).
    pub const RESERVED_PACKET_WRITES: &[usize] = &[TIMESTAMP, IFACE_IN, ORIG_BITS];

    /// Per-batch slots the framework owns ([`TRACE_ID`] and [`SPAN_ID`]
    /// are stamped by the runtime; [`LB_DEVICE`] is intentionally
    /// element-writable — it is the designated load-balancer decision
    /// slot).
    pub const RESERVED_BATCH_WRITES: &[usize] = &[TRACE_ID, SPAN_ID];

    /// Per-packet slots the framework seeds on every packet at RX, so
    /// element reads of them are always defined ([`crate::batch::PacketBatch::push`]).
    pub const FRAMEWORK_SEEDED: &[usize] = &[TIMESTAMP, IFACE_IN, FLOW_ID, ORIG_BITS];
}

/// A per-packet or per-batch annotation set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Anno {
    values: [u64; ANNO_SLOTS],
}

impl Anno {
    /// Reads slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= ANNO_SLOTS`.
    pub fn get(&self, i: usize) -> u64 {
        self.values[i]
    }

    /// Writes slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= ANNO_SLOTS`.
    pub fn set(&mut self, i: usize, v: u64) {
        self.values[i] = v;
    }
}

/// The result of processing one packet in an element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketResult {
    /// Send the packet out of the element's output port `n`.
    Out(u8),
    /// Drop the packet.
    Drop,
}

/// A batch of packets moving through the element graph together.
#[derive(Debug, Default)]
pub struct PacketBatch {
    slots: Vec<Option<Packet>>,
    annos: Vec<Anno>,
    results: Vec<PacketResult>,
    banno: Anno,
    live: usize,
}

impl PacketBatch {
    /// Creates an empty batch with room for `cap` packets.
    pub fn with_capacity(cap: usize) -> PacketBatch {
        PacketBatch {
            slots: Vec::with_capacity(cap),
            annos: Vec::with_capacity(cap),
            results: Vec::with_capacity(cap),
            banno: Anno::default(),
            live: 0,
        }
    }

    /// Appends a packet, seeding its timestamp/input-port annotations, and
    /// returns its slot index.
    pub fn push(&mut self, pkt: Packet) -> usize {
        let mut a = Anno::default();
        a.set(anno::TIMESTAMP, pkt.ts_gen.as_ps());
        a.set(anno::IFACE_IN, u64::from(pkt.port_in));
        a.set(anno::FLOW_ID, u64::from(pkt.rss_hash));
        a.set(anno::ORIG_BITS, pkt.frame_bits());
        self.slots.push(Some(pkt));
        self.annos.push(a);
        self.results.push(PacketResult::Out(0));
        self.live += 1;
        self.slots.len() - 1
    }

    /// Number of live (unmasked) packets.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no live packets remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of slots including masked ones.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The batch-level annotation set.
    pub fn banno(&self) -> &Anno {
        &self.banno
    }

    /// The batch-level annotation set, mutably.
    pub fn banno_mut(&mut self) -> &mut Anno {
        &mut self.banno
    }

    /// Borrows the packet in slot `i` if it is live.
    pub fn packet(&self, i: usize) -> Option<&Packet> {
        self.slots.get(i).and_then(|s| s.as_ref())
    }

    /// Mutably borrows the packet in slot `i` if it is live.
    pub fn packet_mut(&mut self, i: usize) -> Option<&mut Packet> {
        self.slots.get_mut(i).and_then(|s| s.as_mut())
    }

    /// The annotation set of slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn anno(&self, i: usize) -> &Anno {
        &self.annos[i]
    }

    /// The annotation set of slot `i`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn anno_mut(&mut self, i: usize) -> &mut Anno {
        &mut self.annos[i]
    }

    /// The last processing result of slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn result(&self, i: usize) -> PacketResult {
        self.results[i]
    }

    /// Records the processing result of slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_result(&mut self, i: usize, r: PacketResult) {
        self.results[i] = r;
    }

    /// Masks slot `i` out, dropping its packet (one with a pool handle
    /// frees its buffer there; a handle-free one's buffer is deallocated,
    /// never going home). No-op if already masked.
    pub fn mask(&mut self, i: usize) {
        if let Some(slot) = self.slots.get_mut(i) {
            if slot.take().is_some() {
                self.live -= 1;
            }
        }
    }

    /// Removes the packet of slot `i` (with its annotation) for moving into
    /// a split batch.
    pub fn take(&mut self, i: usize) -> Option<(Packet, Anno)> {
        let slot = self.slots.get_mut(i)?;
        let pkt = slot.take()?;
        self.live -= 1;
        Some((pkt, self.annos[i]))
    }

    /// Appends a packet together with its carried annotation (splits).
    pub fn push_with_anno(&mut self, pkt: Packet, anno: Anno) -> usize {
        self.slots.push(Some(pkt));
        self.annos.push(anno);
        self.results.push(PacketResult::Out(0));
        self.live += 1;
        self.slots.len() - 1
    }

    /// Indices of live slots (allocation-free iteration helper).
    pub fn live_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| i)
    }

    /// The live packets, in slot order.
    pub(crate) fn packets(&self) -> impl Iterator<Item = &Packet> + '_ {
        self.slots.iter().flatten()
    }

    /// Every live slot's packet, annotation set and result cell, in slot
    /// order: the loop a batch body runs, without per-slot bounds checks.
    pub fn live_mut(
        &mut self,
    ) -> impl Iterator<Item = (&mut Packet, &mut Anno, &mut PacketResult)> + '_ {
        self.slots
            .iter_mut()
            .zip(&mut self.annos)
            .zip(&mut self.results)
            .filter_map(|((slot, anno), result)| Some((slot.as_mut()?, anno, result)))
    }

    /// The output port slot `i` leaves on, clamped to `last`, or `None`
    /// if the slot is masked or its result is a drop.
    pub(crate) fn port_of(&self, i: usize, last: u8) -> Option<u8> {
        match self.results[i] {
            PacketResult::Out(p) if self.slots[i].is_some() => Some(p.min(last)),
            _ => None,
        }
    }

    /// One pass over the slots after an element ran: moves the live
    /// packets whose result is [`PacketResult::Drop`] onto `dropped` (whose
    /// owner sends their buffers home) and counts the rest into `counts` by
    /// output port, ports past the end clamped to the last one. Returns the
    /// number dropped.
    ///
    /// The pass leaves every empty slot's result at `Out(0)`, so that when
    /// the next element sends every packet out of port 0 — the common
    /// case — the results alone say so and no slot is read.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty.
    pub(crate) fn settle(&mut self, counts: &mut [u64], dropped: &mut Vec<Packet>) -> u64 {
        const ONWARD: PacketResult = PacketResult::Out(0);
        if self.results.iter().all(|&r| r == ONWARD) {
            counts[0] += self.live as u64;
            return 0;
        }
        let last = counts.len() - 1;
        let before = dropped.len();
        for (slot, result) in self.slots.iter_mut().zip(&mut self.results) {
            match (slot.is_some(), *result) {
                (true, PacketResult::Out(p)) => counts[usize::from(p).min(last)] += 1,
                (true, PacketResult::Drop) => {
                    dropped.extend(slot.take());
                    *result = ONWARD;
                }
                (false, _) => *result = ONWARD,
            }
        }
        let n = dropped.len() - before;
        self.live -= n;
        n as u64
    }

    /// Moves all live packets with their annotations onto the end of
    /// `out`, in slot order, leaving the batch empty.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<(Packet, Anno)>) {
        out.reserve(self.live);
        for (slot, anno) in self.slots.iter_mut().zip(&self.annos) {
            if let Some(p) = slot.take() {
                out.push((p, *anno));
            }
        }
        self.live = 0;
    }

    /// Moves all live packets onto the end of `out`, in slot order, leaving
    /// the batch empty (a discard edge's drops).
    pub(crate) fn drain_packets_into(&mut self, out: &mut Vec<Packet>) {
        out.extend(self.slots.iter_mut().filter_map(Option::take));
        self.live = 0;
    }

    /// Empties the batch for reuse, keeping its allocations: a retired
    /// shell refilled from the RX rings costs no allocation per burst.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.annos.clear();
        self.results.clear();
        self.banno = Anno::default();
        self.live = 0;
    }

    /// Sum of live frame bits (throughput accounting).
    pub fn frame_bits(&self) -> u64 {
        self.slots.iter().flatten().map(|p| p.frame_bits()).sum()
    }

    /// The generation timestamp of slot `i` as virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn timestamp(&self, i: usize) -> Time {
        Time::from_ps(self.annos[i].get(anno::TIMESTAMP))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(len: usize) -> Packet {
        Packet::from_bytes(&vec![0u8; len])
    }

    #[test]
    fn push_seeds_annotations() {
        let mut b = PacketBatch::with_capacity(4);
        let mut p = pkt(64);
        p.port_in = 3;
        p.rss_hash = 0xabcd;
        p.ts_gen = Time::from_us(7);
        let i = b.push(p);
        assert_eq!(b.anno(i).get(anno::IFACE_IN), 3);
        assert_eq!(b.anno(i).get(anno::FLOW_ID), 0xabcd);
        assert_eq!(b.timestamp(i), Time::from_us(7));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn mask_hides_without_compacting() {
        let mut b = PacketBatch::with_capacity(4);
        for _ in 0..3 {
            b.push(pkt(64));
        }
        b.mask(1);
        assert_eq!(b.len(), 2);
        assert_eq!(b.slot_count(), 3);
        assert!(b.packet(1).is_none());
        assert!(b.packet(0).is_some());
        assert_eq!(b.live_indices().collect::<Vec<_>>(), vec![0, 2]);
        // Double mask is a no-op.
        b.mask(1);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn take_moves_packet_and_anno() {
        let mut b = PacketBatch::with_capacity(2);
        let i = b.push(pkt(100));
        b.anno_mut(i).set(anno::IFACE_OUT, 5);
        let (p, a) = b.take(i).unwrap();
        assert_eq!(p.len(), 100);
        assert_eq!(a.get(anno::IFACE_OUT), 5);
        assert!(b.is_empty());
        assert!(b.take(i).is_none());

        let mut b2 = PacketBatch::with_capacity(2);
        let j = b2.push_with_anno(p, a);
        assert_eq!(b2.anno(j).get(anno::IFACE_OUT), 5);
    }

    #[test]
    fn frame_bits_counts_live_only() {
        let mut b = PacketBatch::with_capacity(4);
        b.push(pkt(64));
        b.push(pkt(128));
        b.mask(0);
        assert_eq!(b.frame_bits(), 128 * 8);
    }

    #[test]
    fn results_default_to_port_zero() {
        let mut b = PacketBatch::with_capacity(1);
        let i = b.push(pkt(64));
        assert_eq!(b.result(i), PacketResult::Out(0));
        b.set_result(i, PacketResult::Drop);
        assert_eq!(b.result(i), PacketResult::Drop);
    }

    #[test]
    fn drain_into_appends_live_packets_and_empties_batch() {
        let mut b = PacketBatch::with_capacity(3);
        for len in [64, 65, 66] {
            b.push(pkt(len));
        }
        b.mask(0);
        let mut out = vec![(pkt(60), Anno::default())];
        b.drain_into(&mut out);
        let lens: Vec<usize> = out.iter().map(|(p, _)| p.len()).collect();
        assert_eq!(lens, vec![60, 65, 66]);
        assert!(b.is_empty());
        assert_eq!(b.frame_bits(), 0);
    }

    #[test]
    fn settle_drops_and_counts_by_clamped_port() {
        let mut b = PacketBatch::with_capacity(6);
        for _ in 0..6 {
            b.push(pkt(64));
        }
        b.mask(5);
        b.set_result(0, PacketResult::Drop);
        b.set_result(1, PacketResult::Out(1));
        b.set_result(2, PacketResult::Out(7));
        b.set_result(5, PacketResult::Drop);
        b.packet_mut(0).unwrap().rss_hash = 9;
        let mut counts = [0u64; 2];
        let mut dropped = Vec::new();
        assert_eq!(b.settle(&mut counts, &mut dropped), 1);
        assert_eq!(counts, [2, 2]);
        assert_eq!(b.len(), 4);
        let hashes: Vec<u32> = dropped.iter().map(|p| p.rss_hash).collect();
        assert_eq!(hashes, [9], "the dropped packet is handed over");
        assert_eq!(b.port_of(0, 1), None);
        assert_eq!(b.port_of(2, 1), Some(1));
        assert_eq!(b.port_of(3, 1), Some(0));
        assert_eq!(b.port_of(5, 1), None);
    }

    #[test]
    fn drain_packets_into_moves_live_packets_in_order() {
        let mut b = PacketBatch::with_capacity(3);
        for len in [64, 65, 66] {
            b.push(pkt(len));
        }
        b.mask(1);
        let mut out = vec![pkt(60)];
        b.drain_packets_into(&mut out);
        let lens: Vec<usize> = out.iter().map(Packet::len).collect();
        assert_eq!(lens, vec![60, 64, 66]);
        assert!(b.is_empty());
    }

    #[test]
    fn live_mut_visits_live_slots_in_order() {
        let mut b = PacketBatch::with_capacity(4);
        for len in [64, 65, 66, 67] {
            b.push(pkt(len));
        }
        b.mask(1);
        for (p, a, r) in b.live_mut() {
            a.set(anno::AC_MATCH, p.len() as u64);
            *r = PacketResult::Out(p.len() as u8 - 64);
        }
        let seen: Vec<u64> = b
            .live_indices()
            .map(|i| b.anno(i).get(anno::AC_MATCH))
            .collect();
        assert_eq!(seen, vec![64, 66, 67]);
        assert_eq!(b.result(1), PacketResult::Out(0));
        assert_eq!(b.result(3), PacketResult::Out(3));
        let lens: Vec<usize> = b.packets().map(Packet::len).collect();
        assert_eq!(lens, vec![64, 66, 67]);
    }

    #[test]
    #[should_panic]
    fn anno_slot_out_of_range_panics() {
        let a = Anno::default();
        let _ = a.get(ANNO_SLOTS);
    }
}
