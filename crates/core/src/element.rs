//! The element abstraction (§3.2, §3.3).
//!
//! NBA reuses Click's element model with three changes:
//!
//! * batches are the universal I/O unit: the framework hands an element
//!   the whole batch ([`Element::process_batch`]) and handles branch
//!   bookkeeping afterwards; most elements write only the **per-packet**
//!   [`Element::process`] and inherit the iteration loop ("hiding
//!   computation batching"),
//! * elements override the batch body for coarse-grained operations
//!   (queues, load-balancer decisions) or to run their per-packet work as
//!   one loop over the batch (signature matching),
//! * **offloadable** elements additionally declare an accelerator-side
//!   function with declarative input/output formats (datablocks, Table 2).
//!
//! Push/pull is unified into push-only processing; *schedulable* elements
//! (`FromInput`-likes) are driven by the IO loop instead.

use std::sync::Arc;

use nba_io::Packet;
use nba_sim::{CpuProfile, GpuProfile, Time};

use crate::batch::{Anno, PacketBatch, PacketResult};
use crate::nls::NodeLocalStorage;

/// How the framework charges an element's modelled CPU cost. Both kinds
/// run through [`Element::process_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementKind {
    /// Per live packet: dispatch plus [`Element::cpu_profile`] at the
    /// packet's length.
    PerPacket,
    /// Once per batch: the profile's fixed cycles.
    PerBatch,
}

/// Execution context handed to elements.
pub struct ElemCtx<'a> {
    /// Current virtual time.
    pub now: Time,
    /// Whether heavy payload computation (crypto, matching) really runs.
    pub compute: ComputeMode,
    /// Node-local storage shared by workers on this NUMA node (§3.2).
    pub nls: &'a NodeLocalStorage,
    /// Index of the executing worker thread.
    pub worker: usize,
    /// Live throughput/queue statistics (the "system inspector", §3.4).
    pub inspector: &'a crate::stats::SystemInspector,
}

/// Whether elements execute heavy payload transformations.
///
/// The discrete-event clock charges modeled costs either way; `Full` also
/// performs the real computation (so tests can verify ciphertexts and
/// detections), `HeadersOnly` skips payload-body work during long timing
/// sweeps. Routing decisions and header rewrites always really happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeMode {
    /// Perform all computation (default for tests and examples).
    Full,
    /// Skip payload-body transforms; charge their modeled cost only.
    HeadersOnly,
}

/// Which annotation set a [`SlotClaim`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SlotScope {
    /// A per-packet annotation slot.
    Packet,
    /// The per-batch annotation slot.
    Batch,
}

/// How an element touches a claimed annotation slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotAccess {
    /// The element only reads the slot.
    Read,
    /// The element writes (or read-modify-writes) the slot.
    Write,
}

/// One annotation slot an element touches, declared for the static
/// verifier (`nba-lint`). The 7-slot cache-line annotation layout
/// ([`crate::batch::ANNO_SLOTS`]) is shared by the framework and every
/// element in a pipeline; claims make that sharing checkable at
/// graph-load time instead of a silent-corruption hazard at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotClaim {
    /// Per-packet or per-batch annotation set.
    pub scope: SlotScope,
    /// Slot index (must be `< ANNO_SLOTS`).
    pub slot: usize,
    /// Read or write.
    pub access: SlotAccess,
}

impl SlotClaim {
    /// A per-packet read claim.
    pub const fn reads(slot: usize) -> SlotClaim {
        SlotClaim {
            scope: SlotScope::Packet,
            slot,
            access: SlotAccess::Read,
        }
    }

    /// A per-packet write claim.
    pub const fn writes(slot: usize) -> SlotClaim {
        SlotClaim {
            scope: SlotScope::Packet,
            slot,
            access: SlotAccess::Write,
        }
    }

    /// A per-batch read claim.
    pub const fn batch_reads(slot: usize) -> SlotClaim {
        SlotClaim {
            scope: SlotScope::Batch,
            slot,
            access: SlotAccess::Read,
        }
    }

    /// A per-batch write claim.
    pub const fn batch_writes(slot: usize) -> SlotClaim {
        SlotClaim {
            scope: SlotScope::Batch,
            slot,
            access: SlotAccess::Write,
        }
    }
}

/// A protocol-header validity fact the static analyser
/// ([`crate::analysis`]) tracks along pipeline paths. Facts are
/// *established* by validator elements (e.g. `CheckIPHeader` on its valid
/// port) and *required* by header-dependent elements (lookups, TTL
/// decrements, crypto framing): reaching a requirer before any
/// establisher is diagnostic `NBA043`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeaderFact {
    /// The frame carries a structurally valid IPv4 header (version,
    /// length, checksum, nonzero TTL all checked).
    Ipv4Valid,
    /// The frame carries a structurally valid IPv6 header.
    Ipv6Valid,
}

impl HeaderFact {
    /// Bit position in the verifier's fact set.
    pub(crate) fn bit(self) -> u8 {
        match self {
            HeaderFact::Ipv4Valid => 1,
            HeaderFact::Ipv6Valid => 2,
        }
    }
}

/// What an element may do to the batch population, declared for the
/// static analyser's batch-disposition analysis (`NBA042` blackhole
/// detection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Disposition {
    /// Every live packet continues to some output port.
    #[default]
    Pass,
    /// Some packets may be dropped (TTL expiry, lookup miss, bad ICV).
    MayDrop,
    /// Every packet is dropped; nothing ever leaves this element. A path
    /// ending here without an explicit `Discard` edge is a silent
    /// blackhole.
    DropAll,
}

/// Declarative dataflow effects of one element, consumed by the static
/// analyser's path-sensitive passes ([`crate::analysis`]). Everything
/// defaults to "no effect": elements only declare what they actually do.
/// These complement [`Element::slot_claims`] — claims say *which* slots
/// are touched, effects say what the element guarantees or assumes *along
/// a path*.
#[derive(Debug, Clone, Copy, Default)]
pub struct ElementEffects {
    /// Header facts guaranteed to hold for every packet leaving the given
    /// output port (validators list their "valid" port here).
    pub establishes: &'static [(usize, HeaderFact)],
    /// Header facts that must hold for every packet entering this element.
    pub requires: &'static [HeaderFact],
    /// Declared slot reads that tolerate the framework's all-zero default
    /// (the element treats "slot never written" as a meaningful verdict,
    /// e.g. "no match"). Such reads are exempt from `NBA040`.
    pub default_ok: &'static [SlotClaim],
    /// What happens to the batch population.
    pub disposition: Disposition,
}

/// A packet-processing operator composed into a pipeline.
pub trait Element: Send {
    /// The class name used by the configuration language.
    fn class_name(&self) -> &'static str;

    /// Annotation slots this element reads or writes, for the static
    /// verifier. Elements that never touch [`Anno`] sets keep the empty
    /// default. An offloadable element's [`Postprocess::Annotation`] slot
    /// is claimed implicitly — only CPU-path accesses need declaring.
    ///
    /// The linter rejects claims on reserved framework slots and
    /// write-write collisions between different element classes in one
    /// pipeline (`NBA010`–`NBA013`).
    fn slot_claims(&self) -> &'static [SlotClaim] {
        &[]
    }

    /// Declarative dataflow effects for the static analyser's path passes
    /// (`crate::analysis`): header facts established per output port, facts
    /// required on entry, default-tolerant slot reads, and the batch
    /// disposition. The default declares no effects, which is sound (the
    /// verifier assumes nothing) but forfeits path-sensitive precision.
    fn effects(&self) -> ElementEffects {
        ElementEffects::default()
    }

    /// Number of output ports (edges) this element has.
    fn output_count(&self) -> usize {
        1
    }

    /// Whether the modelled cost is charged per packet or per batch.
    fn kind(&self) -> ElementKind {
        ElementKind::PerPacket
    }

    /// Processes one packet. Most elements implement only this and inherit
    /// the iteration loop from [`process_batch`](Self::process_batch).
    ///
    /// The default implementation forwards to output 0.
    fn process(
        &mut self,
        _ctx: &mut ElemCtx<'_>,
        _pkt: &mut Packet,
        _anno: &mut Anno,
    ) -> PacketResult {
        PacketResult::Out(0)
    }

    /// Processes a whole batch: the one body the framework calls, once per
    /// (element, batch). It must leave a [`PacketResult`] on every live
    /// slot it wants routed anywhere but where the slot's last result says;
    /// masked slots are not its business.
    ///
    /// The default is the per-packet adapter (§3.2 "hiding computation
    /// batching"): [`process`](Self::process) on each live slot and its
    /// annotations, the result recorded on the slot. Elements override it
    /// for coarse-grained work (load-balancer decisions) or to run their
    /// per-packet work as one loop over the batch (matching).
    fn process_batch(&mut self, ctx: &mut ElemCtx<'_>, batch: &mut PacketBatch) {
        for (pkt, anno, result) in batch.live_mut() {
            *result = self.process(ctx, pkt, anno);
        }
    }

    /// The modeled CPU cost of processing one packet of `len` bytes.
    ///
    /// Like [`kind`](Self::kind) and [`offload`](Self::offload), the graph
    /// reads this once when it is built, not per visit.
    fn cpu_profile(&self) -> CpuProfile {
        CpuProfile::default()
    }

    /// The accelerator-side description, if this element is offloadable.
    fn offload(&self) -> Option<OffloadSpec> {
        None
    }

    /// Derives per-packet results after accelerator processing scattered
    /// its output (annotations/payloads) back into the batch.
    ///
    /// The default sends every packet out of port 0. Offloadable elements
    /// whose output edge or drop decision depends on the kernel verdict
    /// (lookup miss, match hit) override this so the CPU and GPU paths
    /// route identically.
    fn post_offload(&mut self, _ctx: &mut ElemCtx<'_>, batch: &mut PacketBatch) {
        for (_, _, result) in batch.live_mut() {
            *result = PacketResult::Out(0);
        }
    }
}

/// The items a kernel iterates over, parsed from a staged task buffer.
///
/// Layout of the staged input buffer (what "device memory" holds):
///
/// ```text
/// [u32 items][u32 in_off[items+1]][u32 out_off[items+1]][input bytes...]
/// ```
///
/// Output buffer: `out_off[items]` bytes of writable results.
#[derive(Debug)]
pub struct KernelIo<'a> {
    /// Number of data-parallel items.
    pub items: usize,
    /// Input byte offsets (items + 1 entries).
    pub in_off: Vec<u32>,
    /// Output byte offsets (items + 1 entries).
    pub out_off: Vec<u32>,
    /// Concatenated input item bytes.
    pub input: &'a [u8],
    /// Concatenated output item bytes.
    pub output: &'a mut [u8],
}

impl<'a> KernelIo<'a> {
    /// Serializes the header + offsets in front of item data.
    pub fn stage(in_segments: &[&[u8]], out_lens: &[usize]) -> (Vec<u8>, usize) {
        assert_eq!(in_segments.len(), out_lens.len());
        let items = in_segments.len();
        let mut buf = Vec::new();
        buf.extend_from_slice(&(items as u32).to_le_bytes());
        let mut off = 0u32;
        for seg in in_segments {
            buf.extend_from_slice(&off.to_le_bytes());
            off += seg.len() as u32;
        }
        buf.extend_from_slice(&off.to_le_bytes());
        let mut ooff = 0u32;
        for len in out_lens {
            buf.extend_from_slice(&ooff.to_le_bytes());
            ooff += *len as u32;
        }
        buf.extend_from_slice(&ooff.to_le_bytes());
        for seg in in_segments {
            buf.extend_from_slice(seg);
        }
        (buf, ooff as usize)
    }

    /// Parses a staged buffer (the kernel-side view).
    ///
    /// # Panics
    ///
    /// Panics if the buffer is malformed — staging and parsing are both
    /// framework-internal, so a mismatch is a bug, not input error.
    pub fn parse(staged: &'a [u8], output: &'a mut [u8]) -> KernelIo<'a> {
        let items = u32::from_le_bytes(staged[0..4].try_into().unwrap()) as usize;
        let mut pos = 4;
        let read_offsets = |pos: &mut usize| {
            let mut v = Vec::with_capacity(items + 1);
            for _ in 0..=items {
                v.push(u32::from_le_bytes(
                    staged[*pos..*pos + 4].try_into().unwrap(),
                ));
                *pos += 4;
            }
            v
        };
        let in_off = read_offsets(&mut pos);
        let out_off = read_offsets(&mut pos);
        KernelIo {
            items,
            in_off,
            out_off,
            input: &staged[pos..],
            output,
        }
    }

    /// Input bytes of item `i` (borrowed from the staged buffer, not from
    /// `self`, so a kernel can hold them while it writes `output`).
    pub fn item_in(&self, i: usize) -> &'a [u8] {
        &self.input[self.in_off[i] as usize..self.in_off[i + 1] as usize]
    }

    /// Byte range of item `i` in the output buffer.
    pub fn item_out_range(&self, i: usize) -> std::ops::Range<usize> {
        self.out_off[i] as usize..self.out_off[i + 1] as usize
    }
}

/// An accelerator kernel: transforms the staged input into the output.
pub type Kernel = Arc<dyn Fn(KernelIo<'_>) + Send + Sync>;

/// Declarative input format of an offloadable element's datablock (Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbInput {
    /// A fixed byte range of each packet (`partial_pkt`).
    PartialPacket {
        /// Byte offset into the frame.
        offset: usize,
        /// Range length; shorter packets contribute what they have.
        len: usize,
    },
    /// Everything from `offset` to the end of the frame (`whole_pkt`).
    WholePacket {
        /// Byte offset into the frame.
        offset: usize,
    },
}

/// Declarative output format of an offloadable element's datablock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbOutput {
    /// Kernel output overwrites the same packet range the input came from,
    /// possibly extended to `extra` additional bytes (size-delta).
    InPlace {
        /// Extra output bytes appended per item beyond the input length.
        extra: usize,
    },
    /// A fixed number of result bytes per item, written into per-packet
    /// annotations / consumed by the postprocess step.
    PerItem {
        /// Output bytes per item.
        len: usize,
    },
}

/// The accelerator-side half of an offloadable element (§3.3).
#[derive(Clone)]
pub struct OffloadSpec {
    /// Input datablock declaration.
    pub input: DbInput,
    /// Output datablock declaration.
    pub output: DbOutput,
    /// Modeled per-item device cost.
    pub gpu: GpuProfile,
    /// The device function (functionally executed on the host).
    pub kernel: Kernel,
    /// `true` for heavy payload transforms (crypto, matching) that
    /// [`ComputeMode::HeadersOnly`] may skip; `false` for kernels whose
    /// results drive routing and must always run (lookups).
    pub heavy: bool,
    /// How the output is applied back to each packet.
    pub postprocess: Postprocess,
}

impl std::fmt::Debug for OffloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OffloadSpec")
            .field("input", &self.input)
            .field("output", &self.output)
            .finish()
    }
}

/// What the framework does with kernel output during postprocessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Postprocess {
    /// Copy output bytes back over the packet's input range (encryption).
    WriteBack,
    /// Interpret each item's output as a little-endian u64 and store it in
    /// the given per-packet annotation slot (lookups, match verdicts).
    Annotation(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_round_trips() {
        let a = b"hello".as_slice();
        let b = b"world!!".as_slice();
        let (staged, out_len) = KernelIo::stage(&[a, b], &[4, 8]);
        assert_eq!(out_len, 12);
        let mut out = vec![0u8; out_len];
        let io = KernelIo::parse(&staged, &mut out);
        assert_eq!(io.items, 2);
        assert_eq!(io.item_in(0), b"hello");
        assert_eq!(io.item_in(1), b"world!!");
        assert_eq!(io.item_out_range(0), 0..4);
        assert_eq!(io.item_out_range(1), 4..12);
    }

    #[test]
    fn kernel_writes_through_ranges() {
        let (staged, out_len) = KernelIo::stage(&[b"abc", b"de"], &[3, 2]);
        let mut out = vec![0u8; out_len];
        let io = KernelIo::parse(&staged, &mut out);
        for i in 0..io.items {
            let r = io.item_out_range(i);
            let src: Vec<u8> = io
                .item_in(i)
                .iter()
                .map(|b| b.to_ascii_uppercase())
                .collect();
            io.output[r].copy_from_slice(&src);
        }
        assert_eq!(&out, b"ABCDE");
    }

    #[test]
    fn empty_stage_parses() {
        let (staged, out_len) = KernelIo::stage(&[], &[]);
        let mut out = vec![0u8; out_len];
        let io = KernelIo::parse(&staged, &mut out);
        assert_eq!(io.items, 0);
        assert!(io.input.is_empty());
    }
}
