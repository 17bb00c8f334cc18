//! Offload task staging: the datablock engine (§3.3).
//!
//! When a device thread picks up an aggregated offload task, it
//! *preprocesses* the input datablock (gathers the declared byte ranges of
//! every packet into one page-locked buffer), runs the kernel over it,
//! and *postprocesses* the output (scatters results back into packets or
//! annotations). The declarative [`DbInput`]/[`DbOutput`] formats let the
//! framework do all buffer management — the safety and optimization
//! arguments of §3.3.

use nba_sim::Time;

use crate::batch::{anno, PacketBatch};
use crate::element::{DbInput, DbOutput, KernelIo, OffloadSpec, Postprocess};
use crate::graph::NodeId;

/// A batch suspended at an offloadable node, en route to a device thread.
#[derive(Debug)]
pub struct OffloadTask {
    /// The offloadable element's node id (same in every worker's replica).
    pub node: NodeId,
    /// The worker that suspended the batch (owns the completion queue).
    pub worker: usize,
    /// The suspended batch.
    pub batch: PacketBatch,
    /// When the batch entered the device command queue — the anchor of the
    /// `enqueue_wait` offload stage (device time in the DES runtime,
    /// run-relative wall time in the live runtime).
    pub enqueued_at: Time,
}

impl OffloadTask {
    /// The batch's current causal span id (the enqueue span, stamped by
    /// the graph when it suspended the batch; 0 with tracing off).
    pub fn span(&self) -> u64 {
        self.batch.banno().get(anno::SPAN_ID)
    }

    /// Re-stamps the batch's causal span (the device thread advances it to
    /// the launch span so the completion links to the launch).
    pub fn set_span(&mut self, span: u64) {
        self.batch.banno_mut().set(anno::SPAN_ID, span);
    }
}

/// A finished task on its way back to the worker.
#[derive(Debug)]
pub struct CompletedTask {
    /// The node to resume from.
    pub node: NodeId,
    /// The worker to resume on.
    pub worker: usize,
    /// The processed batch.
    pub batch: PacketBatch,
    /// Device-side completion time (D2H copy landed).
    pub done_at: Time,
    /// The device failed this task: the batch comes back *unprocessed*
    /// (kernel output discarded or never produced) and the worker must
    /// re-execute the element's CPU path instead of resuming past it.
    pub fallback: bool,
}

impl CompletedTask {
    /// The batch's current causal span id (the launch span when the device
    /// stamped one, else the enqueue span; 0 with tracing off).
    pub fn span(&self) -> u64 {
        self.batch.banno().get(anno::SPAN_ID)
    }
}

/// A gathered input block ready for the device.
#[derive(Debug)]
pub struct StagedTask {
    /// Staged input (header + offset tables + item bytes).
    pub input: Vec<u8>,
    /// Required output buffer length.
    pub out_len: usize,
    /// Number of data-parallel items (live packets).
    pub items: usize,
    /// Total single-lane kernel nanoseconds (from the element's profile).
    pub lane_ns: f64,
    /// Item payload bytes gathered (drives preprocessing cost).
    pub in_bytes: usize,
}

/// The input byte range of `spec` for a packet of `len` bytes.
fn input_range(spec: &OffloadSpec, len: usize) -> std::ops::Range<usize> {
    match spec.input {
        DbInput::PartialPacket { offset, len: want } => {
            let start = offset.min(len);
            start..(offset + want).min(len)
        }
        DbInput::WholePacket { offset } => offset.min(len)..len,
    }
}

/// Gathers the input datablock over all live packets of `batches`
/// (iteration order: batch order, then ascending slot index — scatter uses
/// the same order).
pub fn stage(spec: &OffloadSpec, batches: &[&PacketBatch]) -> StagedTask {
    let mut segments: Vec<&[u8]> = Vec::new();
    let mut out_lens: Vec<usize> = Vec::new();
    let mut lane_ns = 0.0;
    let mut in_bytes = 0usize;
    for b in batches {
        for i in b.live_indices() {
            let pkt = b.packet(i).expect("live index");
            let data = pkt.data();
            let r = input_range(spec, data.len());
            let seg = &data[r];
            in_bytes += seg.len();
            lane_ns += spec.gpu.item_ns(seg.len());
            out_lens.push(match spec.output {
                DbOutput::InPlace { extra } => seg.len() + extra,
                DbOutput::PerItem { len } => len,
            });
            segments.push(seg);
        }
    }
    let items = segments.len();
    let (input, out_len) = KernelIo::stage(&segments, &out_lens);
    StagedTask {
        input,
        out_len,
        items,
        lane_ns,
        in_bytes,
    }
}

/// Why a kernel output block could not be applied back onto the packets:
/// its length disagrees with the staged layout (a corrupted D2H copy, or a
/// framework bug pairing the wrong output with a task).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScatterError {
    /// The output block is shorter than the staged layout requires.
    ShortOutput {
        /// Bytes the layout requires.
        needed: usize,
        /// Bytes the block actually holds.
        got: usize,
    },
    /// The output block is longer than the staged layout consumes.
    TrailingBytes {
        /// Bytes the layout consumes.
        needed: usize,
        /// Bytes the block actually holds.
        got: usize,
    },
}

impl std::fmt::Display for ScatterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScatterError::ShortOutput { needed, got } => {
                write!(f, "output block too short: need {needed} bytes, got {got}")
            }
            ScatterError::TrailingBytes { needed, got } => {
                write!(f, "output block too long: need {needed} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for ScatterError {}

/// Applies kernel output back onto the packets, per the spec's postprocess
/// mode. `output` must come from running the kernel over [`stage`]'s block.
///
/// The write-back is *atomic*: the whole layout is validated against the
/// output length first, so on `Err` no packet or annotation has been
/// touched and the batches can safely re-execute on the CPU path. Callers
/// on the device path treat `Err` as a task failure (count + fall back);
/// an error *without* injected corruption is a framework bug and should
/// hard-fail in tests.
pub fn scatter(
    spec: &OffloadSpec,
    batches: &mut [PacketBatch],
    output: &[u8],
) -> Result<(), ScatterError> {
    // Pass 1: the exact length this layout consumes. Nothing is written
    // until the block is known to match, so a corrupted copy cannot leave
    // a batch half-scattered.
    let mut needed = 0usize;
    for b in batches.iter() {
        for i in b.live_indices() {
            let pkt_len = b.packet(i).expect("live index").len();
            let r = input_range(spec, pkt_len);
            needed += match spec.output {
                DbOutput::InPlace { extra } => r.len() + extra,
                DbOutput::PerItem { len } => len,
            };
        }
    }
    if needed > output.len() {
        return Err(ScatterError::ShortOutput {
            needed,
            got: output.len(),
        });
    }
    if needed < output.len() {
        return Err(ScatterError::TrailingBytes {
            needed,
            got: output.len(),
        });
    }
    // Pass 2: apply. The slices below cannot fail — pass 1 proved the
    // cursor walk lands exactly on `output.len()`.
    let mut cursor = 0usize;
    for b in batches.iter_mut() {
        let indices: Vec<usize> = b.live_indices().collect();
        for i in indices {
            let pkt_len = b.packet(i).expect("live index").len();
            let r = input_range(spec, pkt_len);
            let out_item_len = match spec.output {
                DbOutput::InPlace { extra } => r.len() + extra,
                DbOutput::PerItem { len } => len,
            };
            let item = &output[cursor..cursor + out_item_len];
            cursor += out_item_len;
            match spec.postprocess {
                Postprocess::WriteBack => {
                    let pkt = b.packet_mut(i).expect("live index");
                    let dst_range = r.start..(r.start + item.len()).min(pkt.len());
                    let n = dst_range.len();
                    pkt.data_mut()[dst_range].copy_from_slice(&item[..n]);
                }
                Postprocess::Annotation(slot) => {
                    let mut v = [0u8; 8];
                    let n = item.len().min(8);
                    v[..n].copy_from_slice(&item[..n]);
                    b.anno_mut(i).set(slot, u64::from_le_bytes(v));
                }
            }
        }
    }
    Ok(())
}

/// Device-to-host bytes the task will copy back (sizing the D2H transfer).
pub fn d2h_bytes(staged: &StagedTask) -> usize {
    staged.out_len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::anno;
    use crate::element::{DbInput, DbOutput, Kernel, OffloadSpec, Postprocess};
    use nba_io::Packet;
    use nba_sim::GpuProfile;
    use std::sync::Arc;

    fn upper_kernel() -> Kernel {
        Arc::new(|io: KernelIo<'_>| {
            for i in 0..io.items {
                let r = io.item_out_range(i);
                let src: Vec<u8> = io
                    .item_in(i)
                    .iter()
                    .map(|b| b.to_ascii_uppercase())
                    .collect();
                io.output[r].copy_from_slice(&src);
            }
        })
    }

    fn sum_kernel() -> Kernel {
        Arc::new(|io: KernelIo<'_>| {
            for i in 0..io.items {
                let s: u64 = io.item_in(i).iter().map(|&b| u64::from(b)).sum();
                let r = io.item_out_range(i);
                io.output[r].copy_from_slice(&s.to_le_bytes());
            }
        })
    }

    fn batch_with(frames: &[&[u8]]) -> PacketBatch {
        let mut b = PacketBatch::with_capacity(frames.len());
        for f in frames {
            b.push(Packet::from_bytes(f));
        }
        b
    }

    #[test]
    fn whole_packet_write_back_round_trip() {
        let spec = OffloadSpec {
            input: DbInput::WholePacket { offset: 2 },
            output: DbOutput::InPlace { extra: 0 },
            gpu: GpuProfile {
                fixed_ns: 10.0,
                ns_per_byte: 1.0,
            },
            kernel: upper_kernel(),
            heavy: false,
            postprocess: Postprocess::WriteBack,
        };
        let mut b1 = batch_with(&[b"xxhello", b"xxworld"]);
        let b2 = batch_with(&[b"xxfoo"]);
        let mut batches = vec![std::mem::take(&mut b1), b2];
        let refs: Vec<&PacketBatch> = batches.iter().collect();
        let staged = stage(&spec, &refs);
        assert_eq!(staged.items, 3);
        assert_eq!(staged.in_bytes, 5 + 5 + 3);
        assert!((staged.lane_ns - (3.0 * 10.0 + 13.0)).abs() < 1e-9);

        let mut out = vec![0u8; staged.out_len];
        (spec.kernel)(KernelIo::parse(&staged.input, &mut out));
        scatter(&spec, &mut batches, &out).unwrap();
        assert_eq!(batches[0].packet(0).unwrap().data(), b"xxHELLO");
        assert_eq!(batches[0].packet(1).unwrap().data(), b"xxWORLD");
        assert_eq!(batches[1].packet(0).unwrap().data(), b"xxFOO");
    }

    #[test]
    fn partial_packet_annotation_results() {
        let spec = OffloadSpec {
            input: DbInput::PartialPacket { offset: 1, len: 2 },
            output: DbOutput::PerItem { len: 8 },
            gpu: GpuProfile::default(),
            kernel: sum_kernel(),
            heavy: false,
            postprocess: Postprocess::Annotation(anno::IFACE_OUT),
        };
        let mut batches = vec![batch_with(&[&[1u8, 2, 3, 4], &[5u8, 6]])];
        let refs: Vec<&PacketBatch> = batches.iter().collect();
        let staged = stage(&spec, &refs);
        let mut out = vec![0u8; staged.out_len];
        (spec.kernel)(KernelIo::parse(&staged.input, &mut out));
        scatter(&spec, &mut batches, &out).unwrap();
        assert_eq!(batches[0].anno(0).get(anno::IFACE_OUT), 2 + 3);
        assert_eq!(batches[0].anno(1).get(anno::IFACE_OUT), 6);
    }

    #[test]
    fn masked_slots_are_skipped() {
        let spec = OffloadSpec {
            input: DbInput::WholePacket { offset: 0 },
            output: DbOutput::InPlace { extra: 0 },
            gpu: GpuProfile::default(),
            kernel: upper_kernel(),
            heavy: false,
            postprocess: Postprocess::WriteBack,
        };
        let mut b = batch_with(&[b"aa", b"bb", b"cc"]);
        b.mask(1);
        let mut batches = vec![b];
        let refs: Vec<&PacketBatch> = batches.iter().collect();
        let staged = stage(&spec, &refs);
        assert_eq!(staged.items, 2);
        let mut out = vec![0u8; staged.out_len];
        (spec.kernel)(KernelIo::parse(&staged.input, &mut out));
        scatter(&spec, &mut batches, &out).unwrap();
        assert_eq!(batches[0].packet(0).unwrap().data(), b"AA");
        assert_eq!(batches[0].packet(2).unwrap().data(), b"CC");
    }

    #[test]
    fn short_packets_clip_partial_ranges() {
        let spec = OffloadSpec {
            input: DbInput::PartialPacket { offset: 4, len: 8 },
            output: DbOutput::PerItem { len: 8 },
            gpu: GpuProfile::default(),
            kernel: sum_kernel(),
            heavy: false,
            postprocess: Postprocess::Annotation(0),
        };
        // Packet shorter than the offset contributes an empty item.
        let batches = [batch_with(&[&[9u8, 9], &[0u8, 0, 0, 0, 7, 7]])];
        let refs: Vec<&PacketBatch> = batches.iter().collect();
        let staged = stage(&spec, &refs);
        assert_eq!(staged.items, 2);
        let mut out = vec![0u8; staged.out_len];
        (spec.kernel)(KernelIo::parse(&staged.input, &mut out));
        // Item 0 sums nothing, item 1 sums the two 7s.
        assert_eq!(&out[0..8], &0u64.to_le_bytes());
        assert_eq!(&out[8..16], &14u64.to_le_bytes());
    }

    #[test]
    fn scatter_rejects_mismatched_output_without_touching_packets() {
        let spec = OffloadSpec {
            input: DbInput::WholePacket { offset: 0 },
            output: DbOutput::InPlace { extra: 0 },
            gpu: GpuProfile::default(),
            kernel: upper_kernel(),
            heavy: false,
            postprocess: Postprocess::WriteBack,
        };
        let mut batches = vec![batch_with(&[b"hello", b"world"])];
        let refs: Vec<&PacketBatch> = batches.iter().collect();
        let staged = stage(&spec, &refs);
        let mut out = vec![0u8; staged.out_len];
        (spec.kernel)(KernelIo::parse(&staged.input, &mut out));

        // A truncated block (the corrupted-D2H fault) is rejected…
        let err = scatter(&spec, &mut batches, &out[..out.len() - 1]).unwrap_err();
        assert_eq!(err, ScatterError::ShortOutput { needed: 10, got: 9 });
        // …atomically: no packet was half-written.
        assert_eq!(batches[0].packet(0).unwrap().data(), b"hello");
        assert_eq!(batches[0].packet(1).unwrap().data(), b"world");

        // An oversized block is equally rejected.
        let mut long = out.clone();
        long.push(0);
        let err = scatter(&spec, &mut batches, &long).unwrap_err();
        assert_eq!(
            err,
            ScatterError::TrailingBytes {
                needed: 10,
                got: 11
            }
        );
        assert_eq!(batches[0].packet(0).unwrap().data(), b"hello");

        // The well-formed block still applies.
        scatter(&spec, &mut batches, &out).unwrap();
        assert_eq!(batches[0].packet(0).unwrap().data(), b"HELLO");
    }
}
