//! `nba-gpu`: the accelerator substrate standing in for NVIDIA CUDA + GTX 680.
//!
//! NBA offloads computation to discrete GPUs through device threads and
//! command queues. This crate models such a device:
//!
//! * [`KernelFn`] — an offload kernel. Kernels are Rust closures run on the
//!   host over the staged datablock, so GPU-path output is bit-identical to
//!   the CPU path; only their *timing* is device-modelled,
//! * [`timeline::Timeline`] — the temporal model: three pipelined engines
//!   (H2D DMA, compute, D2H DMA) plus per-stream ordering, parameterized by
//!   the calibrated [`nba_sim::GpuCostModel`],
//! * [`fault::FaultInjector`] — seeded, typed fault injection (timeouts,
//!   transient errors, corrupted output, device death) so the framework's
//!   degradation ladder is testable and bit-reproducible.

#![forbid(unsafe_code)]

pub mod fault;
pub mod timeline;

pub use fault::{FaultInjector, FaultKind, FaultPlan};
pub use timeline::{StreamId, TaskTiming, Timeline, TimelineStats};

/// A kernel: reads the staged input block, writes the output block.
///
/// `items` tells the kernel how many data-parallel items the input holds.
/// Kernels are plain host closures — the device thread executes them; only
/// their *timing* is device-modelled.
pub type KernelFn = dyn Fn(&[u8], &mut [u8], usize);
