//! The OpenCL-like command-queue shim.
//!
//! The paper (§3.3) wraps CUDA behind "a shim layer that resembles the
//! OpenCL API" so other accelerators can slot in. This module is that shim
//! for the simulated device: commands are enqueued onto a stream and
//! executed in order; data movement and kernel execution happen
//! *functionally* at enqueue-processing time while their *completion times*
//! come from the [`Timeline`] model. A completion callback carries the
//! modeled completion time back to the caller — the equivalent of
//! `cudaStreamAddCallback` without its documented cross-queue
//! synchronization pitfall the paper complains about.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use nba_sim::cost::GpuCostModel;
use nba_sim::Time;

use crate::mem::{DeviceBuffer, DeviceMemory, MemError};
use crate::timeline::{TaskTiming, Timeline, TimelineStats};

/// A kernel: reads the staged input block, writes the output block.
///
/// `items` tells the kernel how many data-parallel items the input holds.
/// Kernels are plain host closures — the simulation executes them on the
/// engine thread; only their *timing* is device-modeled.
pub type KernelFn = dyn Fn(&[u8], &mut [u8], usize);

/// One simulated accelerator device.
pub struct Gpu {
    /// Marketing name, for diagnostics.
    pub name: String,
    mem: DeviceMemory,
    timeline: Timeline,
}

impl Gpu {
    /// Creates a device with the given timing model, memory capacity, and
    /// stream pool size.
    pub fn new(name: &str, model: GpuCostModel, mem_capacity: usize, streams: u32) -> Gpu {
        Gpu {
            name: name.to_owned(),
            mem: DeviceMemory::new(mem_capacity),
            timeline: Timeline::new(model, streams),
        }
    }

    /// A GTX 680-shaped device (2 GB, 16 streams), the paper's accelerator.
    pub fn gtx680(model: GpuCostModel) -> Gpu {
        Gpu::new("GTX 680", model, 2 << 30, 16)
    }

    /// Allocates a device buffer.
    pub fn alloc(&mut self, len: usize) -> Result<DeviceBuffer, MemError> {
        self.mem.alloc(len)
    }

    /// Frees a device buffer.
    pub fn free(&mut self, buf: DeviceBuffer) -> Result<(), MemError> {
        self.mem.free(buf)
    }

    /// Runs one full offload task: copy `input` in, run `kernel`, copy the
    /// output back into `output`.
    ///
    /// Functionally everything happens now; temporally the returned
    /// [`TaskTiming`] says when each stage completes on the device,
    /// respecting engine and stream serialization from earlier tasks.
    #[allow(clippy::too_many_arguments)]
    pub fn run_task(
        &mut self,
        now: Time,
        input: &[u8],
        items: usize,
        lane_ns: f64,
        output: &mut [u8],
        kernel: &KernelFn,
    ) -> Result<TaskTiming, MemError> {
        let in_buf = self.mem.alloc(input.len())?;
        let out_buf = match self.mem.alloc(output.len()) {
            Ok(b) => b,
            Err(e) => {
                // Do not leak the input buffer on failure.
                let _ = self.mem.free(in_buf);
                return Err(e);
            }
        };
        self.mem.write(&in_buf, 0, input)?;
        let ran = {
            let (i, o) = self.mem.in_out(&in_buf, &out_buf)?;
            catch_unwind(AssertUnwindSafe(|| kernel(i, o, items)))
        };
        if let Err(panic) = ran {
            // The device thread contains a panicking kernel and keeps
            // using this device: its buffers must not leak.
            let _ = (self.mem.free(in_buf), self.mem.free(out_buf));
            resume_unwind(panic);
        }
        self.mem.read(&out_buf, 0, output)?;
        let stream = self.timeline.best_stream();
        let timing = self
            .timeline
            .submit(now, stream, input.len(), lane_ns, output.len());
        self.mem.free(in_buf)?;
        self.mem.free(out_buf)?;
        Ok(timing)
    }

    /// Schedules timing for a task whose data already lives on the device
    /// (datablock reuse between offloadable elements skips the H2D copy).
    pub fn run_resident_task(&mut self, now: Time, lane_ns: f64, d2h_bytes: usize) -> TaskTiming {
        let stream = self.timeline.best_stream();
        self.timeline.submit(now, stream, 0, lane_ns, d2h_bytes)
    }

    /// Charges an attempt that never completed (injected timeout or a dead
    /// device): the input copy of `h2d_bytes` still burned the H2D engine,
    /// but nothing came back. Returns when the doomed copy landed.
    pub fn abort_task(&mut self, now: Time, h2d_bytes: usize) -> Time {
        let stream = self.timeline.best_stream();
        self.timeline.submit_aborted(now, stream, h2d_bytes)
    }

    /// Device utilization counters.
    pub fn stats(&self) -> TimelineStats {
        self.timeline.stats()
    }

    /// Bytes of device memory currently allocated.
    pub fn mem_used(&self) -> usize {
        self.mem.used()
    }

    /// When the compute engine frees up (backpressure signal).
    pub fn kernel_free_at(&self) -> Time {
        self.timeline.kernel_free_at()
    }

    /// When the busiest engine (copies included) frees up.
    pub fn free_at(&self) -> Time {
        self.timeline.free_at()
    }
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("name", &self.name)
            .field("mem_used", &self.mem.used())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GpuCostModel {
        GpuCostModel {
            kernel_launch: Time::from_us(10),
            parallel_lanes: 32,
            copy_latency: Time::from_us(5),
            h2d_bytes_per_sec: 1e9,
            d2h_bytes_per_sec: 1e9,
        }
    }

    #[test]
    fn task_transforms_data_and_reports_timing() {
        let mut gpu = Gpu::new("test", model(), 1 << 20, 4);
        let input: Vec<u8> = (0..64).collect();
        let mut output = vec![0u8; 64];
        let t = gpu
            .run_task(Time::ZERO, &input, 64, 640.0, &mut output, &|i, o, n| {
                for k in 0..n {
                    o[k] = i[k].wrapping_add(1);
                }
            })
            .unwrap();
        assert!(output.iter().enumerate().all(|(k, &v)| v == k as u8 + 1));
        assert!(t.d2h_done > t.kernel_done && t.kernel_done > t.h2d_done);
        assert_eq!(gpu.stats().tasks, 1);
        // Buffers were freed.
        assert_eq!(gpu.mem_used(), 0);
    }

    #[test]
    fn oom_task_fails_cleanly() {
        let mut gpu = Gpu::new("tiny", model(), 96, 1);
        let input = vec![0u8; 64];
        let mut output = vec![0u8; 64];
        let err = gpu
            .run_task(Time::ZERO, &input, 1, 1.0, &mut output, &|_, _, _| {})
            .unwrap_err();
        assert_eq!(err, MemError::OutOfMemory);
        // The input buffer must not leak.
        assert_eq!(gpu.mem_used(), 0);
    }

    #[test]
    fn a_panicking_kernel_frees_its_buffers() {
        let mut gpu = Gpu::new("test", model(), 1 << 20, 4);
        let (input, mut output) = (vec![0u8; 64], vec![0u8; 64]);
        let run = || gpu.run_task(Time::ZERO, &input, 1, 1.0, &mut output, &|_, _, _| panic!());
        assert!(catch_unwind(AssertUnwindSafe(run)).is_err());
        assert_eq!(gpu.mem_used(), 0);
        assert_eq!(gpu.stats().tasks, 0, "nothing was submitted");
    }

    #[test]
    fn resident_task_skips_h2d() {
        let mut gpu = Gpu::new("test", model(), 1 << 20, 4);
        let t = gpu.run_resident_task(Time::ZERO, 3200.0, 64);
        // No H2D copy: the "copy" completes after only the fixed latency of
        // a zero-byte transfer.
        assert_eq!(t.h2d_done, Time::from_us(5));
        assert_eq!(gpu.stats().h2d_bytes, 0);
    }

    #[test]
    fn consecutive_tasks_pipeline_across_streams() {
        let mut gpu = Gpu::new("test", model(), 1 << 20, 8);
        let input = vec![0u8; 1000];
        let mut out = vec![0u8; 1000];
        let t1 = gpu
            .run_task(Time::ZERO, &input, 1, 100_000.0, &mut out, &|_, _, _| {})
            .unwrap();
        let t2 = gpu
            .run_task(Time::ZERO, &input, 1, 100_000.0, &mut out, &|_, _, _| {})
            .unwrap();
        // Kernel-bound pipeline: completions spaced by one kernel duration.
        let kernel_dur = Time::from_us(10) + Time::from_ps((100_000.0 / 32.0 * 1000.0) as u64);
        assert!(t2.kernel_done - t1.kernel_done <= kernel_dur + Time::from_ns(1));
    }
}
