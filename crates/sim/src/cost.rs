//! The calibrated cost model.
//!
//! Every action the framework simulates — element dispatch, batch allocation,
//! RX/TX bursts, offload queue synchronization, PCIe copies, kernel launches —
//! charges virtual time according to the constants here. The constants are
//! calibrated (see `EXPERIMENTS.md`) so that the reproduced figures land near
//! the EuroSys'15 paper's testbed numbers: dual 2.6 GHz Sandy Bridge Xeons,
//! 8x10 GbE, 2x GTX 680.
//!
//! CPU-side costs are expressed in **cycles**; device-side costs in
//! nanoseconds, because the accelerator model is bandwidth/latency based
//! rather than cycle-accurate.

use crate::time::Time;

/// Per-packet CPU compute cost of an element: `fixed + per_byte * len`.
///
/// This is the load an element puts on the worker core *in addition to* the
/// framework's own dispatch overheads.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuProfile {
    /// Cycles charged for every packet regardless of size.
    pub fixed_cycles: u64,
    /// Cycles charged per payload byte the element touches.
    pub cycles_per_byte: f64,
}

impl CpuProfile {
    /// A profile with only a fixed per-packet cost.
    pub const fn fixed(fixed_cycles: u64) -> CpuProfile {
        CpuProfile {
            fixed_cycles,
            cycles_per_byte: 0.0,
        }
    }

    /// Cycles charged for one packet of `len` payload bytes.
    pub fn cycles(&self, len: usize) -> u64 {
        self.fixed_cycles + (self.cycles_per_byte * len as f64) as u64
    }
}

/// Per-item device compute cost of an offloaded kernel.
///
/// The device divides aggregate work across its parallel lanes; see
/// [`GpuCostModel::kernel_time`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GpuProfile {
    /// Nanoseconds of single-lane work per item regardless of size.
    pub fixed_ns: f64,
    /// Nanoseconds of single-lane work per byte of item payload.
    pub ns_per_byte: f64,
}

impl GpuProfile {
    /// Single-lane nanoseconds for one item of `len` bytes.
    pub fn item_ns(&self, len: usize) -> f64 {
        self.fixed_ns + self.ns_per_byte * len as f64
    }
}

/// Timing model of one accelerator (GPU) device.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuCostModel {
    /// Fixed kernel launch overhead (driver + queue + scheduling), per launch.
    pub kernel_launch: Time,
    /// Number of items the device effectively processes in parallel.
    ///
    /// This folds SM count, warp efficiency, and memory-level parallelism
    /// into one effective width (the GTX 680 has 1536 CUDA cores; effective
    /// parallel speedup for irregular packet workloads is far lower).
    pub parallel_lanes: u32,
    /// Fixed per-DMA-transaction latency (descriptor setup + PCIe round trip).
    pub copy_latency: Time,
    /// Effective host-to-device copy bandwidth, bytes per second.
    pub h2d_bytes_per_sec: f64,
    /// Effective device-to-host copy bandwidth, bytes per second.
    pub d2h_bytes_per_sec: f64,
}

impl GpuCostModel {
    /// Wall time of a kernel over `items` with the given per-item lane times.
    ///
    /// `total_lane_ns` is the sum over items of [`GpuProfile::item_ns`]; the
    /// device spreads it across `parallel_lanes`, and pays the launch
    /// overhead once.
    pub fn kernel_time(&self, total_lane_ns: f64) -> Time {
        let ns = total_lane_ns / self.parallel_lanes as f64;
        self.kernel_launch + Time::from_ps((ns * 1_000.0).round() as u64)
    }

    /// Wall time of a host-to-device copy of `bytes`.
    pub fn h2d_time(&self, bytes: usize) -> Time {
        self.copy_time(bytes, self.h2d_bytes_per_sec)
    }

    /// Wall time of a device-to-host copy of `bytes`.
    pub fn d2h_time(&self, bytes: usize) -> Time {
        self.copy_time(bytes, self.d2h_bytes_per_sec)
    }

    fn copy_time(&self, bytes: usize, bw: f64) -> Time {
        let secs = bytes as f64 / bw;
        self.copy_latency + Time::from_secs_f64(secs)
    }
}

/// All framework-level calibrated constants.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Worker core clock in GHz (paper: Xeon E5-2670, 2.6 GHz).
    pub cpu_ghz: f64,

    // --- Modular pipeline overheads (cycles) ---
    /// Per element invocation per batch: virtual dispatch, context setup.
    pub element_call: u64,
    /// Per packet inside a per-packet element's iteration loop.
    pub per_packet_dispatch: u64,
    /// Allocating a packet-batch object in the IO loop (per-core mempool
    /// cache hit: cheap).
    pub batch_alloc: u64,
    /// Releasing a batch at the pipeline end (cache return: cheap).
    pub batch_free: u64,
    /// Allocating a batch mid-pipeline for a split (shared mempool path +
    /// metadata initialization; the Figure 1 "memory management" cost).
    pub split_batch_alloc: u64,
    /// Releasing a batch object torn down by a split.
    pub split_batch_free: u64,
    /// Copying one packet slot (pointer + result + annotations) into another
    /// batch during a split.
    pub split_copy_slot: u64,
    /// Masking one packet slot out of a reused batch (branch prediction).
    pub mask_slot: u64,
    /// Per-packet result scan at multi-output elements (the framework must
    /// inspect every packet's chosen edge before reorganizing batches).
    pub route_scan_per_packet: u64,
    /// Baseline cost of one IO-loop iteration (scheduling, queue checks).
    pub sched_iteration: u64,

    // --- Packet IO (cycles) ---
    /// Fixed cost of one RX burst (PCIe doorbell, descriptor ring scan).
    pub rx_burst_fixed: u64,
    /// Per packet received in a burst (descriptor + prefetch + mbuf setup).
    pub rx_per_packet: u64,
    /// Fixed cost of one TX burst.
    pub tx_burst_fixed: u64,
    /// Per packet transmitted in a burst.
    pub tx_per_packet: u64,
    /// Per packet dropped (buffer release).
    pub drop_per_packet: u64,

    // --- Offloading path (cycles unless noted) ---
    /// Worker-side cost to enqueue an offload task (lock-free ring + wake).
    pub offload_enqueue: u64,
    /// Device-thread cost to dequeue one offload task.
    pub offload_dequeue: u64,
    /// Device-thread per-task driver interaction (stream query polling and
    /// the CUDA runtime's internal locking the paper profiles at 20-30 % of
    /// the device-thread core).
    pub device_task_fixed: u64,
    /// Device-thread per-packet preprocessing (gather into datablock).
    pub preproc_per_packet: u64,
    /// Device-thread per-byte preprocessing (payload copy into datablock).
    pub preproc_per_byte: f64,
    /// Device-thread per-packet postprocessing (scatter results back).
    pub postproc_per_packet: u64,
    /// Device-thread per-byte postprocessing.
    pub postproc_per_byte: f64,
    /// Worker-side cost to reap one completion callback.
    pub completion_check: u64,
    /// Load-balancer decision cost per batch.
    pub lb_decide: u64,

    /// Timing model of each attached accelerator.
    pub gpu: GpuCostModel,
}

impl CostModel {
    /// Converts a cycle count into virtual time at the modeled clock.
    pub fn cycles(&self, n: u64) -> Time {
        // 1 cycle = 1000 / GHz picoseconds.
        Time::from_ps(((n as f64) * 1_000.0 / self.cpu_ghz).round() as u64)
    }

    /// The paper-calibrated default model (see `EXPERIMENTS.md` §Calibration).
    pub fn paper_default() -> CostModel {
        CostModel {
            cpu_ghz: 2.6,
            element_call: 110,
            per_packet_dispatch: 18,
            batch_alloc: 450,
            batch_free: 300,
            split_batch_alloc: 3800,
            split_batch_free: 2100,
            split_copy_slot: 16,
            mask_slot: 3,
            route_scan_per_packet: 38,
            sched_iteration: 80,
            rx_burst_fixed: 220,
            rx_per_packet: 33,
            tx_burst_fixed: 180,
            tx_per_packet: 37,
            drop_per_packet: 25,
            offload_enqueue: 320,
            offload_dequeue: 260,
            device_task_fixed: 1900,
            preproc_per_packet: 35,
            preproc_per_byte: 0.22,
            postproc_per_packet: 30,
            postproc_per_byte: 0.22,
            completion_check: 140,
            lb_decide: 30,
            gpu: GpuCostModel {
                kernel_launch: Time::from_us(14),
                parallel_lanes: 1024,
                copy_latency: Time::from_us(9),
                h2d_bytes_per_sec: 2.4e9,
                d2h_bytes_per_sec: 2.2e9,
            },
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_convert_at_clock_rate() {
        let m = CostModel {
            cpu_ghz: 2.0,
            ..CostModel::paper_default()
        };
        // 2 GHz => 1 cycle = 500 ps.
        assert_eq!(m.cycles(1), Time::from_ps(500));
        assert_eq!(m.cycles(2_000_000_000), Time::from_secs(1));
    }

    #[test]
    fn cpu_profile_scales_with_length() {
        let p = CpuProfile {
            fixed_cycles: 100,
            cycles_per_byte: 2.0,
        };
        assert_eq!(p.cycles(0), 100);
        assert_eq!(p.cycles(64), 228);
        assert_eq!(CpuProfile::fixed(7).cycles(1500), 7);
    }

    #[test]
    fn kernel_time_amortizes_launch_over_lanes() {
        let gpu = CostModel::paper_default().gpu;
        let one = gpu.kernel_time(100.0);
        let many = gpu.kernel_time(100.0 * 2048.0);
        // 2048 items cost far less than 2048 separate launches.
        assert!(many < one * 2048);
        // But strictly more than one item.
        assert!(many > one);
    }

    #[test]
    fn copy_time_is_latency_plus_bandwidth() {
        let gpu = GpuCostModel {
            kernel_launch: Time::ZERO,
            parallel_lanes: 1,
            copy_latency: Time::from_us(10),
            h2d_bytes_per_sec: 1e9,
            d2h_bytes_per_sec: 2e9,
        };
        assert_eq!(
            gpu.h2d_time(1_000_000),
            Time::from_us(10) + Time::from_ms(1)
        );
        assert_eq!(
            gpu.d2h_time(1_000_000),
            Time::from_us(10) + Time::from_us(500)
        );
    }

    #[test]
    fn default_model_is_paper_model() {
        assert_eq!(CostModel::default(), CostModel::paper_default());
    }
}
