//! The device's temporal model: three pipelined engines.
//!
//! A real discrete GPU overlaps host-to-device DMA, kernel execution, and
//! device-to-host DMA of *different* streams while each engine serializes its
//! own queue. The paper leans on this ("multiplexed command queues to exploit
//! pipelining opportunities in data copies and kernel execution"), and the
//! crossover between CPU and GPU in the evaluation depends on it: without
//! copy/compute overlap the GPU path would be copy-bound everywhere.
//!
//! [`Timeline::submit`] schedules one offload round trip (H2D → kernel →
//! D2H) and returns its stage completion times. Back-to-back submissions
//! pipeline exactly as the engine model allows.

use nba_sim::cost::GpuCostModel;
use nba_sim::Time;

/// Identifies a stream (command queue). Operations in one stream serialize
/// even when the engines are free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub u32);

/// Completion times of one offload task's stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskTiming {
    /// When the input copy lands in device memory.
    pub h2d_done: Time,
    /// When the kernel finishes.
    pub kernel_done: Time,
    /// When the output copy lands back in host memory (task completion).
    pub d2h_done: Time,
}

/// Utilization counters of a device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelineStats {
    /// Tasks completed.
    pub tasks: u64,
    /// Task attempts that never completed (timed out or hit a dead
    /// device); their H2D copy still occupied the copy engine.
    pub failed_tasks: u64,
    /// Bytes copied host-to-device.
    pub h2d_bytes: u64,
    /// Bytes copied device-to-host.
    pub d2h_bytes: u64,
    /// Accumulated busy time of the copy engines.
    pub copy_busy: Time,
    /// Accumulated busy time of the compute engine.
    pub kernel_busy: Time,
}

impl TimelineStats {
    /// Counters accumulated since `earlier` (an older snapshot of the same
    /// timeline); saturating so stale snapshots cannot panic.
    pub fn delta(&self, earlier: &TimelineStats) -> TimelineStats {
        TimelineStats {
            tasks: self.tasks.saturating_sub(earlier.tasks),
            failed_tasks: self.failed_tasks.saturating_sub(earlier.failed_tasks),
            h2d_bytes: self.h2d_bytes.saturating_sub(earlier.h2d_bytes),
            d2h_bytes: self.d2h_bytes.saturating_sub(earlier.d2h_bytes),
            copy_busy: self.copy_busy.saturating_sub(earlier.copy_busy),
            kernel_busy: self.kernel_busy.saturating_sub(earlier.kernel_busy),
        }
    }

    /// Fraction of `window` the compute engine was busy. Can exceed 1.0:
    /// busy time is booked at submission, so a burst of deep-queued kernels
    /// may outrun the wall window it was submitted in.
    pub fn kernel_busy_fraction(&self, window: Time) -> f64 {
        let w = window.as_secs_f64();
        if w <= 0.0 {
            0.0
        } else {
            self.kernel_busy.as_secs_f64() / w
        }
    }
}

/// The three-engine device timeline.
#[derive(Debug, Clone)]
pub struct Timeline {
    model: GpuCostModel,
    h2d_free_at: Time,
    kernel_free_at: Time,
    d2h_free_at: Time,
    stream_free_at: Vec<Time>,
    stats: TimelineStats,
}

impl Timeline {
    /// Creates a timeline with `streams` command queues.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is zero.
    pub fn new(model: GpuCostModel, streams: u32) -> Timeline {
        assert!(streams > 0, "a device needs at least one stream");
        Timeline {
            model,
            h2d_free_at: Time::ZERO,
            kernel_free_at: Time::ZERO,
            d2h_free_at: Time::ZERO,
            stream_free_at: vec![Time::ZERO; streams as usize],
            stats: TimelineStats::default(),
        }
    }

    /// The stream that will be free earliest (device threads round-robin
    /// over the pool; picking the earliest-free is equivalent and simpler).
    pub fn best_stream(&self) -> StreamId {
        let (idx, _) = self
            .stream_free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("at least one stream");
        StreamId(idx as u32)
    }

    /// Schedules a full offload round trip submitted at `now` on `stream`.
    ///
    /// `h2d_bytes`/`d2h_bytes` size the DMA transfers; `lane_ns` is the
    /// total single-lane kernel work (see [`GpuCostModel::kernel_time`]).
    ///
    /// # Panics
    ///
    /// Panics if the stream id is out of range.
    pub fn submit(
        &mut self,
        now: Time,
        stream: StreamId,
        h2d_bytes: usize,
        lane_ns: f64,
        d2h_bytes: usize,
    ) -> TaskTiming {
        let s = &mut self.stream_free_at[stream.0 as usize];
        let start = now.max(*s);

        let h2d_dur = self.model.h2d_time(h2d_bytes);
        let h2d_start = start.max(self.h2d_free_at);
        let h2d_done = h2d_start + h2d_dur;
        self.h2d_free_at = h2d_done;

        let kernel_dur = self.model.kernel_time(lane_ns);
        let kernel_start = h2d_done.max(self.kernel_free_at);
        let kernel_done = kernel_start + kernel_dur;
        self.kernel_free_at = kernel_done;

        let d2h_dur = self.model.d2h_time(d2h_bytes);
        let d2h_start = kernel_done.max(self.d2h_free_at);
        let d2h_done = d2h_start + d2h_dur;
        self.d2h_free_at = d2h_done;

        *s = d2h_done;

        self.stats.tasks += 1;
        self.stats.h2d_bytes += h2d_bytes as u64;
        self.stats.d2h_bytes += d2h_bytes as u64;
        self.stats.copy_busy += h2d_dur + d2h_dur;
        self.stats.kernel_busy += kernel_dur;

        TaskTiming {
            h2d_done,
            kernel_done,
            d2h_done,
        }
    }

    /// Charges an *aborted* task attempt submitted at `now` on `stream`:
    /// the input copy occupied the H2D engine (and the stream), but no
    /// kernel completion or D2H copy ever happened — the fault model of a
    /// timed-out or dead-device submission. Returns when the copy landed.
    pub fn submit_aborted(&mut self, now: Time, stream: StreamId, h2d_bytes: usize) -> Time {
        let s = &mut self.stream_free_at[stream.0 as usize];
        let start = now.max(*s);
        let h2d_dur = self.model.h2d_time(h2d_bytes);
        let h2d_start = start.max(self.h2d_free_at);
        let h2d_done = h2d_start + h2d_dur;
        self.h2d_free_at = h2d_done;
        *s = h2d_done;
        self.stats.failed_tasks += 1;
        self.stats.h2d_bytes += h2d_bytes as u64;
        self.stats.copy_busy += h2d_dur;
        h2d_done
    }

    /// A copy of the utilization counters.
    pub fn stats(&self) -> TimelineStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GpuCostModel {
        GpuCostModel {
            kernel_launch: Time::from_us(10),
            parallel_lanes: 10,
            copy_latency: Time::from_us(5),
            h2d_bytes_per_sec: 1e9,
            d2h_bytes_per_sec: 1e9,
        }
    }

    #[test]
    fn single_task_timing_adds_up() {
        let mut tl = Timeline::new(model(), 4);
        // 1000 bytes @ 1 GB/s = 1 us + 5 us latency = 6 us per copy.
        // Kernel: 10 us launch + 1000 lane-ns / 10 lanes = 10.1 us.
        let t = tl.submit(Time::ZERO, StreamId(0), 1000, 1000.0, 1000);
        assert_eq!(t.h2d_done, Time::from_ns(6_000));
        assert_eq!(t.kernel_done, Time::from_ns(6_000 + 10_100));
        assert_eq!(t.d2h_done, Time::from_ns(6_000 + 10_100 + 6_000));
    }

    #[test]
    fn different_streams_pipeline() {
        let mut tl = Timeline::new(model(), 2);
        let a = tl.submit(Time::ZERO, StreamId(0), 1000, 1000.0, 1000);
        let b = tl.submit(Time::ZERO, StreamId(1), 1000, 1000.0, 1000);
        // Task B's H2D starts as soon as A's H2D finishes, well before A
        // completes: pipelining shortens the pair below 2x a single task.
        assert!(b.d2h_done < a.d2h_done * 2);
        // But B's kernel cannot start before A's kernel is done.
        assert!(b.kernel_done >= a.kernel_done + Time::from_us(10));
    }

    #[test]
    fn same_stream_serializes() {
        let mut tl = Timeline::new(model(), 1);
        let a = tl.submit(Time::ZERO, StreamId(0), 1000, 1000.0, 1000);
        let b = tl.submit(Time::ZERO, StreamId(0), 1000, 1000.0, 1000);
        // The second task's copy cannot begin before the first fully
        // completes (stream order).
        assert!(b.h2d_done >= a.d2h_done + Time::from_us(6));
    }

    #[test]
    fn throughput_is_bottleneck_stage_rate() {
        // With heavy kernels, steady-state spacing between completions
        // approaches the kernel duration.
        let mut tl = Timeline::new(model(), 8);
        let mut last = Time::ZERO;
        let mut gaps = Vec::new();
        for _ in 0..32 {
            let s = tl.best_stream();
            let t = tl.submit(Time::ZERO, s, 100, 100_000.0, 100);
            if last != Time::ZERO {
                gaps.push(t.kernel_done - last);
            }
            last = t.kernel_done;
        }
        let kernel_dur = Time::from_us(10) + Time::from_us(10);
        for g in &gaps[4..] {
            assert_eq!(*g, kernel_dur);
        }
    }

    #[test]
    fn best_stream_rotates_under_load() {
        let mut tl = Timeline::new(model(), 3);
        let s0 = tl.best_stream();
        tl.submit(Time::ZERO, s0, 10, 10.0, 10);
        let s1 = tl.best_stream();
        assert_ne!(s0, s1);
    }

    #[test]
    fn stats_delta_and_busy_fraction() {
        let mut tl = Timeline::new(model(), 1);
        tl.submit(Time::ZERO, StreamId(0), 500, 100.0, 700);
        let a = tl.stats();
        tl.submit(Time::from_ms(1), StreamId(0), 500, 100.0, 700);
        let b = tl.stats();
        let d = b.delta(&a);
        assert_eq!(d.tasks, 1);
        assert_eq!(d.h2d_bytes, 500);
        assert_eq!(d.kernel_busy, b.kernel_busy - a.kernel_busy);
        // One ~10.01 us kernel over a 1 ms window ~ 1 %.
        let f = d.kernel_busy_fraction(Time::from_ms(1));
        assert!(f > 0.0 && f < 0.05, "fraction = {f}");
        // Stale (reversed) snapshots saturate instead of panicking.
        let z = a.delta(&b);
        assert_eq!(z.tasks, 0);
        assert_eq!(z.kernel_busy, Time::ZERO);
        assert_eq!(
            TimelineStats::default().kernel_busy_fraction(Time::ZERO),
            0.0
        );
    }

    #[test]
    fn aborted_task_charges_only_the_h2d_engine() {
        let mut tl = Timeline::new(model(), 2);
        let done = tl.submit_aborted(Time::ZERO, StreamId(0), 1000);
        // 1000 bytes @ 1 GB/s = 1 us + 5 us latency.
        assert_eq!(done, Time::from_ns(6_000));
        let s = tl.stats();
        assert_eq!(s.failed_tasks, 1);
        assert_eq!(s.tasks, 0);
        assert_eq!(s.h2d_bytes, 1000);
        assert_eq!(s.d2h_bytes, 0);
        assert_eq!(s.kernel_busy, Time::ZERO);
        // The aborted copy still delays the next task's H2D stage.
        let t = tl.submit(Time::ZERO, StreamId(1), 1000, 1000.0, 1000);
        assert_eq!(t.h2d_done, Time::from_ns(12_000));
    }

    #[test]
    fn stats_accumulate() {
        let mut tl = Timeline::new(model(), 1);
        tl.submit(Time::ZERO, StreamId(0), 500, 100.0, 700);
        tl.submit(Time::from_ms(1), StreamId(0), 500, 100.0, 700);
        let s = tl.stats();
        assert_eq!(s.tasks, 2);
        assert_eq!(s.h2d_bytes, 1000);
        assert_eq!(s.d2h_bytes, 1400);
        assert!(s.kernel_busy > Time::ZERO);
    }
}
