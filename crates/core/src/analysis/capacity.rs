//! Static queue-law checks (the `NBA05x` family).
//!
//! The live runtime's steering stage is a network of bounded queues: each
//! IO thread RSS-steers frames into one bounded SPSC RX ring per
//! worker, each worker feeds a bounded SPSC task ring toward the device
//! thread, and the device thread aggregates batches before launching a
//! kernel. Whether that network can deadlock or must drop under burst is
//! decidable from the configured depths alone, before any thread starts:
//!
//! * **Deadlock freedom** rests on two invariants: workers never block on
//!   a full task ring (they fall back to the CPU path inline), and the
//!   device thread can always assemble — or idle-flush — an aggregate.
//!   The latter is only *guaranteed* by the queue law
//!   `aggregate ≤ in-flight cap`: if a full aggregate needs more batches
//!   than the producers are ever allowed to have in flight, every offload
//!   depends on the idle-flush timeout path and the proof collapses
//!   (`NBA051`, an error).
//! * **Burst absorption**: RSS steering is flow-affine, so the worst-case
//!   burst sends an entire IO batch to a single worker while that worker
//!   is busy with a previous batch. A ring shallower than `2 × batch`
//!   cannot hold both, so it drops (NIC semantics) or stalls the IO
//!   thread (lossless drain mode) under a legal workload (`NBA050`).

use super::{Code, Diagnostic, LintReport};
use crate::runtime::live::{LiveConfig, MAX_OUTSTANDING, TASK_RING_DEPTH};
use crate::runtime::RuntimeConfig;

/// The queue shape of one run, extracted from a runtime configuration.
/// All fields are clamped the same way the runtimes clamp them, so the
/// model checks the depths that will actually be allocated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityModel {
    /// Worker threads (consumers of the RX rings).
    pub workers: usize,
    /// IO / steering threads (producers of the RX rings).
    pub io_threads: usize,
    /// Computation batch size (the burst quantum).
    pub batch: usize,
    /// Depth of each IO→worker SPSC RX ring.
    pub ring_depth: usize,
    /// Depth of each worker→device SPSC task ring.
    pub task_ring_depth: usize,
    /// Batches the device thread aggregates into one kernel launch.
    pub aggregate: usize,
    /// Total offloaded batches the producers may have in flight before
    /// they pause — the pool a full aggregate must fit into.
    pub inflight_cap: u64,
    /// Lossless ingress (a full RX ring blocks the IO thread instead of
    /// dropping); turns `NBA050` from a drop hazard into a stall hazard.
    pub lossless: bool,
}

impl CapacityModel {
    /// The queue shape of a live run, mirroring `live::run_core`'s
    /// allocation arithmetic (ring depth is raised to at least one batch;
    /// the in-flight cap is `workers × MAX_OUTSTANDING`).
    pub fn from_live(cfg: &LiveConfig) -> CapacityModel {
        let workers = cfg.workers.max(1);
        let batch = cfg.batch.max(1);
        CapacityModel {
            workers,
            io_threads: cfg.io_threads.max(1),
            batch,
            ring_depth: cfg.ring_capacity.max(batch),
            task_ring_depth: TASK_RING_DEPTH,
            aggregate: cfg.aggregate.max(1),
            inflight_cap: workers as u64 * MAX_OUTSTANDING,
            lossless: cfg.drain,
        }
    }

    /// The queue shape of a DES run: the RX descriptor ring plays the
    /// SPSC ring, the device backlog bound plays the in-flight cap, and
    /// the worker→device queue is unbounded in simulation.
    pub fn from_runtime(cfg: &RuntimeConfig) -> CapacityModel {
        CapacityModel {
            workers: cfg.workers_per_socket.max(1) as usize,
            io_threads: 1,
            batch: cfg.comp_batch.max(cfg.io_batch).max(1),
            ring_depth: cfg.rxq_depth.max(1),
            task_ring_depth: usize::MAX,
            aggregate: cfg.offload_aggregate.max(1),
            inflight_cap: cfg.device_backlog_batches as u64,
            lossless: false,
        }
    }
}

/// Runs the queue-law checks over one capacity model. Diagnostics carry
/// no node or source line — they indict the run configuration, not the
/// element graph.
pub fn check_capacity(model: &CapacityModel) -> LintReport {
    let mut report = LintReport::default();

    // NBA050: worst-case flow-affine burst bound. One batch may sit in
    // the ring while the IO thread steers the next full batch at the same
    // worker, so depth < 2 × batch loses (or stalls on) a legal burst.
    let burst = model.batch.saturating_mul(2);
    if model.ring_depth < burst {
        let consequence = if model.lossless {
            "stalls the IO thread (lossless drain mode)"
        } else {
            "drops packets at the ring (NIC semantics)"
        };
        report.diagnostics.push(Diagnostic::new(
            Code::RingUnderBurst,
            format!(
                "RX ring depth {} is below the worst-case flow-affine burst bound \
                 {burst} (2 x batch {}): a single-flow burst {consequence}",
                model.ring_depth, model.batch
            ),
            None,
            None,
        ));
    }

    // NBA051: the steering stage's deadlock-freedom proof. A full device
    // aggregate must fit within the batches the producers are allowed to
    // have in flight; otherwise a full aggregate can never assemble and
    // every offload round-trip hangs off the idle-flush timeout path.
    if model.aggregate as u64 > model.inflight_cap {
        report.diagnostics.push(Diagnostic::new(
            Code::SteeringDeadlock,
            format!(
                "device aggregation {} exceeds the producers' total in-flight cap \
                 {} ({} worker(s)): a full aggregate can never assemble, so the \
                 steering stage cannot be proven deadlock-free",
                model.aggregate, model.inflight_cap, model.workers
            ),
            None,
            None,
        ));
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Severity;

    fn live_defaults() -> CapacityModel {
        CapacityModel::from_live(&LiveConfig::default())
    }

    #[test]
    fn default_configs_are_clean() {
        assert!(check_capacity(&live_defaults()).is_clean());
        let des = CapacityModel::from_runtime(&RuntimeConfig::default());
        assert!(check_capacity(&des).is_clean());
    }

    #[test]
    fn shallow_ring_flags_nba050_once() {
        let m = CapacityModel {
            ring_depth: 64,
            batch: 64,
            ..live_defaults()
        };
        let r = check_capacity(&m);
        assert_eq!(r.with_code(Code::RingUnderBurst).count(), 1);
        assert_eq!(r.diagnostics[0].severity, Severity::Warn);
    }

    #[test]
    fn oversized_aggregate_flags_nba051_once() {
        let m = CapacityModel {
            aggregate: 1000,
            ..live_defaults()
        };
        let r = check_capacity(&m);
        assert_eq!(r.with_code(Code::SteeringDeadlock).count(), 1);
        assert!(r.has_errors());
    }

    #[test]
    fn zero_fields_clamp_instead_of_panicking() {
        let cfg = LiveConfig {
            workers: 0,
            batch: 0,
            io_threads: 0,
            ring_capacity: 0,
            aggregate: 0,
            ..LiveConfig::default()
        };
        let m = CapacityModel::from_live(&cfg);
        assert!(m.workers >= 1 && m.batch >= 1 && m.ring_depth >= 1);
        // Depth 1 < 2 x batch 1: still a (correct) burst warning.
        check_capacity(&m);
    }
}
