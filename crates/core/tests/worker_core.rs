//! `runtime::worker::WorkerCore` driven through a recording `Transport` —
//! no threads, no engine: the worker step both runtimes share.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use nba_core::batch::{anno, Anno, PacketBatch, PacketResult};
use nba_core::element::{
    ComputeMode, DbInput, DbOutput, ElemCtx, Element, ElementKind, KernelIo, OffloadSpec,
    Postprocess,
};
use nba_core::fault::{FaultPlan, FaultStats, WorkerKill};
use nba_core::graph::{ElementGraph, GraphBuilder};
use nba_core::nls::NodeLocalStorage;
use nba_core::offload::{CompletedTask, OffloadTask};
use nba_core::runtime::worker::{wire_bits, Drill, Transport, WorkerCore, WorkerEnv};
use nba_core::stats::{Counters, SystemInspector};
use nba_core::supervise::WorkerHealth;
use nba_io::Packet;
use nba_sim::{CostModel, GpuProfile, Time};

/// Tags every batch for the device, like the load-balance element at `w = 1`.
struct ToDevice;

impl Element for ToDevice {
    fn class_name(&self) -> &'static str {
        "ToDevice"
    }
    fn kind(&self) -> ElementKind {
        ElementKind::PerBatch
    }
    fn process_batch(&mut self, _: &mut ElemCtx<'_>, batch: &mut PacketBatch) {
        batch.banno_mut().set(anno::LB_DEVICE, 1);
    }
}

/// Offloadable: inverts the frame's last byte on either processor. Panics
/// on a frame starting with 0xFF (the poison-batch case).
struct Invert;

impl Element for Invert {
    fn class_name(&self) -> &'static str {
        "Invert"
    }
    fn process(&mut self, _: &mut ElemCtx<'_>, pkt: &mut Packet, _: &mut Anno) -> PacketResult {
        assert_ne!(pkt.data()[0], 0xFF, "poison packet");
        let last = pkt.len() - 1;
        pkt.data_mut()[last] ^= 0xFF;
        PacketResult::Out(0)
    }
    fn offload(&self) -> Option<OffloadSpec> {
        Some(OffloadSpec {
            input: DbInput::WholePacket { offset: 0 },
            output: DbOutput::InPlace { extra: 0 },
            gpu: GpuProfile::default(),
            kernel: Arc::new(|_: KernelIo<'_>| {}),
            heavy: false,
            postprocess: Postprocess::WriteBack,
        })
    }
}

fn graph() -> ElementGraph {
    let mut b = GraphBuilder::new();
    let tag = b.add(Box::new(ToDevice));
    let inv = b.add(Box::new(Invert));
    b.connect(tag, 0, inv);
    b.build().expect("graph")
}

struct Rig {
    core: WorkerCore,
    counters: Arc<Counters>,
    fstats: Arc<FaultStats>,
    health: Arc<Vec<WorkerHealth>>,
}

fn rig(plan: Option<&FaultPlan>) -> Rig {
    let counters = Arc::new(Counters::default());
    let fstats = Arc::new(FaultStats::default());
    let health = Arc::new(vec![WorkerHealth::new()]);
    let env = WorkerEnv {
        nls: NodeLocalStorage::new(),
        inspector: SystemInspector::new(vec![counters.clone()]),
        cost: CostModel::paper_default(),
        compute: ComputeMode::Full,
        fstats: fstats.clone(),
        health: health.clone(),
        capture: true,
        flight: None,
        homes: Vec::new(),
    };
    Rig {
        core: WorkerCore::new(0, graph(), env, plan),
        counters,
        fstats,
        health,
    }
}

fn batch(n: u8, first_byte: u8) -> PacketBatch {
    let mut b = PacketBatch::with_capacity(usize::from(n));
    for i in 0..n {
        b.push(Packet::from_bytes(&[first_byte, i, 0x0F]));
    }
    b
}

/// Records everything the core hands to its transport.
#[derive(Default)]
struct Recording {
    /// `false` models a full command queue: every offload is handed back.
    accept: bool,
    sent: Vec<Vec<u8>>,
    offloaded: Vec<OffloadTask>,
    cycles: u64,
}

impl Transport for Recording {
    fn transmit(&mut self, burst: &[(Packet, Anno)]) -> (u64, u64) {
        self.sent
            .extend(burst.iter().map(|(p, _)| p.data().to_vec()));
        let bits = burst.iter().map(|(p, a)| wire_bits(p, a)).sum();
        (burst.len() as u64, bits)
    }
    fn offload(&mut self, task: OffloadTask) -> Result<(), OffloadTask> {
        if !self.accept {
            return Err(task);
        }
        self.offloaded.push(task);
        Ok(())
    }
    fn charge(&mut self, cycles: u64) {
        self.cycles += cycles;
    }
}

#[test]
fn a_full_offload_queue_runs_the_cpu_path_inline_and_conserves_packets() {
    let mut r = rig(None);
    let mut tp = Recording::default();
    r.core.on_batch(Time::ZERO, batch(8, 0), 0, &[], &mut tp);

    assert!(tp.offloaded.is_empty());
    assert_eq!(tp.sent.len(), 8, "the handed-back batch was lost");
    assert!(tp.sent.iter().all(|f| f[2] == 0xF0), "CPU path did not run");
    let c = r.counters.snapshot();
    assert_eq!((c.rx_packets, c.tx_packets, c.dropped), (8, 8, 0));
    assert_eq!(c.offloaded_batches, 1, "the attempt still counts");
    let f = r.fstats.snapshot();
    assert_eq!((f.fell_back_batches, f.fell_back_packets), (1, 8));
    assert_eq!(r.health[0].progress.load(Ordering::Relaxed), 8);
    assert!(tp.cycles > 0, "modelled work was not charged");
    let (_, capture) = r.core.take_yield();
    assert_eq!(capture.len(), 8, "every transmitted packet is captured");
}

#[test]
fn completions_resume_past_the_element_or_fall_back_through_it() {
    let mut r = rig(None);
    let mut tp = Recording {
        accept: true,
        ..Recording::default()
    };
    r.core.on_batch(Time::ZERO, batch(4, 0), 0, &[], &mut tp);
    r.core.on_batch(Time::ZERO, batch(4, 0), 0, &[], &mut tp);
    assert!(tp.sent.is_empty(), "suspended batches must not transmit");
    assert_eq!(tp.offloaded.len(), 2);

    let mut complete = |task: OffloadTask, fallback: bool, tp: &mut Recording| {
        let done = CompletedTask {
            node: task.node,
            worker: task.worker,
            batch: task.batch,
            done_at: Time::ZERO,
            fallback,
        };
        r.core.on_completion(Time::from_us(1), done, tp);
    };
    // The device processed the first (the test kernel is a no-op, so the
    // bytes come back untouched and resume skips the CPU path)...
    let processed = tp.offloaded.remove(0);
    complete(processed, false, &mut tp);
    assert!(tp.sent.iter().all(|f| f[2] == 0x0F));
    // ...and handed the second back unprocessed: the CPU path runs.
    let unprocessed = tp.offloaded.remove(0);
    complete(unprocessed, true, &mut tp);
    assert_eq!(tp.sent.len(), 8);
    assert!(tp.sent[4..].iter().all(|f| f[2] == 0xF0));
    assert_eq!(r.counters.snapshot().tx_packets, 8);
}

#[test]
fn a_poison_batch_is_contained_and_counted() {
    let mut r = rig(None);
    let mut tp = Recording::default();
    r.core.on_batch(Time::ZERO, batch(3, 0xFF), 0, &[], &mut tp);
    r.core.on_batch(Time::ZERO, batch(2, 0), 0, &[], &mut tp);
    assert_eq!(tp.sent.len(), 2, "the worker did not survive the panic");
    let c = r.counters.snapshot();
    assert_eq!((c.rx_packets, c.tx_packets, c.dropped), (5, 2, 3));
    let f = r.fstats.snapshot();
    assert_eq!((f.panics_contained, f.dropped_packets), (1, 3));
}

#[test]
fn the_kill_drill_fires_after_the_batch_that_crossed_the_threshold() {
    let plan = FaultPlan {
        worker_kill: vec![WorkerKill {
            worker: 0,
            at_packet: 5,
        }],
        ..FaultPlan::default()
    };
    let mut r = rig(Some(&plan));
    let mut tp = Recording::default();
    assert_eq!(r.core.drill(), None);
    r.core.on_batch(Time::ZERO, batch(8, 0), 0, &[], &mut tp);
    assert_eq!(tp.sent.len(), 8, "the crossing batch is fully processed");
    assert!(r.health[0].alive.load(Ordering::Acquire));
    assert_eq!(r.core.drill(), Some(Drill::Kill));
    assert!(
        !r.health[0].alive.load(Ordering::Acquire),
        "no crash signal"
    );
}
