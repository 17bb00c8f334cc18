//! The worker step (§3.2), written once: reap a completion, run an RX
//! batch through the element graph, and apply what the traversal produced.
//!
//! Both runtimes drive a [`WorkerCore`]. Everything a worker *decides* is
//! here — when a kill/stall drill fires, resume-vs-fallback on a
//! completion, trace/span stamping, panic containment, TX accounting and
//! conformance capture, offload enqueue with the inline CPU fallback on a
//! full queue. A driver supplies only the *clock* (the `now` it passes in:
//! virtual [`Time`] in the DES, elapsed wall time in live) and a
//! [`Transport`] (simulated ports and queues, or SPSC rings and channels),
//! so a behaviour change to the worker step is an edit to this file and
//! DES↔live conformance holds by construction.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use nba_io::{Mempool, Packet, PacketBuf};
use nba_sim::{CostModel, Time};

use crate::batch::{anno, Anno, PacketBatch};
use crate::capture::TxRecord;
use crate::element::{ComputeMode, ElemCtx};
use crate::fault::{FaultPlan, FaultStats, WorkerKill, WorkerStall};
use crate::graph::{ElementGraph, NodeId, RunOutcome};
use crate::introspect::{FlightRecorder, FLIGHT_SAMPLE_EVERY};
use crate::nls::NodeLocalStorage;
use crate::offload::{CompletedTask, OffloadTask};
use crate::stats::{Counters, SystemInspector};
use crate::supervise::WorkerHealth;
use crate::telemetry::{merge_profiles, ElementProfile, TraceEvent, TraceEventKind};

/// How a worker's effects leave it. Generic (never `dyn`) so each runtime's
/// step monomorphises around its own transport.
pub trait Transport {
    /// Puts a TX burst on the wire; returns `(packets, bits)` actually sent
    /// (a full TX ring may refuse some), with bits from [`wire_bits`].
    fn transmit(&mut self, burst: &[(Packet, Anno)]) -> (u64, u64);

    /// Ships a suspended batch to the device thread. `Err` hands the task
    /// back when the command queue is full or the device is gone; the core
    /// then runs the CPU path inline so the batch is not lost (the same
    /// hand-back-by-value shape as the queues' own `push`).
    #[allow(clippy::result_large_err)]
    fn offload(&mut self, task: OffloadTask) -> Result<(), OffloadTask>;

    /// Charges modelled CPU cycles to the worker's core: advances the DES
    /// busy clock, a no-op on the wall clock.
    fn charge(&mut self, cycles: u64);
}

/// Input-normalized throughput bits of a transmitted packet: encapsulating
/// gateways report the traffic they absorbed, not the ESP-inflated output.
pub fn wire_bits(pkt: &Packet, anno_set: &Anno) -> u64 {
    match anno_set.get(anno::ORIG_BITS) {
        0 => pkt.frame_bits(),
        b => b,
    }
}

/// The run-wide handles every worker of one run shares.
#[derive(Clone)]
pub struct WorkerEnv {
    /// Node-local storage the elements read their shared tables from.
    pub nls: NodeLocalStorage,
    /// All workers' counters (element context + this worker's own shard).
    pub inspector: SystemInspector,
    /// Cost constants the graph traversal and the step charge.
    pub cost: CostModel,
    /// Whether heavy payload computation really executes.
    pub compute: ComputeMode,
    /// Shared fault accounting (contained panics, inline fallbacks).
    pub fstats: Arc<FaultStats>,
    /// Per-shard heartbeats the supervisor watches.
    pub health: Arc<Vec<WorkerHealth>>,
    /// Record a [`TxRecord`] per transmitted packet (conformance only).
    pub capture: bool,
    /// The live run's flight recorder, which takes this worker's panic
    /// dumps (`None` in the DES, whose workers take none). Events go to
    /// the ring the runtime attached the graph to
    /// ([`ElementGraph::attach_ring`]).
    pub flight: Option<Arc<FlightRecorder>>,
    /// The pools retired packets go home to, indexed by
    /// [`Packet::port_in`]: one per IO thread in live, each port's socket
    /// pool in the DES. A packet whose `port_in` names none is dropped as
    /// it is.
    pub homes: Vec<Mempool>,
}

/// The one exit of a retired packet: [`Homes::retire`] sends a whole burst
/// of packets home with one [`Mempool::free_bulk`] per home pool. The home
/// is the pool [`Packet::port_in`] names, so packets need no pool handle.
/// A packet that still carries one (the DES's per-packet path) goes home
/// the same way, and its handle just drops.
#[derive(Debug, Default)]
pub struct Homes {
    pools: Vec<Mempool>,
    /// Per-home scratch: one retired burst's buffers, sorted by home.
    bins: Vec<Vec<PacketBuf>>,
}

impl Homes {
    /// The exit routine over `pools`, home `h` being `pools[h]`.
    pub fn new(pools: Vec<Mempool>) -> Homes {
        let bins = pools.iter().map(|_| Vec::new()).collect();
        Homes { pools, bins }
    }

    /// Sends every packet's buffer home, one [`Mempool::free_bulk`] per
    /// home that has any. A packet whose `port_in` names no home is
    /// dropped as it is.
    pub fn retire(&mut self, pkts: impl IntoIterator<Item = Packet>) {
        for pkt in pkts {
            if let Some(bin) = self.bins.get_mut(usize::from(pkt.port_in)) {
                bin.push(pkt.into_buf());
            }
        }
        for (pool, bin) in self.pools.iter().zip(&mut self.bins) {
            if !bin.is_empty() {
                pool.free_bulk(bin.drain(..));
            }
        }
    }

    /// Counts the handle-free packets among `pkts` by home into `shares`:
    /// what a contained panic would lose.
    pub(crate) fn tally<'a>(
        &self,
        pkts: impl IntoIterator<Item = &'a Packet>,
        shares: &mut Vec<u64>,
    ) {
        shares.clear();
        shares.resize(self.pools.len(), 0);
        for pkt in pkts.into_iter().filter(|p| !p.has_pool()) {
            if let Some(n) = shares.get_mut(usize::from(pkt.port_in)) {
                *n += 1;
            }
        }
    }

    /// Writes off `shares[h]` buffers of home `h`, lost with their packets
    /// ([`Mempool::forget`]).
    pub(crate) fn forget(&self, shares: &[u64]) {
        for (pool, &n) in self.pools.iter().zip(shares) {
            pool.forget(n);
        }
    }

    /// Writes off the buffers of the handle-free packets among `pkts`,
    /// which are about to die with them.
    pub(crate) fn write_off<'a>(&self, pkts: impl IntoIterator<Item = &'a Packet>) {
        let mut shares = Vec::new();
        self.tally(pkts, &mut shares);
        self.forget(&shares);
    }
}

/// A fault-plan drill that fired at the top of a scheduling iteration, so
/// the batch that crossed the threshold was still fully processed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drill {
    /// Die here, un-drained: rings, queued batches, and outstanding offloads
    /// are left behind — exactly what a crashed thread leaves. The
    /// heartbeat's containment signal is already raised.
    Kill,
    /// Stop consuming for this many milliseconds; the worker stays alive.
    Stall(f64),
}

/// What a worker hands back at teardown: element profiles and its
/// conformance capture (its events are in its shard's ring).
pub type WorkerYield = (Vec<ElementProfile>, Vec<TxRecord>);

/// Folds every worker's yield into the run report's pieces: the profiles
/// merged by node and the concatenated captures.
pub fn merge_yields(
    yields: impl IntoIterator<Item = WorkerYield>,
) -> (Vec<ElementProfile>, Vec<TxRecord>) {
    let mut profiles = Vec::new();
    let mut capture = Vec::new();
    for (p, cap) in yields {
        profiles.push(p);
        capture.extend(cap);
    }
    (merge_profiles(profiles), capture)
}

/// One worker's pipeline replica plus the step logic around it.
pub struct WorkerCore {
    id: usize,
    graph: ElementGraph,
    env: WorkerEnv,
    counters: Arc<Counters>,
    kill: Option<WorkerKill>,
    stall: Option<WorkerStall>,
    /// Packets pulled from RX so far — the drills' trigger clock and the
    /// progress signal the heartbeat publishes.
    rx_pulled: u64,
    stalled_done: bool,
    /// Next batch trace id (only advances while tracing is enabled).
    trace_seq: u64,
    /// RX batches so far, the untraced ring's sampling clock.
    flight_seq: u64,
    capture: Option<Vec<TxRecord>>,
    /// The batch shell the last traversal retired, kept for the next RX
    /// burst ([`WorkerCore::rx_batch`]).
    spare: Option<PacketBatch>,
    homes: Homes,
    /// Scratch for the handle-free packets of a batch by home.
    shares: Vec<u64>,
}

impl WorkerCore {
    /// A worker around `graph`. `plan` schedules this worker's kill/stall
    /// drills; a respawned replacement passes `None`.
    pub fn new(
        id: usize,
        graph: ElementGraph,
        mut env: WorkerEnv,
        plan: Option<&FaultPlan>,
    ) -> WorkerCore {
        WorkerCore {
            homes: Homes::new(std::mem::take(&mut env.homes)),
            shares: Vec::new(),
            id,
            graph,
            counters: env.inspector.worker(id).clone(),
            kill: plan.and_then(|p| p.kill_for(id as u32)),
            stall: plan.and_then(|p| p.stall_for(id as u32)),
            rx_pulled: 0,
            stalled_done: false,
            trace_seq: 0,
            flight_seq: 0,
            capture: env.capture.then(Vec::new),
            spare: None,
            env,
        }
    }

    /// This worker's index (= RX queue id).
    pub fn id(&self) -> usize {
        self.id
    }

    /// This worker's heartbeat slot.
    pub fn heartbeat(&self) -> &WorkerHealth {
        &self.env.health[self.id]
    }

    /// An empty batch to fill from RX: the shell the previous traversal
    /// retired when there is one, so the steady state allocates no batch
    /// per burst.
    pub fn rx_batch(&mut self, capacity: usize) -> PacketBatch {
        self.spare
            .take()
            .unwrap_or_else(|| PacketBatch::with_capacity(capacity))
    }

    /// Hands back a batch shell for [`rx_batch`](Self::rx_batch) to reuse
    /// (an RX poll that came up empty, a traversal's retired batch).
    pub fn retire(&mut self, mut shell: PacketBatch) {
        shell.reset();
        self.spare = Some(shell);
    }

    /// Lets go of the home pools, first handing their idle buffers'
    /// memory back ([`Mempool::shrink`]): a finishing worker calls this
    /// before the core (and its graph replica) is dropped. Packets retired
    /// afterwards are dropped as they are.
    pub fn release_homes(&mut self) {
        self.homes.pools.iter().for_each(Mempool::shrink);
        self.homes = Homes::default();
    }

    /// The kill/stall drill check; call at the top of every iteration.
    pub fn drill(&mut self) -> Option<Drill> {
        if self.kill.is_some_and(|k| self.rx_pulled >= k.at_packet) {
            self.heartbeat().crash();
            return Some(Drill::Kill);
        }
        let s = self.stall.filter(|s| self.rx_pulled >= s.at_packet)?;
        if self.stalled_done {
            return None;
        }
        self.stalled_done = true;
        Some(Drill::Stall(s.millis))
    }

    /// Reaps one offload completion: resume past the offloadable element,
    /// or — when the device handed the batch back unprocessed — re-run the
    /// element's CPU path from the start of the (possibly fused) chain.
    /// The outcome may re-offload at the next offloadable element.
    pub fn on_completion<T: Transport>(&mut self, now: Time, mut done: CompletedTask, tp: &mut T) {
        let pkts = done.batch.len();
        self.heartbeat().advance(pkts as u64);
        tp.charge(self.env.cost.completion_check);
        // Completion opens a new span whose parent is the device's launch
        // span (the enqueue span on never-launched fallbacks) — the
        // cross-thread link the Chrome exporter renders.
        let parent = done.span();
        let span = self.graph.alloc_span();
        if span != 0 {
            done.batch.banno_mut().set(anno::SPAN_ID, span);
        }
        let batch_id = done.batch.banno().get(anno::TRACE_ID);
        let kind = if done.fallback {
            TraceEventKind::OffloadFallback
        } else {
            TraceEventKind::OffloadComplete
        };
        let ev = TraceEvent::point(now, self.id, batch_id, kind, pkts)
            .at_node(done.node.0)
            .spans(span, parent);
        self.graph.record(ev);
        let (node, batch) = (done.node, done.batch);
        let outcome = if done.fallback {
            self.run_cpu_path(now, span, node, batch)
        } else {
            let shares = self.shares_of(&batch);
            let outcome = self.contained(now, span, pkts, &shares, |g, ectx, cost, ctrs| {
                g.resume_offloaded(ectx, cost, ctrs, node, batch)
            });
            self.shares = shares;
            outcome
        };
        if let Some(o) = outcome {
            self.handle_outcome(now, o, batch_id, span, tp);
        }
    }

    /// Runs one RX batch from the graph entry. `parent` is the causal span
    /// the batch arrived under (the IO thread's steer span in live, 0 in
    /// the DES). `shares[h]` counts the batch's handle-free packets from
    /// home `h`, as the driver pulled them (empty when every packet carries
    /// its pool handle): what a contained panic writes off.
    pub fn on_batch<T: Transport>(
        &mut self,
        now: Time,
        mut batch: PacketBatch,
        parent: u64,
        shares: &[u64],
        tp: &mut T,
    ) {
        let pkts = batch.len();
        self.rx_pulled += pkts as u64;
        self.heartbeat().advance(pkts as u64);
        Counters::add(&self.counters.rx_packets, pkts as u64);
        Counters::add(&self.counters.batches, 1);
        tp.charge(self.env.cost.batch_alloc);
        let (mut batch_id, mut span) = (0, 0);
        let tracing = self.graph.trace_enabled();
        if tracing {
            // Stamp a unique id so the batch's lifecycle can be followed
            // through the trace (nothing on the processing path reads the
            // slot, so stamping cannot change behaviour) plus the batch's
            // root causal span.
            self.trace_seq += 1;
            batch_id = ((self.id as u64 + 1) << 40) | self.trace_seq;
            batch.banno_mut().set(anno::TRACE_ID, batch_id);
            span = self.graph.alloc_span();
            batch.banno_mut().set(anno::SPAN_ID, span);
        }
        self.flight_seq += 1;
        if tracing || self.flight_seq.is_multiple_of(FLIGHT_SAMPLE_EVERY) {
            let rx = TraceEvent::point(now, self.id, batch_id, TraceEventKind::Rx, pkts);
            self.graph.record(rx.spans(span, parent));
        }
        let outcome = self.contained(now, span, pkts, shares, |g, ectx, cost, ctrs| {
            g.run_batch(ectx, cost, ctrs, batch)
        });
        if let Some(o) = outcome {
            self.handle_outcome(now, o, batch_id, span, tp);
        }
    }

    /// Takes the teardown yield (profiles, capture), leaving the core
    /// empty-handed.
    pub fn take_yield(&mut self) -> WorkerYield {
        (
            self.graph.profiles(),
            self.capture.take().unwrap_or_default(),
        )
    }

    /// The handle-free packets of `batch` by home, for [`Self::contained`]
    /// (in the scratch vector, which the caller puts back).
    fn shares_of(&mut self, batch: &PacketBatch) -> Vec<u64> {
        let mut shares = std::mem::take(&mut self.shares);
        self.homes.tally(batch.packets(), &mut shares);
        shares
    }

    /// Runs `run` over the graph with panic containment: a poison batch is
    /// dropped and counted instead of taking the worker (and the whole
    /// run) down. Its packets die in the unwind, so their homes write off
    /// `shares` buffers.
    fn contained(
        &mut self,
        now: Time,
        span: u64,
        pkts: usize,
        shares: &[u64],
        run: impl FnOnce(&mut ElementGraph, &mut ElemCtx<'_>, &CostModel, &Counters) -> RunOutcome,
    ) -> Option<RunOutcome> {
        let mut ectx = ElemCtx {
            now,
            compute: self.env.compute,
            nls: &self.env.nls,
            worker: self.id,
            inspector: &self.env.inspector,
        };
        let (graph, cost, counters) = (&mut self.graph, &self.env.cost, &*self.counters);
        match catch_unwind(AssertUnwindSafe(|| run(graph, &mut ectx, cost, counters))) {
            Ok(outcome) => Some(outcome),
            Err(_) => {
                self.homes.forget(shares);
                let fs = &self.env.fstats;
                FaultStats::add(&fs.panics_contained, 1);
                FaultStats::add(&fs.dropped_batches, 1);
                FaultStats::add(&fs.dropped_packets, pkts as u64);
                Counters::add(&self.counters.dropped, pkts as u64);
                if let Some(f) = &self.env.flight {
                    f.dump(
                        "worker_panic",
                        Some(self.id as u32),
                        span,
                        now,
                        fs.snapshot(),
                    );
                }
                None
            }
        }
    }

    /// Re-enters the graph at offloadable `node` on the CPU: clears the
    /// stale device decision first, or the batch would suspend at `node`
    /// again and ping-pong against a broken device.
    fn run_cpu_path(
        &mut self,
        now: Time,
        span: u64,
        node: NodeId,
        mut batch: PacketBatch,
    ) -> Option<RunOutcome> {
        batch.banno_mut().set(anno::LB_DEVICE, 0);
        let shares = self.shares_of(&batch);
        let outcome = self.contained(now, span, batch.len(), &shares, |g, ectx, cost, ctrs| {
            g.run_from(ectx, cost, ctrs, node, batch)
        });
        self.shares = shares;
        outcome
    }

    /// Applies a traversal outcome: transmit what reached the pipeline
    /// exit, ship what suspended at an offloadable element.
    fn handle_outcome<T: Transport>(
        &mut self,
        now: Time,
        mut outcome: RunOutcome,
        batch_id: u64,
        span: u64,
        tp: &mut T,
    ) {
        if let Some(shell) = outcome.spent.take() {
            self.retire(shell);
        }
        // Charged before TX: packets hit the wire only after the core
        // spent the traversal's time, so TX (and therefore latency)
        // reflects pipeline depth.
        tp.charge(outcome.cycles);
        if !outcome.tx.is_empty() {
            if self.graph.trace_enabled() {
                let ev =
                    TraceEvent::point(now, self.id, batch_id, TraceEventKind::Tx, outcome.tx.len());
                self.graph.record(ev.spans(span, 0));
            }
            if let Some(cap) = &mut self.capture {
                // Record the verdict before any port-count wrapping or TX
                // queueing: semantics, not wire behavior.
                cap.extend(outcome.tx.iter().map(|(p, a)| TxRecord::capture(p, a)));
            }
            let (packets, bits) = tp.transmit(&outcome.tx);
            Counters::add(&self.counters.tx_packets, packets);
            Counters::add(&self.counters.tx_frame_bits, bits);
        }
        // The burst is on the wire and the drops are counted: every buffer
        // goes home together, one pool lock per home.
        let tx = outcome.tx.drain(..).map(|(pkt, _)| pkt);
        self.homes.retire(tx.chain(outcome.dropped.drain(..)));
        // The emptied vectors carry the next traversal's packets.
        self.graph.recycle(&mut outcome);
        for req in outcome.offloads {
            tp.charge(self.env.cost.offload_enqueue);
            Counters::add(&self.counters.offloaded_batches, 1);
            let task = OffloadTask {
                node: req.node,
                worker: self.id,
                batch: req.batch,
                enqueued_at: now,
            };
            // The graph recorded the enqueue when it suspended the batch.
            if let Err(task) = tp.offload(task) {
                let fs = &self.env.fstats;
                FaultStats::add(&fs.fell_back_batches, 1);
                FaultStats::add(&fs.fell_back_packets, task.batch.len() as u64);
                let enq_span = task.span();
                let enq_id = task.batch.banno().get(anno::TRACE_ID);
                let fb_span = self.graph.alloc_span();
                let fb = TraceEventKind::OffloadFallback;
                let ev = TraceEvent::point(now, self.id, enq_id, fb, task.batch.len());
                self.graph
                    .record(ev.at_node(task.node.0).spans(fb_span, enq_span));
                if let Some(o) = self.run_cpu_path(now, fb_span, task.node, task.batch) {
                    self.handle_outcome(now, o, enq_id, fb_span, tp);
                }
            }
        }
    }
}
