//! The element graph: batch traversal, the batch-split problem, and
//! batch-level branch prediction (§3.2).
//!
//! The graph traverses elements with whole batches. At a branch (an element
//! whose packets take different output edges) the framework must reorganize
//! batches. Two policies are implemented:
//!
//! * [`BranchPolicy::SplitAlways`] — allocate a fresh batch per output edge
//!   and release the input batch (the Figure 1 worst case),
//! * [`BranchPolicy::Predict`] — reuse the input batch for the *predicted*
//!   port (the one that carried the most packets last time) by masking out
//!   diverging packets, allocating new batches only for minority edges
//!   (the Figure 10 technique).
//!
//! Offloadable elements whose batch is tagged for an accelerator are
//! *suspended*: traversal returns them as [`OffloadRequest`]s, the runtime
//! ships them to a device thread, and [`ElementGraph::resume_offloaded`]
//! continues the pipeline after completion.

use std::sync::Arc;

use nba_sim::{CostModel, CpuProfile, Time};

use crate::batch::{anno, Anno, PacketBatch};
use crate::element::{ElemCtx, Element, ElementKind};
use crate::introspect::FlightRecorder;
use crate::stats::Counters;
use crate::telemetry::{ElementProfile, ProfileAcc, SpanAlloc, TraceEvent, TraceEventKind};

use nba_io::Packet;

/// Identifies a node in an [`ElementGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Where an output port leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutEdge {
    /// Another element.
    Node(NodeId),
    /// The end of the pipeline: the framework transmits via the packet's
    /// [`anno::IFACE_OUT`] annotation (§3.2 moves `ToOutput` into the
    /// framework).
    Exit,
    /// Not connected; packets taking this edge are dropped (used by
    /// configurations that discard invalid packets).
    Discard,
}

/// How batches are reorganized at branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchPolicy {
    /// Reuse the input batch for the predicted majority port.
    #[default]
    Predict,
    /// Always allocate new batches for every port (Figure 1 baseline).
    SplitAlways,
}

struct Node {
    element: Box<dyn Element>,
    outs: Vec<OutEdge>,
    /// The element's offloadability, cost kind and profile, read once at
    /// build time so a visit makes no trait call but the batch body.
    offloadable: bool,
    kind: ElementKind,
    profile: CpuProfile,
    /// The branch predictor: the port that carried the most packets at
    /// the last visit.
    predicted: u8,
}

impl Node {
    /// Modelled cycles of one visit by `batch`'s live packets, framework
    /// dispatch included.
    fn charge(&self, cost: &CostModel, batch: &PacketBatch) -> u64 {
        let (profile, dispatch) = (self.profile, cost.per_packet_dispatch);
        let body = match self.kind {
            ElementKind::PerBatch => profile.fixed_cycles,
            // Every packet costs the same: one multiply, no walk.
            ElementKind::PerPacket if profile.cycles_per_byte == 0.0 => {
                batch.len() as u64 * (dispatch + profile.fixed_cycles)
            }
            // Byte-priced: the profile truncates per packet, so each live
            // packet is charged at its own length.
            ElementKind::PerPacket => (batch.packets())
                .map(|pkt| dispatch + profile.cycles(pkt.len()))
                .sum(),
        };
        cost.element_call + body
    }
}

/// A batch suspended at an offloadable element, to be shipped to a device.
#[derive(Debug)]
pub struct OffloadRequest {
    /// The offloadable element's node.
    pub node: NodeId,
    /// The suspended batch.
    pub batch: PacketBatch,
}

/// What one traversal produced.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Packets that reached the pipeline end, ready for TX.
    pub tx: Vec<(Packet, Anno)>,
    /// Batches suspended for offloading.
    pub offloads: Vec<OffloadRequest>,
    /// Modeled CPU cycles consumed by elements + framework bookkeeping.
    pub cycles: u64,
    /// Packets dropped.
    pub drops: u64,
    /// The dropped packets themselves, in drop order: the worker sends
    /// their buffers home together with the TX burst's.
    pub dropped: Vec<Packet>,
    /// An emptied batch shell the traversal retired at the pipeline exit,
    /// handed back so the worker refills it from RX instead of allocating
    /// per burst.
    pub spent: Option<PacketBatch>,
}

/// A point trace event for `batch` at node `nid`, under the batch's
/// current causal span.
fn batch_event(
    ctx: &ElemCtx<'_>,
    nid: NodeId,
    batch: &PacketBatch,
    kind: TraceEventKind,
    packets: usize,
) -> TraceEvent {
    let id = batch.banno().get(anno::TRACE_ID);
    TraceEvent::point(ctx.now, ctx.worker, id, kind, packets)
        .at_node(nid.0)
        .spans(batch.banno().get(anno::SPAN_ID), 0)
}

/// A per-worker replica of the user's pipeline.
pub struct ElementGraph {
    nodes: Vec<Node>,
    entry: NodeId,
    policy: BranchPolicy,
    /// Per-node work accumulators (telemetry; always on, plain adds).
    profiles: Vec<ProfileAcc>,
    /// The run's flight recorder, whose ring for this graph's worker takes
    /// the graph's events (`None` until [`ElementGraph::attach_ring`]).
    flight: Option<Arc<FlightRecorder>>,
    /// Causal span-id allocator, shared by every replica of the run;
    /// `Some` exactly when tracing is on.
    spans: Option<SpanAlloc>,
    /// Busy-time source: cycle-derived virtual time (DES) or wall clock
    /// (live runtime).
    wall_profiling: bool,
    /// Traversal scratch, reused so that a visit allocates nothing: the
    /// worklist of pending (node, batch) pairs, per-port packet counts,
    /// and per-port split batches (both as long as the widest node).
    work: Vec<(NodeId, PacketBatch)>,
    counts: Vec<u64>,
    split: Vec<Option<PacketBatch>>,
    /// The TX and drop vectors the next traversal fills, handed back by
    /// the worker once their packets have left ([`ElementGraph::recycle`]).
    tx_spare: Vec<(Packet, Anno)>,
    dropped_spare: Vec<Packet>,
}

impl std::fmt::Debug for ElementGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.nodes.iter().map(|n| n.element.class_name()).collect();
        f.debug_struct("ElementGraph")
            .field("entry", &self.entry)
            .field("elements", &names)
            .field("policy", &self.policy)
            .finish()
    }
}

/// Builder for [`ElementGraph`].
pub struct GraphBuilder {
    nodes: Vec<Node>,
    entry: Option<NodeId>,
    policy: BranchPolicy,
}

/// Graph construction errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph has no entry node.
    NoEntry,
    /// An output port index is out of range for its element.
    BadPort {
        /// The node with the bad port.
        node: usize,
        /// The offending port.
        port: usize,
    },
    /// The graph is empty.
    Empty,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NoEntry => write!(f, "graph has no entry node"),
            GraphError::BadPort { node, port } => {
                write!(f, "node {node} has no output port {port}")
            }
            GraphError::Empty => write!(f, "graph has no nodes"),
        }
    }
}

impl std::error::Error for GraphError {}

impl Default for GraphBuilder {
    fn default() -> Self {
        GraphBuilder::new()
    }
}

impl GraphBuilder {
    /// Creates an empty builder with the default branch policy.
    pub fn new() -> GraphBuilder {
        GraphBuilder {
            nodes: Vec::new(),
            entry: None,
            policy: BranchPolicy::default(),
        }
    }

    /// Sets the branch policy.
    pub fn branch_policy(&mut self, policy: BranchPolicy) -> &mut Self {
        self.policy = policy;
        self
    }

    /// Adds an element; all its ports start as [`OutEdge::Exit`].
    pub fn add(&mut self, element: Box<dyn Element>) -> NodeId {
        self.nodes.push(Node {
            outs: vec![OutEdge::Exit; element.output_count().max(1)],
            offloadable: element.offload().is_some(),
            kind: element.kind(),
            profile: element.cpu_profile(),
            element,
            predicted: 0,
        });
        let id = NodeId(self.nodes.len() - 1);
        if self.entry.is_none() {
            self.entry = Some(id);
        }
        id
    }

    /// Connects `from`'s output `port` to `to`.
    pub fn connect(&mut self, from: NodeId, port: usize, to: NodeId) -> &mut Self {
        self.set_edge(from, port, OutEdge::Node(to))
    }

    /// Routes `from`'s output `port` to the pipeline exit.
    pub fn connect_exit(&mut self, from: NodeId, port: usize) -> &mut Self {
        self.set_edge(from, port, OutEdge::Exit)
    }

    /// Routes `from`'s output `port` to the drop sink.
    pub fn connect_discard(&mut self, from: NodeId, port: usize) -> &mut Self {
        self.set_edge(from, port, OutEdge::Discard)
    }

    fn set_edge(&mut self, from: NodeId, port: usize, edge: OutEdge) -> &mut Self {
        self.nodes[from.0].outs[port] = edge;
        self
    }

    /// Output-port count of an already-added element (the config assembler
    /// pre-checks connection arity so a bad port becomes a diagnostic, not
    /// a panic in [`GraphBuilder::connect`]).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn output_count_of(&self, node: NodeId) -> usize {
        self.nodes[node.0].element.output_count().max(1)
    }

    /// Overrides the entry node (defaults to the first added element).
    pub fn entry(&mut self, node: NodeId) -> &mut Self {
        self.entry = Some(node);
        self
    }

    /// Finalizes the graph.
    pub fn build(self) -> Result<ElementGraph, GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        let entry = self.entry.ok_or(GraphError::NoEntry)?;
        for (i, n) in self.nodes.iter().enumerate() {
            if n.outs.len() != n.element.output_count().max(1) {
                return Err(GraphError::BadPort {
                    node: i,
                    port: n.outs.len(),
                });
            }
        }
        let profiles = vec![ProfileAcc::default(); self.nodes.len()];
        let widest = self.nodes.iter().map(|n| n.outs.len()).max().unwrap_or(1);
        Ok(ElementGraph {
            nodes: self.nodes,
            entry,
            policy: self.policy,
            profiles,
            flight: None,
            spans: None,
            wall_profiling: false,
            work: Vec::new(),
            counts: vec![0; widest],
            split: (0..widest).map(|_| None).collect(),
            tx_spare: Vec::new(),
            dropped_spare: Vec::new(),
        })
    }
}

impl ElementGraph {
    /// The entry node.
    pub fn entry_node(&self) -> NodeId {
        self.entry
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the graph has no nodes (never after a successful build).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrows an element for inspection/mutation (tests, LB reconfig).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn element_mut(&mut self, id: NodeId) -> &mut dyn Element {
        &mut *self.nodes[id.0].element
    }

    /// Borrows an element immutably (the static verifier, reports).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn element(&self, id: NodeId) -> &dyn Element {
        &*self.nodes[id.0].element
    }

    /// The branch policy the graph was built with.
    pub fn branch_policy(&self) -> BranchPolicy {
        self.policy
    }

    /// Runs the static analyser over this graph: every pass of
    /// [`crate::analysis::analyze`] except the capacity laws, which need a
    /// run configuration. Graphs built from configuration text get source
    /// line spans via [`crate::config::build_graph_checked`]; this entry
    /// point reports node ids and element class names only.
    pub fn verify(&self) -> crate::analysis::LintReport {
        crate::analysis::analyze(self, None, None)
    }

    /// The edge out of `id`'s output `port`, if that port exists (used by
    /// the runtime to discover fusable offloadable chains).
    pub fn out_edge(&self, id: NodeId, port: usize) -> Option<OutEdge> {
        self.nodes.get(id.0).and_then(|n| n.outs.get(port)).copied()
    }

    /// Per-node work profiles accumulated so far (the whole run, warmup
    /// included). Busy time is cycle-derived virtual time unless
    /// [`ElementGraph::set_wall_profiling`] switched to the wall clock.
    /// GPU-resumed visits count batches/packets but no busy time — the
    /// device's share lives on the GPU timeline.
    pub fn profiles(&self) -> Vec<ElementProfile> {
        self.nodes
            .iter()
            .zip(&self.profiles)
            .enumerate()
            .map(|(i, (n, a))| ElementProfile {
                node: i,
                element: n.element.class_name(),
                batches: a.batches,
                packets: a.packets,
                drops: a.drops,
                cycles: a.cycles,
                busy: Time::from_ns(a.busy_ns),
                latency: a.service.clone(),
            })
            .collect()
    }

    /// Attaches the graph to its worker's ring in `flight`. The ring takes
    /// the graph's offload enqueues; `spans` (the run-wide allocator, so
    /// ids stay unique across replicas) turns tracing on, and with it the
    /// element, branch and drop events too.
    pub fn attach_ring(&mut self, flight: Arc<FlightRecorder>, spans: Option<SpanAlloc>) {
        self.flight = Some(flight);
        self.spans = spans;
    }

    /// Allocates the next causal span id, or 0 when tracing is off — the
    /// runtime's hook for stamping spans at RX/launch/completion without
    /// branching on telemetry state itself.
    pub fn alloc_span(&self) -> u64 {
        self.spans.as_ref().map_or(0, |s| s.next())
    }

    /// `true` while tracing is on.
    pub fn trace_enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Records `ev` into the attached ring (no-op when none is), so the
    /// worker's RX/TX/completion events land where the traversal's do.
    pub fn record(&self, ev: TraceEvent) {
        if let Some(f) = &self.flight {
            f.record(ev);
        }
    }

    /// Switches busy-time accounting from cycle-derived virtual time to
    /// the wall clock (the live runtime's view).
    pub fn set_wall_profiling(&mut self, on: bool) {
        self.wall_profiling = on;
    }

    /// Runs one batch from the entry node to completion/suspension.
    pub fn run_batch(
        &mut self,
        ctx: &mut ElemCtx<'_>,
        cost: &CostModel,
        counters: &Counters,
        batch: PacketBatch,
    ) -> RunOutcome {
        self.traverse(ctx, cost, counters, self.entry, batch, false)
    }

    /// Takes back an outcome's TX and drop vectors once their packets have
    /// left (any still there are dropped), so the next traversal moves its
    /// packets into them without allocating.
    pub fn recycle(&mut self, outcome: &mut RunOutcome) {
        let mut tx = std::mem::take(&mut outcome.tx);
        tx.clear();
        if tx.capacity() > self.tx_spare.capacity() {
            self.tx_spare = tx;
        }
        let mut dropped = std::mem::take(&mut outcome.dropped);
        dropped.clear();
        if dropped.capacity() > self.dropped_spare.capacity() {
            self.dropped_spare = dropped;
        }
    }

    /// Continues a batch that completed accelerator processing at `node`.
    pub fn resume_offloaded(
        &mut self,
        ctx: &mut ElemCtx<'_>,
        cost: &CostModel,
        counters: &Counters,
        node: NodeId,
        mut batch: PacketBatch,
    ) -> RunOutcome {
        // The element derives per-packet results from the scattered kernel
        // output (default: everything continues out of port 0).
        let live = batch.len() as u64;
        self.nodes[node.0].element.post_offload(ctx, &mut batch);
        // The visit counts toward the element's profile; its busy time does
        // not — the device's share is on the GPU timeline.
        let acc = &mut self.profiles[node.0];
        acc.batches += 1;
        acc.packets += live;
        self.traverse(ctx, cost, counters, node, batch, true)
    }

    /// Runs a batch through the graph *starting at* `node` — the
    /// fault-recovery entry: a batch whose device task failed re-enters at
    /// the same offloadable element so its CPU implementation (functionally
    /// identical to the kernel) processes the packets and the batch
    /// continues downstream as if the device had never been asked.
    ///
    /// The caller must clear [`anno::LB_DEVICE`] on the batch first, or it
    /// would suspend at `node` again and ping-pong against a broken device.
    pub fn run_from(
        &mut self,
        ctx: &mut ElemCtx<'_>,
        cost: &CostModel,
        counters: &Counters,
        node: NodeId,
        batch: PacketBatch,
    ) -> RunOutcome {
        self.traverse(ctx, cost, counters, node, batch, false)
    }

    /// The one traversal: visits `batch` at `at` (or, when `resumed`, routes
    /// it out of `at`, whose work a device already did) and then every
    /// batch that continues from it, depth first. A batch that continues on
    /// a single edge stays where it is and goes straight to the next visit;
    /// the parts of a split wait on the worklist.
    fn traverse(
        &mut self,
        ctx: &mut ElemCtx<'_>,
        cost: &CostModel,
        counters: &Counters,
        at: NodeId,
        mut batch: PacketBatch,
        resumed: bool,
    ) -> RunOutcome {
        let mut outcome = RunOutcome {
            tx: std::mem::take(&mut self.tx_spare),
            dropped: std::mem::take(&mut self.dropped_spare),
            ..RunOutcome::default()
        };
        // Taken, not borrowed, so that a panicking element (contained by
        // the worker) cannot leave batches behind for the next traversal.
        let mut work = std::mem::take(&mut self.work);
        let mut next = if resumed {
            self.route(ctx, cost, counters, at, &mut batch, &mut work, &mut outcome)
        } else {
            Some(at)
        };
        loop {
            let nid = match next {
                Some(nid) => nid,
                None => match work.pop() {
                    Some((nid, parked)) => {
                        batch = parked;
                        nid
                    }
                    None => break,
                },
            };
            next = self.visit(
                ctx,
                cost,
                counters,
                nid,
                &mut batch,
                &mut work,
                &mut outcome,
            );
        }
        self.work = work;
        outcome
    }

    /// One element visit: suspend the batch for a device, or charge the
    /// element, run its batch body, and route the results. Returns the node
    /// the batch continues at whole, if it does.
    #[allow(clippy::too_many_arguments)]
    fn visit(
        &mut self,
        ctx: &mut ElemCtx<'_>,
        cost: &CostModel,
        counters: &Counters,
        nid: NodeId,
        batch: &mut PacketBatch,
        work: &mut Vec<(NodeId, PacketBatch)>,
        outcome: &mut RunOutcome,
    ) -> Option<NodeId> {
        if batch.is_empty() {
            outcome.cycles += cost.batch_free;
            return None;
        }
        // Offload decision: batches tagged for a device suspend here.
        let node = &mut self.nodes[nid.0];
        if node.offloadable && batch.banno().get(anno::LB_DEVICE) > 0 {
            if let Some(f) = &self.flight {
                // The enqueue opens a child span of the batch's current
                // span (both 0 with tracing off); the batch carries it to
                // the device thread so the launch links back here.
                let parent = batch.banno().get(anno::SPAN_ID);
                let span = self.spans.as_ref().map_or(0, SpanAlloc::next);
                batch.banno_mut().set(anno::SPAN_ID, span);
                let enqueue = TraceEventKind::OffloadEnqueue;
                let ev = batch_event(ctx, nid, batch, enqueue, batch.len());
                f.record(ev.spans(span, parent));
            }
            let batch = std::mem::take(batch);
            outcome.offloads.push(OffloadRequest { node: nid, batch });
            return None;
        }

        let live = batch.len() as u64;
        // The clock is read once before and once after the batch body.
        let wall_start = self.wall_profiling.then(std::time::Instant::now);
        // The modelled cost is charged at the packets' lengths on entry;
        // the work itself is one call either way.
        let charged = node.charge(cost, batch);
        outcome.cycles += charged;
        if node.offloadable && node.kind == ElementKind::PerPacket {
            Counters::add(&counters.cpu_processed, live);
        }
        node.element.process_batch(ctx, batch);
        let acc = &mut self.profiles[nid.0];
        acc.batches += 1;
        acc.packets += live;
        acc.cycles += charged;
        let visit_ns = match wall_start {
            Some(t0) => t0.elapsed().as_nanos() as u64,
            None => cost.cycles(charged).as_ns(),
        };
        acc.busy_ns += visit_ns;
        acc.service.record_ns(visit_ns);
        if let (Some(tr), Some(_)) = (&self.flight, &self.spans) {
            tr.record(TraceEvent {
                dur: Time::from_ns(visit_ns),
                ..batch_event(ctx, nid, batch, TraceEventKind::Element, live as usize)
            });
        }
        self.route(ctx, cost, counters, nid, batch, work, outcome)
    }

    /// Applies per-packet results in one scan (drops leave, the rest are
    /// counted by port), then continues the batch: whole on a single edge,
    /// or reorganized at a real branch per the policy, its parts pushed
    /// onto the worklist. Returns the node the batch continues at whole, if
    /// it does.
    #[allow(clippy::too_many_arguments)]
    fn route(
        &mut self,
        ctx: &mut ElemCtx<'_>,
        cost: &CostModel,
        counters: &Counters,
        nid: NodeId,
        batch: &mut PacketBatch,
        work: &mut Vec<(NodeId, PacketBatch)>,
        outcome: &mut RunOutcome,
    ) -> Option<NodeId> {
        let node = &mut self.nodes[nid.0];
        let ports = node.outs.len();
        if ports > 1 {
            // Branches force a per-packet edge inspection pass.
            outcome.cycles += cost.route_scan_per_packet * batch.len() as u64;
        }

        // 1. Apply drops and count per-port populations.
        let counts = &mut self.counts[..ports];
        counts.fill(0);
        let drops = batch.settle(counts, &mut outcome.dropped);
        if drops > 0 {
            outcome.cycles += cost.drop_per_packet * drops;
            outcome.drops += drops;
            Counters::add(&counters.dropped, drops);
            self.profiles[nid.0].drops += drops;
            if let (Some(tr), Some(_)) = (&self.flight, &self.spans) {
                let drop = TraceEventKind::Drop;
                tr.record(batch_event(ctx, nid, batch, drop, drops as usize));
            }
        }
        let live = batch.len() as u64;
        if live == 0 {
            outcome.cycles += cost.batch_free;
            return None;
        }
        let first = counts.iter().position(|&c| c > 0).unwrap_or(0);
        if counts[first] == live {
            // No branch taken: the whole batch continues on one edge.
            node.predicted = first as u8;
            return continue_on(node.outs[first], batch, cost, counters, outcome);
        }

        // 2. A real branch: the results are read again, slot by slot, and
        // each packet leaving on a port other than the kept one moves into
        // that port's fresh batch.
        if let (Some(tr), Some(_)) = (&self.flight, &self.spans) {
            let branch = TraceEventKind::Branch;
            tr.record(batch_event(ctx, nid, batch, branch, batch.len()));
        }
        let last = (ports - 1) as u8;
        // Predict reuses the input batch for the predicted port, masking
        // the diverging slots; SplitAlways keeps nothing in it.
        let (kept, slot_cost) = match self.policy {
            BranchPolicy::Predict => {
                let kept = node.predicted.min(last);
                let diverged = live - counts[usize::from(kept)];
                if diverged > 0 {
                    if let (Some(tr), Some(_)) = (&self.flight, &self.spans) {
                        let miss = TraceEventKind::BranchMiss;
                        tr.record(batch_event(ctx, nid, batch, miss, diverged as usize));
                    }
                }
                (Some(kept), cost.split_copy_slot + cost.mask_slot)
            }
            BranchPolicy::SplitAlways => (None, cost.split_copy_slot),
        };
        let split = &mut self.split[..ports];
        let mut moved = 0;
        for (p, dest) in split.iter_mut().enumerate() {
            if counts[p] > 0 && kept != Some(p as u8) {
                outcome.cycles += cost.split_batch_alloc;
                Counters::add(&counters.split_allocs, 1);
                *dest = Some(PacketBatch::with_capacity(counts[p] as usize));
                moved += counts[p];
            }
        }
        for i in 0..batch.slot_count() {
            let Some(p) = batch.port_of(i, last).filter(|&p| kept != Some(p)) else {
                continue;
            };
            let (pkt, a) = batch.take(i).expect("a routed slot is live");
            let dest = split[usize::from(p)].as_mut();
            dest.expect("populated ports have a batch")
                .push_with_anno(pkt, a);
        }
        outcome.cycles += slot_cost * moved;
        node.predicted = argmax(counts);
        match kept {
            // The reused batch continues on the predicted edge first.
            Some(_) if batch.is_empty() => {
                // Complete misprediction: nothing stayed.
                outcome.cycles += cost.batch_free;
            }
            Some(kept) => {
                let edge = node.outs[usize::from(kept)];
                if let Some(next) = continue_on(edge, batch, cost, counters, outcome) {
                    work.push((next, std::mem::take(batch)));
                }
            }
            None => outcome.cycles += cost.split_batch_free,
        }
        for (p, dest) in split.iter_mut().enumerate() {
            if let Some(mut b) = dest.take() {
                if let Some(next) = continue_on(node.outs[p], &mut b, cost, counters, outcome) {
                    work.push((next, b));
                }
            }
        }
        None
    }
}

/// Sends `batch` along `edge`: on to a node (returned; the batch stays
/// with the caller), into the TX vector, or into the drop sink.
fn continue_on(
    edge: OutEdge,
    batch: &mut PacketBatch,
    cost: &CostModel,
    counters: &Counters,
    outcome: &mut RunOutcome,
) -> Option<NodeId> {
    match edge {
        OutEdge::Node(next) => return Some(next),
        OutEdge::Exit => {
            batch.drain_into(&mut outcome.tx);
            outcome.cycles += cost.batch_free;
            if outcome.spent.is_none() {
                outcome.spent = Some(std::mem::take(batch));
            }
        }
        OutEdge::Discard => {
            let n = batch.len() as u64;
            outcome.drops += n;
            // Discard edges are element drops as far as accounting is
            // concerned: without this the packets vanish from the
            // rx = tx + dropped conservation ledger.
            Counters::add(&counters.dropped, n);
            outcome.cycles += cost.drop_per_packet * n + cost.batch_free;
            batch.drain_packets_into(&mut outcome.dropped);
        }
    }
    None
}

fn argmax(counts: &[u64]) -> u8 {
    let mut best = 0usize;
    for (i, &c) in counts.iter().enumerate() {
        if c > counts[best] {
            best = i;
        }
    }
    best as u8
}

/// The traversal as it was before visits stopped allocating: a fresh
/// worklist per batch, a collected index list and a per-packet port vector
/// per visit, the element's profile, kind and offload spec asked per
/// visit, and every packet walked to charge its cost. Kept only as the
/// oracle the traversal is checked against (tracing and wall-clock
/// profiling are left out: the comparison runs without them).
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::batch::PacketResult;

    impl ElementGraph {
        pub(super) fn oracle_run_batch(
            &mut self,
            ctx: &mut ElemCtx<'_>,
            cost: &CostModel,
            counters: &Counters,
            batch: PacketBatch,
        ) -> RunOutcome {
            let mut outcome = RunOutcome::default();
            let work = vec![(self.entry, batch)];
            self.oracle_traverse(ctx, cost, counters, work, &mut outcome);
            outcome
        }

        pub(super) fn oracle_resume_offloaded(
            &mut self,
            ctx: &mut ElemCtx<'_>,
            cost: &CostModel,
            counters: &Counters,
            node: NodeId,
            mut batch: PacketBatch,
        ) -> RunOutcome {
            let mut outcome = RunOutcome::default();
            let live = batch.len() as u64;
            self.nodes[node.0].element.post_offload(ctx, &mut batch);
            let acc = &mut self.profiles[node.0];
            acc.batches += 1;
            acc.packets += live;
            let mut work = Vec::new();
            self.oracle_route(counters, cost, node, batch, &mut work, &mut outcome);
            self.oracle_traverse(ctx, cost, counters, work, &mut outcome);
            outcome
        }

        fn oracle_traverse(
            &mut self,
            ctx: &mut ElemCtx<'_>,
            cost: &CostModel,
            counters: &Counters,
            mut work: Vec<(NodeId, PacketBatch)>,
            outcome: &mut RunOutcome,
        ) {
            while let Some((nid, mut batch)) = work.pop() {
                if batch.is_empty() {
                    outcome.cycles += cost.batch_free;
                    continue;
                }
                let node = &mut self.nodes[nid.0];
                let is_offloadable = node.element.offload().is_some();
                if is_offloadable && batch.banno().get(anno::LB_DEVICE) > 0 {
                    outcome.offloads.push(OffloadRequest { node: nid, batch });
                    continue;
                }
                let live = batch.len() as u64;
                let cycles_before = outcome.cycles;
                outcome.cycles += cost.element_call;
                let profile = node.element.cpu_profile();
                match node.element.kind() {
                    ElementKind::PerBatch => outcome.cycles += profile.fixed_cycles,
                    ElementKind::PerPacket => {
                        if is_offloadable {
                            Counters::add(&counters.cpu_processed, live);
                        }
                        for pkt in batch.live_indices().filter_map(|i| batch.packet(i)) {
                            outcome.cycles += cost.per_packet_dispatch + profile.cycles(pkt.len());
                        }
                    }
                }
                node.element.process_batch(ctx, &mut batch);
                let charged = outcome.cycles - cycles_before;
                let acc = &mut self.profiles[nid.0];
                acc.batches += 1;
                acc.packets += live;
                acc.cycles += charged;
                let visit_ns = cost.cycles(charged).as_ns();
                acc.busy_ns += visit_ns;
                acc.service.record_ns(visit_ns);
                self.oracle_route(counters, cost, nid, batch, &mut work, outcome);
            }
        }

        fn oracle_route(
            &mut self,
            counters: &Counters,
            cost: &CostModel,
            nid: NodeId,
            mut batch: PacketBatch,
            work: &mut Vec<(NodeId, PacketBatch)>,
            outcome: &mut RunOutcome,
        ) {
            let node = &mut self.nodes[nid.0];
            let ports = node.outs.len();
            if ports > 1 {
                outcome.cycles += cost.route_scan_per_packet * batch.len() as u64;
            }
            let mut counts = vec![0u64; ports];
            let mut port_of: Vec<(usize, u8)> = Vec::new();
            let mut node_drops = 0u64;
            for i in batch.live_indices().collect::<Vec<_>>() {
                match batch.result(i) {
                    PacketResult::Drop => {
                        outcome.dropped.extend(batch.take(i).map(|(pkt, _)| pkt));
                        outcome.cycles += cost.drop_per_packet;
                        outcome.drops += 1;
                        node_drops += 1;
                        Counters::add(&counters.dropped, 1);
                    }
                    PacketResult::Out(p) => {
                        let p = usize::from(p).min(ports - 1) as u8;
                        counts[usize::from(p)] += 1;
                        port_of.push((i, p));
                    }
                }
            }
            self.profiles[nid.0].drops += node_drops;
            if batch.is_empty() {
                outcome.cycles += cost.batch_free;
                return;
            }
            let populated = counts.iter().filter(|&&c| c > 0).count();
            if populated <= 1 {
                let port = counts.iter().position(|&c| c > 0).unwrap_or(0);
                node.predicted = port as u8;
                oracle_continue_on(node.outs[port], batch, work, cost, counters, outcome);
                return;
            }
            match self.policy {
                BranchPolicy::SplitAlways => {
                    let mut per_port: Vec<PacketBatch> = (0..ports)
                        .map(|p| {
                            if counts[p] > 0 {
                                outcome.cycles += cost.split_batch_alloc;
                                Counters::add(&counters.split_allocs, 1);
                                PacketBatch::with_capacity(counts[p] as usize)
                            } else {
                                PacketBatch::default()
                            }
                        })
                        .collect();
                    for &(i, p) in &port_of {
                        if let Some((pkt, a)) = batch.take(i) {
                            per_port[usize::from(p)].push_with_anno(pkt, a);
                            outcome.cycles += cost.split_copy_slot;
                        }
                    }
                    outcome.cycles += cost.split_batch_free;
                    node.predicted = argmax(&counts);
                    let edges = node.outs.clone();
                    for (p, b) in per_port.into_iter().enumerate() {
                        if !b.is_empty() {
                            oracle_continue_on(edges[p], b, work, cost, counters, outcome);
                        }
                    }
                }
                BranchPolicy::Predict => {
                    let predicted = node.predicted.min((ports - 1) as u8);
                    let mut per_port: Vec<Option<PacketBatch>> = (0..ports).map(|_| None).collect();
                    for &(i, p) in &port_of {
                        if p == predicted {
                            continue;
                        }
                        let dest = &mut per_port[usize::from(p)];
                        let dest = dest.get_or_insert_with(|| {
                            outcome.cycles += cost.split_batch_alloc;
                            Counters::add(&counters.split_allocs, 1);
                            PacketBatch::with_capacity(counts[usize::from(p)] as usize)
                        });
                        if let Some((pkt, a)) = batch.take(i) {
                            dest.push_with_anno(pkt, a);
                            outcome.cycles += cost.split_copy_slot + cost.mask_slot;
                        }
                    }
                    node.predicted = argmax(&counts);
                    let edges = node.outs.clone();
                    if batch.is_empty() {
                        outcome.cycles += cost.batch_free;
                    } else {
                        let edge = edges[usize::from(predicted)];
                        oracle_continue_on(edge, batch, work, cost, counters, outcome);
                    }
                    for (p, b) in per_port.into_iter().enumerate() {
                        if let Some(b) = b {
                            if !b.is_empty() {
                                oracle_continue_on(edges[p], b, work, cost, counters, outcome);
                            }
                        }
                    }
                }
            }
        }
    }

    fn oracle_continue_on(
        edge: OutEdge,
        mut batch: PacketBatch,
        work: &mut Vec<(NodeId, PacketBatch)>,
        cost: &CostModel,
        counters: &Counters,
        outcome: &mut RunOutcome,
    ) {
        match edge {
            OutEdge::Node(next) => work.push((next, batch)),
            OutEdge::Exit => {
                let mut drained = Vec::new();
                batch.drain_into(&mut drained);
                outcome.tx.extend(drained);
                outcome.cycles += cost.batch_free;
                outcome.spent.get_or_insert(batch);
            }
            OutEdge::Discard => {
                let n = batch.len() as u64;
                outcome.drops += n;
                Counters::add(&counters.dropped, n);
                outcome.cycles += cost.drop_per_packet * n + cost.batch_free;
                batch.drain_packets_into(&mut outcome.dropped);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::PacketResult;
    use crate::element::{ComputeMode, DbInput, DbOutput, OffloadSpec, Postprocess};
    use crate::nls::NodeLocalStorage;
    use crate::stats::SystemInspector;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    use std::sync::Arc;

    /// Forwards every packet to a fixed port.
    struct ToPort(u8, usize);

    impl Element for ToPort {
        fn class_name(&self) -> &'static str {
            "ToPort"
        }
        fn output_count(&self) -> usize {
            self.1
        }
        fn process(&mut self, _: &mut ElemCtx<'_>, _: &mut Packet, _: &mut Anno) -> PacketResult {
            PacketResult::Out(self.0)
        }
    }

    /// Sends packet `i` to port `i % n`.
    struct RoundRobin {
        n: usize,
        i: u8,
    }

    impl Element for RoundRobin {
        fn class_name(&self) -> &'static str {
            "RoundRobin"
        }
        fn output_count(&self) -> usize {
            self.n
        }
        fn process(&mut self, _: &mut ElemCtx<'_>, _: &mut Packet, _: &mut Anno) -> PacketResult {
            let p = self.i % self.n as u8;
            self.i = self.i.wrapping_add(1);
            PacketResult::Out(p)
        }
    }

    /// Drops every packet.
    struct DropAll;

    impl Element for DropAll {
        fn class_name(&self) -> &'static str {
            "DropAll"
        }
        fn process(&mut self, _: &mut ElemCtx<'_>, _: &mut Packet, _: &mut Anno) -> PacketResult {
            PacketResult::Drop
        }
    }

    fn harness() -> (NodeLocalStorage, SystemInspector, Arc<Counters>) {
        let counters = Arc::new(Counters::default());
        let insp = SystemInspector::new(vec![counters.clone()]);
        (NodeLocalStorage::new(), insp, counters)
    }

    fn batch_of(n: usize) -> PacketBatch {
        let mut b = PacketBatch::with_capacity(n);
        for _ in 0..n {
            b.push(Packet::from_bytes(&[0u8; 64]));
        }
        b
    }

    fn run(
        g: &mut ElementGraph,
        counters: &Counters,
        nls: &NodeLocalStorage,
        insp: &SystemInspector,
        batch: PacketBatch,
    ) -> RunOutcome {
        let mut ctx = ElemCtx {
            now: Time::ZERO,
            compute: ComputeMode::Full,
            nls,
            worker: 0,
            inspector: insp,
        };
        g.run_batch(&mut ctx, &CostModel::paper_default(), counters, batch)
    }

    #[test]
    fn linear_pipeline_reaches_exit() {
        let mut gb = GraphBuilder::new();
        let a = gb.add(Box::new(ToPort(0, 1)));
        let b = gb.add(Box::new(ToPort(0, 1)));
        gb.connect(a, 0, b);
        gb.connect_exit(b, 0);
        let mut g = gb.build().unwrap();
        let (nls, insp, c) = harness();
        let out = run(&mut g, &c, &nls, &insp, batch_of(8));
        assert_eq!(out.tx.len(), 8);
        assert_eq!(out.drops, 0);
        assert!(out.offloads.is_empty());
        assert!(out.cycles > 0);
    }

    #[test]
    fn drops_are_counted_and_freed() {
        // An element's drops and a discard edge's: every dropped packet
        // comes back in the outcome, and a batch of handle-free pool
        // buffers leaves its pool whole once those packets go home.
        let mut by_element = GraphBuilder::new();
        by_element.add(Box::new(DropAll));
        let mut by_edge = GraphBuilder::new();
        let a = by_edge.add(Box::new(ToPort(1, 2)));
        by_edge.connect_exit(a, 0);
        by_edge.connect_discard(a, 1);
        let (nls, insp, c) = harness();
        let pool = nba_io::Mempool::new(8);
        for (i, gb) in [by_element, by_edge].into_iter().enumerate() {
            let mut g = gb.build().unwrap();
            let mut batch = PacketBatch::with_capacity(5);
            for _ in 0..5 {
                batch.push(Packet::from_buf(pool.alloc().unwrap()));
            }
            let mut out = run(&mut g, &c, &nls, &insp, batch);
            assert_eq!(out.tx.len(), 0);
            assert_eq!((out.drops, out.dropped.len()), (5, 5));
            assert_eq!(Counters::get(&c.dropped), 5 * (i as u64 + 1));
            assert_eq!(pool.outstanding(), 5, "nothing went home by itself");
            pool.free_bulk(out.dropped.drain(..).map(Packet::into_buf));
            assert_eq!(pool.outstanding(), 0);
        }
        assert_eq!(pool.stats().frees, 10);
    }

    #[test]
    fn single_edge_branch_does_not_allocate() {
        let mut gb = GraphBuilder::new();
        let a = gb.add(Box::new(ToPort(1, 2)));
        let b = gb.add(Box::new(ToPort(0, 1)));
        gb.connect_discard(a, 0);
        gb.connect(a, 1, b);
        gb.connect_exit(b, 0);
        let mut g = gb.build().unwrap();
        let (nls, insp, c) = harness();
        let out = run(&mut g, &c, &nls, &insp, batch_of(8));
        assert_eq!(out.tx.len(), 8);
        assert_eq!(Counters::get(&c.split_allocs), 0);
    }

    #[test]
    fn split_always_allocates_per_populated_port() {
        let mut gb = GraphBuilder::new();
        gb.branch_policy(BranchPolicy::SplitAlways);
        let rr = gb.add(Box::new(RoundRobin { n: 2, i: 0 }));
        let l = gb.add(Box::new(ToPort(0, 1)));
        let r = gb.add(Box::new(ToPort(0, 1)));
        gb.connect(rr, 0, l);
        gb.connect(rr, 1, r);
        gb.connect_exit(l, 0);
        gb.connect_exit(r, 0);
        let mut g = gb.build().unwrap();
        let (nls, insp, c) = harness();
        let out = run(&mut g, &c, &nls, &insp, batch_of(10));
        assert_eq!(out.tx.len(), 10);
        assert_eq!(Counters::get(&c.split_allocs), 2);
    }

    #[test]
    fn predict_reuses_batch_for_majority() {
        // 9 packets to port 0, 1 to port 1: only one allocation (minority).
        struct Mostly0 {
            i: u32,
        }
        impl Element for Mostly0 {
            fn class_name(&self) -> &'static str {
                "Mostly0"
            }
            fn output_count(&self) -> usize {
                2
            }
            fn process(
                &mut self,
                _: &mut ElemCtx<'_>,
                _: &mut Packet,
                _: &mut Anno,
            ) -> PacketResult {
                self.i += 1;
                PacketResult::Out(u8::from(self.i.is_multiple_of(10)))
            }
        }
        let mut gb = GraphBuilder::new();
        gb.branch_policy(BranchPolicy::Predict);
        let m = gb.add(Box::new(Mostly0 { i: 0 }));
        let l = gb.add(Box::new(ToPort(0, 1)));
        let r = gb.add(Box::new(ToPort(0, 1)));
        gb.connect(m, 0, l);
        gb.connect(m, 1, r);
        gb.connect_exit(l, 0);
        gb.connect_exit(r, 0);
        let mut g = gb.build().unwrap();
        let (nls, insp, c) = harness();
        let out = run(&mut g, &c, &nls, &insp, batch_of(10));
        assert_eq!(out.tx.len(), 10);
        // Initial prediction is port 0 (correct majority): 1 alloc.
        assert_eq!(Counters::get(&c.split_allocs), 1);
    }

    #[test]
    fn predictor_adapts_after_majority_flips() {
        // Phase 0 sends every packet to port 1; phase 1 alternates 1, 0.
        struct Phase {
            phase: Arc<AtomicU32>,
            i: u32,
        }
        impl Element for Phase {
            fn class_name(&self) -> &'static str {
                "Phase"
            }
            fn output_count(&self) -> usize {
                2
            }
            fn process(
                &mut self,
                _: &mut ElemCtx<'_>,
                _: &mut Packet,
                _: &mut Anno,
            ) -> PacketResult {
                self.i += 1;
                match self.phase.load(Ordering::Relaxed) {
                    0 => PacketResult::Out(1),
                    _ => PacketResult::Out((self.i % 2) as u8),
                }
            }
        }
        /// Records the batch-level trace id of the batch it last saw, and
        /// that batch's slot count (masked slots included).
        struct SeenBatch(Arc<AtomicU64>, Arc<AtomicU64>);
        impl Element for SeenBatch {
            fn class_name(&self) -> &'static str {
                "SeenBatch"
            }
            fn process_batch(&mut self, _: &mut ElemCtx<'_>, batch: &mut PacketBatch) {
                let id = batch.banno().get(anno::TRACE_ID);
                self.0.store(id, Ordering::Relaxed);
                self.1.store(batch.slot_count() as u64, Ordering::Relaxed);
            }
        }
        let phase = Arc::new(AtomicU32::new(0));
        let seen: [(Arc<AtomicU64>, Arc<AtomicU64>); 2] = Default::default();
        let mut gb = GraphBuilder::new();
        gb.branch_policy(BranchPolicy::Predict);
        let m = gb.add(Box::new(Phase {
            phase: phase.clone(),
            i: 0,
        }));
        for (port, (id, slots)) in seen.iter().enumerate() {
            let n = gb.add(Box::new(SeenBatch(id.clone(), slots.clone())));
            gb.connect(m, port, n);
            gb.connect_exit(n, 0);
        }
        let mut g = gb.build().unwrap();
        let (nls, insp, c) = harness();

        // All to port 1: no branch, no allocation, and the prediction
        // moves to port 1.
        let out1 = run(&mut g, &c, &nls, &insp, batch_of(8));
        assert_eq!(out1.tx.len(), 8);
        assert_eq!(Counters::get(&c.split_allocs), 0);

        // 50/50 on the same graph: the input batch (marked by its trace id)
        // is reused on port 1 with its port-0 slots masked out, and only
        // port 0's packets move into a fresh batch.
        phase.store(1, Ordering::Relaxed);
        let mut second = batch_of(8);
        second.banno_mut().set(anno::TRACE_ID, 7);
        let out2 = run(&mut g, &c, &nls, &insp, second);
        assert_eq!(out2.tx.len(), 8);
        assert_eq!(Counters::get(&c.split_allocs), 1);
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        assert_eq!((load(&seen[1].0), load(&seen[1].1)), (7, 8));
        assert_eq!((load(&seen[0].0), load(&seen[0].1)), (0, 4));
    }

    /// Offloadable, implements only `process`: stamps the frame length
    /// into a slot and drops frames shorter than 64 bytes.
    struct StampLen;

    impl Element for StampLen {
        fn class_name(&self) -> &'static str {
            "StampLen"
        }
        fn process(&mut self, _: &mut ElemCtx<'_>, p: &mut Packet, a: &mut Anno) -> PacketResult {
            a.set(anno::AC_MATCH, p.len() as u64);
            if p.len() < 64 {
                PacketResult::Drop
            } else {
                PacketResult::Out(0)
            }
        }
        fn cpu_profile(&self) -> CpuProfile {
            CpuProfile {
                fixed_cycles: 40,
                cycles_per_byte: 2.5,
            }
        }
        fn offload(&self) -> Option<OffloadSpec> {
            Some(OffloadSpec {
                input: DbInput::WholePacket { offset: 0 },
                output: DbOutput::PerItem { len: 8 },
                gpu: nba_sim::GpuProfile::default(),
                kernel: Arc::new(|_| {}),
                heavy: false,
                postprocess: Postprocess::Annotation(anno::AC_MATCH),
            })
        }
    }

    /// Implements only `process_batch`: drops the first live slot, stamps
    /// the rest.
    struct BatchOnly;

    impl Element for BatchOnly {
        fn class_name(&self) -> &'static str {
            "BatchOnly"
        }
        fn kind(&self) -> ElementKind {
            ElementKind::PerBatch
        }
        fn process_batch(&mut self, _: &mut ElemCtx<'_>, batch: &mut PacketBatch) {
            let live: Vec<usize> = batch.live_indices().collect();
            batch.set_result(live[0], PacketResult::Drop);
            for &i in &live[1..] {
                batch.anno_mut(i).set(anno::AC_MATCH, 7);
            }
        }
        fn cpu_profile(&self) -> CpuProfile {
            CpuProfile::fixed(33)
        }
    }

    #[test]
    fn both_element_kinds_run_through_the_batch_body() {
        let cost = CostModel::paper_default();
        let lens = [64usize, 60, 1500, 128, 594];
        let mixed = || {
            let mut b = PacketBatch::with_capacity(lens.len());
            for len in lens {
                b.push(Packet::from_bytes(&vec![0u8; len]));
            }
            b.mask(3);
            b
        };
        let single = |el: Box<dyn Element>| {
            let mut gb = GraphBuilder::new();
            let n = gb.add(el);
            gb.connect_exit(n, 0);
            gb.build().unwrap()
        };

        // Per-packet element: dispatch + profile at each live length, the
        // short frame dropped, the masked slot never seen.
        let (nls, insp, c) = harness();
        let out = run(&mut single(Box::new(StampLen)), &c, &nls, &insp, mixed());
        let stamped: Vec<u64> = out.tx.iter().map(|(_, a)| a.get(anno::AC_MATCH)).collect();
        assert_eq!(stamped, vec![64, 1500, 594]);
        assert_eq!(out.drops, 1);
        let per_packet: u64 = [64u64, 60, 1500, 594]
            .iter()
            .map(|len| cost.per_packet_dispatch + 40 + len * 5 / 2)
            .sum();
        assert_eq!(
            out.cycles,
            cost.element_call + per_packet + cost.drop_per_packet + cost.batch_free
        );
        assert_eq!(Counters::get(&c.cpu_processed), 4);

        // Per-batch element: its fixed cycles once, its results respected.
        let (nls, insp, c) = harness();
        let out = run(&mut single(Box::new(BatchOnly)), &c, &nls, &insp, mixed());
        let stamped: Vec<u64> = out.tx.iter().map(|(_, a)| a.get(anno::AC_MATCH)).collect();
        assert_eq!(stamped, vec![7, 7, 7]);
        assert_eq!(out.drops, 1);
        assert_eq!(
            out.cycles,
            cost.element_call + 33 + cost.drop_per_packet + cost.batch_free
        );
        assert_eq!(Counters::get(&c.cpu_processed), 0);
    }

    #[test]
    fn build_errors() {
        assert_eq!(GraphBuilder::new().build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn tx_vector_is_handed_back_and_refilled() {
        let mut gb = GraphBuilder::new();
        let a = gb.add(Box::new(ToPort(0, 1)));
        gb.connect_exit(a, 0);
        let mut g = gb.build().unwrap();
        let (nls, insp, c) = harness();
        let mut out = run(&mut g, &c, &nls, &insp, batch_of(16));
        let (ptr, cap) = (out.tx.as_ptr(), out.tx.capacity());
        assert!(cap >= 16);
        g.recycle(&mut out);
        let out = run(&mut g, &c, &nls, &insp, batch_of(16));
        assert_eq!(out.tx.len(), 16);
        assert_eq!((out.tx.as_ptr(), out.tx.capacity()), (ptr, cap));
    }

    /// splitmix64's finalizer.
    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// A small deterministic generator for random graphs and batches.
    #[derive(Clone)]
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            mix(self.0)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A stateless pseudo-random element: its verdict (a drop, or a port up
    /// to one past its last, which the framework clamps) is a hash of its
    /// salt, the frame's first byte and length, and the verdict slot, and
    /// it stamps the hash into the frame and that slot, so a lost or
    /// reordered visit shows in the output.
    struct Mixer {
        salt: u64,
        ports: usize,
        drop_per_256: u64,
        kind: ElementKind,
        profile: CpuProfile,
        offloadable: bool,
    }

    impl Element for Mixer {
        fn class_name(&self) -> &'static str {
            "Mixer"
        }
        fn output_count(&self) -> usize {
            self.ports
        }
        fn kind(&self) -> ElementKind {
            self.kind
        }
        fn process(&mut self, _: &mut ElemCtx<'_>, p: &mut Packet, a: &mut Anno) -> PacketResult {
            let seen = u64::from(p.data()[0]) ^ (p.len() as u64) << 8 ^ a.get(anno::AC_MATCH);
            let h = mix(self.salt ^ seen);
            a.set(anno::AC_MATCH, h);
            p.data_mut()[0] = h as u8;
            if h % 256 < self.drop_per_256 {
                PacketResult::Drop
            } else {
                PacketResult::Out(((h >> 8) % (self.ports as u64 + 1)) as u8)
            }
        }
        fn cpu_profile(&self) -> CpuProfile {
            self.profile
        }
        fn offload(&self) -> Option<OffloadSpec> {
            self.offloadable.then(|| OffloadSpec {
                input: DbInput::WholePacket { offset: 0 },
                output: DbOutput::InPlace { extra: 0 },
                gpu: nba_sim::GpuProfile::default(),
                kernel: Arc::new(|_| {}),
                heavy: false,
                postprocess: Postprocess::WriteBack,
            })
        }
    }

    /// A random DAG of 1–5 [`Mixer`]s with 1–3 ports each, every port
    /// leading to a later node, the exit, or the drop sink. The same seed
    /// builds the same graph.
    fn random_graph(seed: u64, policy: BranchPolicy) -> ElementGraph {
        let mut rng = Rng(seed);
        let n = 1 + rng.below(5) as usize;
        let mut gb = GraphBuilder::new();
        gb.branch_policy(policy);
        let mut ports = Vec::new();
        for _ in 0..n {
            let el = Mixer {
                salt: rng.next(),
                ports: 1 + rng.below(3) as usize,
                drop_per_256: [0, 0, 16, 128][rng.below(4) as usize],
                kind: match rng.below(4) {
                    0 => ElementKind::PerBatch,
                    _ => ElementKind::PerPacket,
                },
                profile: CpuProfile {
                    fixed_cycles: rng.below(200),
                    cycles_per_byte: [0.0, 0.0, 0.25, 1.4, 2.5][rng.below(5) as usize],
                },
                offloadable: rng.below(3) == 0,
            };
            ports.push(el.ports);
            gb.add(Box::new(el));
        }
        for (i, &width) in ports.iter().enumerate() {
            for port in 0..width {
                match rng.below(4) {
                    0 => gb.connect_discard(NodeId(i), port),
                    1 => gb.connect_exit(NodeId(i), port),
                    _ if i + 1 < n => {
                        let to = i + 1 + rng.below((n - i - 1) as u64) as usize;
                        gb.connect(NodeId(i), port, NodeId(to))
                    }
                    _ => gb.connect_exit(NodeId(i), port),
                };
            }
        }
        gb.build().unwrap()
    }

    /// 0–39 packets of 1–299 bytes, about one slot in eight masked, and
    /// one batch in three tagged for a device.
    fn random_batch(rng: &mut Rng) -> PacketBatch {
        let n = rng.below(40) as usize;
        let mut b = PacketBatch::with_capacity(n);
        for _ in 0..n {
            let mut frame = vec![0u8; 1 + rng.below(299) as usize];
            frame[0] = rng.next() as u8;
            let mut pkt = Packet::from_bytes(&frame);
            pkt.rss_hash = rng.next() as u32;
            b.push(pkt);
        }
        for i in 0..n {
            if rng.below(8) == 0 {
                b.mask(i);
            }
        }
        if rng.below(3) == 0 {
            b.banno_mut().set(anno::LB_DEVICE, 1);
        }
        b
    }

    type Packets = Vec<(Vec<u8>, Anno)>;
    /// TX packets, offloads (node, packets, batch annotations), cycles,
    /// drops, the dropped frames (sorted), and whether a spent shell came
    /// back.
    type Observed = (
        Packets,
        Vec<(usize, Packets, Anno)>,
        u64,
        u64,
        Vec<Vec<u8>>,
        bool,
    );

    /// Everything observable about an outcome.
    fn observe(o: &RunOutcome) -> Observed {
        let live = |b: &PacketBatch| -> Packets {
            (b.live_indices())
                .map(|i| (b.packet(i).unwrap().data().to_vec(), *b.anno(i)))
                .collect()
        };
        (
            o.tx.iter().map(|(p, a)| (p.data().to_vec(), *a)).collect(),
            (o.offloads.iter())
                .map(|r| (r.node.0, live(&r.batch), *r.batch.banno()))
                .collect(),
            o.cycles,
            o.drops,
            {
                let mut frames: Vec<Vec<u8>> =
                    o.dropped.iter().map(|p| p.data().to_vec()).collect();
                frames.sort();
                frames
            },
            o.spent.is_some(),
        )
    }

    /// One side of the comparison: a graph with its own counters.
    struct Side {
        graph: ElementGraph,
        insp: SystemInspector,
        counters: Arc<Counters>,
    }

    impl Side {
        fn new(seed: u64, policy: BranchPolicy) -> Side {
            let counters = Arc::new(Counters::default());
            Side {
                graph: random_graph(seed, policy),
                insp: SystemInspector::new(vec![counters.clone()]),
                counters,
            }
        }

        fn run(
            &mut self,
            nls: &NodeLocalStorage,
            resume: Option<NodeId>,
            batch: PacketBatch,
            oracle: bool,
        ) -> RunOutcome {
            let mut ctx = ElemCtx {
                now: Time::ZERO,
                compute: ComputeMode::Full,
                nls,
                worker: 0,
                inspector: &self.insp,
            };
            let (g, cost, c) = (
                &mut self.graph,
                &CostModel::paper_default(),
                &*self.counters,
            );
            match (resume, oracle) {
                (None, false) => g.run_batch(&mut ctx, cost, c, batch),
                (None, true) => g.oracle_run_batch(&mut ctx, cost, c, batch),
                (Some(n), false) => g.resume_offloaded(&mut ctx, cost, c, n, batch),
                (Some(n), true) => g.oracle_resume_offloaded(&mut ctx, cost, c, n, batch),
            }
        }

        fn state(&self) -> (Vec<[u64; 5]>, [u64; 3]) {
            let profiles = (self.graph.profiles().iter())
                .map(|p| [p.batches, p.packets, p.drops, p.cycles, p.busy.as_ns()])
                .collect();
            let c = &self.counters;
            let counters = [&c.dropped, &c.split_allocs, &c.cpu_processed].map(Counters::get);
            (profiles, counters)
        }
    }

    /// Compares two outcomes, then resumes their offloads pairwise (the
    /// device did nothing) and compares those, down to the last one.
    fn agree(
        nls: &NodeLocalStorage,
        new: &mut Side,
        old: &mut Side,
        mut n: RunOutcome,
        o: RunOutcome,
    ) {
        assert_eq!(observe(&n), observe(&o));
        for (rn, ro) in std::mem::take(&mut n.offloads).into_iter().zip(o.offloads) {
            let n2 = new.run(nls, Some(rn.node), rn.batch, false);
            let o2 = old.run(nls, Some(ro.node), ro.batch, true);
            agree(nls, new, old, n2, o2);
        }
        new.graph.recycle(&mut n);
    }

    proptest::proptest! {
        // A few cases under Miri, which interprets every packet move.
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(
            if cfg!(miri) { 4 } else { 96 }
        ))]

        /// The traversal equals the oracle on random graphs and batches:
        /// the same TX packets in the same order with the same annotations,
        /// drops, cycles, offloads, counters and profiles, and the same
        /// branch predictions carried from batch to batch.
        #[test]
        fn traversal_equals_the_oracle(seed in proptest::prelude::any::<u64>(), split in 0u8..2) {
            let policy = [BranchPolicy::Predict, BranchPolicy::SplitAlways][usize::from(split)];
            let nls = NodeLocalStorage::new();
            let (mut new, mut old) = (Side::new(seed, policy), Side::new(seed, policy));
            let mut rng = Rng(!seed);
            for _ in 0..4 {
                let mut twin = rng.clone();
                let n = new.run(&nls, None, random_batch(&mut rng), false);
                let o = old.run(&nls, None, random_batch(&mut twin), true);
                agree(&nls, &mut new, &mut old, n, o);
            }
            proptest::prop_assert_eq!(new.state(), old.state());
        }
    }
}
