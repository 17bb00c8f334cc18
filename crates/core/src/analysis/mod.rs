//! The static analyser behind `nba-bench lint`: one pass pipeline over one
//! graph model.
//!
//! NBA's design rests on invariants the Rust compiler cannot see: the
//! element graph must be a push-only DAG, the 7-slot cache-line annotation
//! layout ([`crate::batch::ANNO_SLOTS`]) is shared by the framework and
//! every element, offloadable elements declare datablock byte ranges the
//! device engine trusts blindly, and branch shapes decide whether
//! batch-level branch prediction pays off (§3.2–§3.3 of the paper). A
//! violation of any of them — a slot collision, a cycle, a stale datablock
//! range — surfaces as silent corruption or a hung worker at runtime.
//!
//! [`analyze`] checks all of them before any batch flows. It builds one
//! model of the graph — ports and edges, slot claims (explicit ones from
//! [`Element::slot_claims`] plus the implicit write of a
//! [`Postprocess::Annotation`]), the declarative [`ElementEffects`], the
//! writer registry, forward reachability, exit-reaching nodes, labels and
//! source lines — and runs a worklist fixpoint over it, propagating an
//! [`AbsState`] (per-slot write lattice, must-hold header facts, may-rewrite
//! datablock effects; see the `domain` module) along every edge. The passes then
//! run in a fixed order over that one model:
//!
//! * **structural** (`NBA00x`) — unreachable nodes, cycles, exit coverage,
//!   unconnected output ports,
//! * **slots** (`NBA01x`) — out-of-range claims, reserved-slot writes,
//!   write-write collisions between element classes (a `Warn` when the
//!   writers live on provably disjoint branches, since no packet traverses
//!   two of them), reads of slots nothing writes,
//! * **datablocks** (`NBA02x`) — degenerate ranges, truncated annotation
//!   results, and a size-changing in-place rewrite on some path to an
//!   offloadable element whose declared range covers the shifted bytes,
//! * **branch shape** (`NBA03x`) — fan-out against the branch policy (the
//!   Figure 1 batch-split problem),
//! * **path family** (`NBA04x`) — slot reads not dominated by a write on
//!   some path (the offending path is printed as an element chain), output
//!   ports no abstract state can take, edges from exit-reaching code into
//!   a subgraph that can only drop, header-dependent elements reachable
//!   before validation,
//! * **capacity** (`NBA05x`, the `capacity` module) — static queue laws over a
//!   run's [`CapacityModel`], when one is given.
//!
//! Each diagnostic is emitted once, at its final severity and text, with a
//! stable code and — when the graph came from configuration text via
//! [`crate::config::build_graph_checked`] — the Click-source line of the
//! offending declaration or connection. Both runtimes run [`preflight`]
//! before starting: `Error` refuses the graph, `Warn` logs.

mod capacity;
mod domain;
mod report;

pub use capacity::{check_capacity, CapacityModel};
pub use domain::{AbsState, SlotState};
pub use report::{Code, Diagnostic, LintReport, Severity, SourceMap, SCHEMA_VERSION};

use std::collections::{BTreeMap, VecDeque};

use crate::batch::{anno, ANNO_SLOTS};
use crate::element::{
    DbInput, DbOutput, Disposition, Element, ElementEffects, HeaderFact, OffloadSpec, Postprocess,
    SlotAccess, SlotClaim, SlotScope,
};
use crate::graph::{BranchPolicy, ElementGraph, NodeId, OutEdge};

/// Runs every pass over `graph`. With a [`SourceMap`] (configuration
/// path), diagnostics carry source lines and configuration-only checks
/// (unused declarations, unconnected ports) run too; with a
/// [`CapacityModel`], the queue-law checks run last.
pub fn analyze(
    graph: &ElementGraph,
    src: Option<&SourceMap>,
    cap: Option<&CapacityModel>,
) -> LintReport {
    let m = Model::new(graph, src);
    let mut out = Vec::new();
    m.structural(&mut out);
    m.slots(&mut out);
    m.datablocks(&mut out);
    m.branches(&mut out);
    m.paths(&mut out);
    if let Some(cap) = cap {
        out.extend(check_capacity(cap).diagnostics);
    }
    LintReport { diagnostics: out }
}

/// Runtime preflight: the full analysis over the run's [`CapacityModel`].
/// Warnings go to stderr; `Error`-severity findings **panic** — refusing
/// to start the run. Both runtimes call this on the first pipeline
/// replica before any batch flows.
pub fn preflight(graph: &ElementGraph, cap: &CapacityModel) -> LintReport {
    let report = analyze(graph, None, Some(cap));
    for w in report.warnings() {
        eprintln!("nba-lint: {w}");
    }
    if report.has_errors() {
        panic!(
            "pipeline failed static verification (nba-lint):\n{}",
            report.render_text()
        );
    }
    report
}

/// Everything the passes query about one graph, gathered once.
struct Model<'g> {
    graph: &'g ElementGraph,
    src: Option<&'g SourceMap>,
    n: usize,
    entry: usize,
    /// Out-edges per node, indexed by output port.
    edges: Vec<Vec<OutEdge>>,
    /// Explicit claims plus the implicit write of an offloadable
    /// element's `Postprocess::Annotation`.
    claims: Vec<Vec<SlotClaim>>,
    effects: Vec<ElementEffects>,
    specs: Vec<Option<OffloadSpec>>,
    /// In-range `(scope, slot)` → the nodes writing it, in node order.
    writers: BTreeMap<(SlotScope, usize), Vec<usize>>,
    /// `reach[a][b]`: a path of one or more edges leads from `a` to `b`.
    reach: Vec<Vec<bool>>,
    /// Nodes from which some `ToOutput` exit is reachable. A `DropAll`
    /// element never reaches an exit regardless of its wiring (nothing
    /// leaves it), which is what makes blackhole subgraphs detectable.
    exits: Vec<bool>,
    /// The fixpoint: the join of the abstract states over every edge into
    /// each node (`None` = unreached).
    state: Vec<Option<AbsState>>,
}

impl<'g> Model<'g> {
    fn new(graph: &'g ElementGraph, src: Option<&'g SourceMap>) -> Model<'g> {
        let n = graph.len();
        let mut m = Model {
            graph,
            src,
            n,
            entry: graph.entry_node().0,
            edges: Vec::with_capacity(n),
            claims: Vec::with_capacity(n),
            effects: Vec::with_capacity(n),
            specs: Vec::with_capacity(n),
            writers: BTreeMap::new(),
            reach: Vec::new(),
            exits: vec![false; n],
            state: Vec::new(),
        };
        for i in 0..n {
            let el: &dyn Element = graph.element(NodeId(i));
            m.edges.push(
                (0..el.output_count().max(1))
                    .filter_map(|p| graph.out_edge(NodeId(i), p))
                    .collect(),
            );
            let mut claims: Vec<SlotClaim> = el.slot_claims().to_vec();
            let spec = el.offload();
            if let Some(Postprocess::Annotation(slot)) = spec.as_ref().map(|s| s.postprocess) {
                let implicit = SlotClaim::writes(slot);
                if !claims.contains(&implicit) {
                    claims.push(implicit);
                }
            }
            for c in &claims {
                if c.access == SlotAccess::Write && c.slot < ANNO_SLOTS {
                    m.writers.entry((c.scope, c.slot)).or_default().push(i);
                }
            }
            m.claims.push(claims);
            m.effects.push(el.effects());
            m.specs.push(spec);
        }
        let mut reach = vec![vec![false; n]; n];
        for (start, row) in reach.iter_mut().enumerate() {
            let mut stack = vec![start];
            while let Some(i) = stack.pop() {
                for t in m.successors(i) {
                    if !std::mem::replace(&mut row[t], true) {
                        stack.push(t);
                    }
                }
            }
        }
        m.reach = reach;
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                if m.exits[i] || m.effects[i].disposition == Disposition::DropAll {
                    continue;
                }
                let reaches = m.edges[i].iter().any(|e| match e {
                    OutEdge::Exit => true,
                    OutEdge::Node(t) => m.exits[t.0],
                    OutEdge::Discard => false,
                });
                if reaches {
                    m.exits[i] = true;
                    changed = true;
                }
            }
        }
        m.state = m.fixpoint();
        m
    }

    /// Node successors of `i`, one per output port wired to a node.
    fn successors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges[i].iter().filter_map(|e| match e {
            OutEdge::Node(t) => Some(t.0),
            _ => None,
        })
    }

    fn reachable(&self, i: usize) -> bool {
        i == self.entry || self.reach[self.entry][i]
    }

    fn class(&self, i: usize) -> &'static str {
        self.graph.element(NodeId(i)).class_name()
    }

    /// `"name" (Class)` when a source map knows the node, else the class.
    fn label(&self, i: usize) -> String {
        match self.src.and_then(|s| s.name(i)) {
            Some(name) => format!("{name:?} ({})", self.class(i)),
            None => self.class(i).to_string(),
        }
    }

    fn node_line(&self, i: usize) -> Option<usize> {
        self.src.and_then(|s| s.node_line(i))
    }

    fn conn_line(&self, i: usize, p: usize) -> Option<usize> {
        self.src.and_then(|s| s.conn_line(i, p))
    }

    /// A finding anchored at `node` (named by its element class).
    fn diag(
        &self,
        code: Code,
        message: String,
        node: Option<usize>,
        line: Option<usize>,
    ) -> Diagnostic {
        Diagnostic {
            element: node.map(|i| self.class(i).to_owned()),
            ..Diagnostic::new(code, message, node, line)
        }
    }

    /// Whether node `i` writes `(scope, slot)` (implicit claims included).
    fn writes(&self, i: usize, scope: SlotScope, slot: usize) -> bool {
        self.claims[i]
            .iter()
            .any(|c| c.access == SlotAccess::Write && c.scope == scope && c.slot == slot)
    }

    /// Whether node `i` declares its read of `c`'s slot default-tolerant.
    fn tolerates(&self, i: usize, c: &SlotClaim) -> bool {
        self.effects[i]
            .default_ok
            .iter()
            .any(|d| d.scope == c.scope && d.slot == c.slot)
    }

    /// Declared input datablock range `(start, end)` of an offloadable
    /// node; `end == None` means "to the end of the frame".
    fn db_range(&self, i: usize) -> Option<(usize, Option<usize>)> {
        self.specs[i].as_ref().map(|s| match s.input {
            DbInput::PartialPacket { offset, len } => (offset, Some(offset + len)),
            DbInput::WholePacket { offset } => (offset, None),
        })
    }

    /// Offset a size-changing in-place rewrite at node `i` starts at.
    fn rewrite_from(&self, i: usize) -> Option<usize> {
        let spec = self.specs[i].as_ref()?;
        let grows = matches!(spec.output, DbOutput::InPlace { extra } if extra > 0);
        grows.then_some(self.db_range(i)?.0)
    }

    /// The transfer function: state after node `i` ran (before any
    /// port-specific fact is added). Purely monotone: slots only move up
    /// the lattice, the may-rewrite offset only shrinks.
    fn transfer(&self, i: usize, state: &AbsState) -> AbsState {
        let mut s = state.clone();
        for c in &self.claims[i] {
            if c.access == SlotAccess::Write && c.slot < ANNO_SLOTS {
                s.set_slot(c.scope, c.slot, SlotState::Written);
            }
        }
        if let Some(off) = self.rewrite_from(i) {
            s.rewrite = match s.rewrite {
                Some(prev) if prev <= (off, i) => Some(prev),
                _ => Some((off, i)),
            };
        }
        s
    }

    /// The worklist fixpoint from the entry. `DropAll` elements propagate
    /// nothing.
    fn fixpoint(&self) -> Vec<Option<AbsState>> {
        let mut in_state: Vec<Option<AbsState>> = vec![None; self.n];
        in_state[self.entry] = Some(AbsState::entry());
        let mut queued = vec![false; self.n];
        queued[self.entry] = true;
        let mut work: VecDeque<usize> = VecDeque::from([self.entry]);
        while let Some(i) = work.pop_front() {
            queued[i] = false;
            let Some(s) = in_state[i].clone() else {
                continue;
            };
            if self.effects[i].disposition == Disposition::DropAll {
                continue;
            }
            let post = self.transfer(i, &s);
            for (p, e) in self.edges[i].iter().enumerate() {
                let OutEdge::Node(t) = *e else { continue };
                let mut out = post.clone();
                for &(port, fact) in self.effects[i].establishes {
                    if port == p {
                        out.establish(fact);
                    }
                }
                let joined = match &in_state[t.0] {
                    Some(old) => old.join(&out),
                    None => out,
                };
                if in_state[t.0].as_ref() != Some(&joined) {
                    in_state[t.0] = Some(joined);
                    if !queued[t.0] {
                        queued[t.0] = true;
                        work.push_back(t.0);
                    }
                }
            }
        }
        in_state
    }

    /// `NBA00x`: reachability, exit coverage, cycles, unconnected ports.
    fn structural(&self, out: &mut Vec<Diagnostic>) {
        for i in (0..self.n).filter(|&i| !self.reachable(i)) {
            out.push(self.diag(
                Code::UnreachableNode,
                format!("element {} is unreachable from the entry", self.label(i)),
                Some(i),
                self.node_line(i),
            ));
        }
        if let Some(s) = self.src {
            for (name, cls, line) in &s.unused_decls {
                out.push(Diagnostic::new(
                    Code::UnreachableNode,
                    format!("declared element {name:?} ({cls}) is never connected"),
                    None,
                    Some(*line),
                ));
            }
        }
        let exit_reachable =
            (0..self.n).any(|i| self.reachable(i) && self.edges[i].contains(&OutEdge::Exit));
        if !exit_reachable {
            out.push(self.diag(
                Code::NoExit,
                "no path from the entry reaches ToOutput; every packet is dropped".to_owned(),
                Some(self.entry),
                self.node_line(self.entry),
            ));
        }

        // Cycle detection: iterative DFS with colors (0 = white, 1 = on the
        // stack, 2 = done). The traversal worklist would loop forever on a
        // cycle, so this is an Error.
        let mut color = vec![0u8; self.n];
        for start in 0..self.n {
            if color[start] != 0 || !self.reachable(start) {
                continue;
            }
            // (node, next edge index) — explicit stack to avoid recursion.
            let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = 1;
            while let Some(&(i, next)) = dfs.last() {
                let Some(&edge) = self.edges[i].get(next) else {
                    color[i] = 2;
                    dfs.pop();
                    continue;
                };
                dfs.last_mut().expect("stack is non-empty").1 += 1;
                let OutEdge::Node(m) = edge else { continue };
                match color[m.0] {
                    0 => {
                        color[m.0] = 1;
                        dfs.push((m.0, 0));
                    }
                    1 => out.push(self.diag(
                        Code::Cycle,
                        format!(
                            "cycle: {} port {next} feeds back into {} (push-only \
                             graphs must be acyclic)",
                            self.label(i),
                            self.label(m.0)
                        ),
                        Some(m.0),
                        self.conn_line(i, next).or_else(|| self.node_line(m.0)),
                    )),
                    _ => {}
                }
            }
        }

        // Unconnected ports (configuration path only: programmatic builders
        // default ports to the exit on purpose).
        if let Some(s) = self.src {
            for i in 0..self.n {
                let ports = self.edges[i].len();
                if ports < 2 {
                    continue;
                }
                for p in (0..ports).filter(|&p| !s.connected.contains(&(i, p))) {
                    out.push(self.diag(
                        Code::UnconnectedPort,
                        format!(
                            "output port {p} of {} is not connected and silently \
                             defaults to ToOutput",
                            self.label(i)
                        ),
                        Some(i),
                        self.node_line(i),
                    ));
                }
            }
        }
    }

    /// `NBA01x`: the annotation-slot registry.
    fn slots(&self, out: &mut Vec<Diagnostic>) {
        for i in 0..self.n {
            for c in &self.claims[i] {
                if c.slot >= ANNO_SLOTS {
                    out.push(self.diag(
                        Code::SlotOutOfRange,
                        format!(
                            "{} claims {:?} slot {} but the annotation layout has {} slots",
                            self.label(i),
                            c.scope,
                            c.slot,
                            ANNO_SLOTS
                        ),
                        Some(i),
                        self.node_line(i),
                    ));
                    continue;
                }
                let reserved = match c.scope {
                    SlotScope::Packet => anno::RESERVED_PACKET_WRITES,
                    SlotScope::Batch => anno::RESERVED_BATCH_WRITES,
                };
                if c.access == SlotAccess::Write && reserved.contains(&c.slot) {
                    out.push(self.diag(
                        Code::ReservedSlotWrite,
                        format!(
                            "{} writes framework-reserved {:?} slot {}",
                            self.label(i),
                            c.scope,
                            c.slot
                        ),
                        Some(i),
                        self.node_line(i),
                    ));
                }
            }
        }

        // Write-write collisions: two *different* classes writing one slot in
        // one pipeline means the later stage silently clobbers the earlier
        // one's state (instances of the same class are presumed compatible —
        // replicated stages write the same meaning). Unless every pair of
        // different-class writers is path-disjoint: then no packet can
        // traverse two of them, and nothing is ever clobbered.
        for (&(scope, slot), ws) in &self.writers {
            let mut classes: Vec<&'static str> = ws.iter().map(|&i| self.class(i)).collect();
            classes.sort_unstable();
            classes.dedup();
            if classes.len() < 2 {
                continue;
            }
            let disjoint = ws.iter().all(|&a| {
                ws.iter().all(|&b| {
                    self.class(a) == self.class(b) || (!self.reach[a][b] && !self.reach[b][a])
                })
            });
            let (severity, proof) = if disjoint {
                (
                    Severity::Warn,
                    " [deep: the writers live on disjoint branches; no packet traverses \
                     more than one]",
                )
            } else {
                (Severity::Error, "")
            };
            let at = *ws.iter().max().expect("a registered slot has a writer");
            out.push(Diagnostic {
                severity,
                ..self.diag(
                    Code::SlotCollision,
                    format!(
                        "{scope:?} slot {slot} is written by multiple element classes: {}{proof}",
                        classes.join(", ")
                    ),
                    Some(at),
                    self.node_line(at),
                )
            });
        }

        // Reads of never-written slots (any writer anywhere in the pipeline
        // satisfies the read; the path family checks dominance).
        for i in 0..self.n {
            for c in &self.claims[i] {
                if c.access != SlotAccess::Read || c.slot >= ANNO_SLOTS {
                    continue;
                }
                let seeded =
                    c.scope == SlotScope::Packet && anno::FRAMEWORK_SEEDED.contains(&c.slot);
                if seeded || self.writers.contains_key(&(c.scope, c.slot)) {
                    continue;
                }
                let proof = if self.tolerates(i, c) {
                    " [deep: the reader treats the unwritten default as a valid verdict]"
                } else {
                    ""
                };
                out.push(self.diag(
                    Code::SlotReadUnwritten,
                    format!(
                        "{} reads {:?} slot {} but nothing in this pipeline writes it{proof}",
                        self.label(i),
                        c.scope,
                        c.slot
                    ),
                    Some(i),
                    self.node_line(i),
                ));
            }
        }
    }

    /// `NBA02x`: datablock declarations.
    fn datablocks(&self, out: &mut Vec<Diagnostic>) {
        for i in 0..self.n {
            let (Some(spec), Some((_, end))) = (&self.specs[i], self.db_range(i)) else {
                continue;
            };

            // Degenerate ranges: a datablock that gathers or produces nothing.
            if let DbInput::PartialPacket { len: 0, .. } = spec.input {
                out.push(self.diag(
                    Code::EmptyDatablock,
                    format!(
                        "{} declares a zero-length input datablock range",
                        self.label(i)
                    ),
                    Some(i),
                    self.node_line(i),
                ));
            }
            if let DbOutput::PerItem { len } = spec.output {
                if len == 0 {
                    out.push(self.diag(
                        Code::EmptyDatablock,
                        format!("{} declares a zero-length per-item output", self.label(i)),
                        Some(i),
                        self.node_line(i),
                    ));
                } else if len > 8 && matches!(spec.postprocess, Postprocess::Annotation(_)) {
                    out.push(self.diag(
                        Code::AnnotationTruncated,
                        format!(
                            "{} scatters {len}-byte items into an 8-byte annotation \
                             slot; results are truncated",
                            self.label(i)
                        ),
                        Some(i),
                        self.node_line(i),
                    ));
                }
            }

            // A size-changing in-place rewrite on some path here shifts every
            // byte at or after its range start, so a declared range that
            // touches that region reads stale offsets (and defeats
            // GPU-resident datablock reuse).
            let rewrite = self.state[i].as_ref().and_then(|s| s.rewrite);
            if let Some((off, writer)) = rewrite.filter(|&(off, _)| end.is_none_or(|e| e > off)) {
                out.push(self.diag(
                    Code::DatablockOverlap,
                    format!(
                        "{} rewrites packet bytes from offset {off} with a size delta \
                         on a path to {}, whose datablock range covers those bytes \
                         (stale offsets after the rewrite)",
                        self.label(writer),
                        self.label(i)
                    ),
                    Some(i),
                    self.node_line(i),
                ));
            }
        }
    }

    /// `NBA03x`: branch shape vs. policy (the batch-split problem,
    /// Figure 1).
    fn branches(&self, out: &mut Vec<Diagnostic>) {
        let policy = self.graph.branch_policy();
        for i in (0..self.n).filter(|&i| self.reachable(i)) {
            let real = self.edges[i]
                .iter()
                .filter(|&&e| e != OutEdge::Discard)
                .count();
            if real >= 2 && policy == BranchPolicy::SplitAlways {
                out.push(self.diag(
                    Code::BatchSplit,
                    format!(
                        "{} branches over {real} ports under SplitAlways: every batch is \
                         reorganized (the batch-split problem); consider Predict",
                        self.label(i)
                    ),
                    Some(i),
                    self.node_line(i),
                ));
            } else if real >= 3 && policy == BranchPolicy::Predict {
                out.push(self.diag(
                    Code::WideFanOut,
                    format!(
                        "{} fans out over {real} ports: branch prediction reuses the batch \
                         for one port only, so most packets split anyway",
                        self.label(i)
                    ),
                    Some(i),
                    self.node_line(i),
                ));
            }
        }
    }

    /// `NBA04x`: the path family over the fixpoint.
    fn paths(&self, out: &mut Vec<Diagnostic>) {
        let any_exit = self.exits.iter().any(|&e| e);
        for i in 0..self.n {
            let Some(s) = &self.state[i] else { continue };

            // NBA040 — reads not dominated by a write on every path. A node's
            // own write satisfies its read (read-modify-write elements and
            // offload postprocess scratch slots), reads declared
            // default-tolerant in the element's effects are exempt, and a
            // slot nothing writes is NBA013's finding, not a path's.
            for c in &self.claims[i] {
                if c.access != SlotAccess::Read
                    || c.slot >= ANNO_SLOTS
                    || self.writes(i, c.scope, c.slot)
                    || self.tolerates(i, c)
                    || !self.writers.contains_key(&(c.scope, c.slot))
                    || s.slot(c.scope, c.slot) == SlotState::Written
                {
                    continue;
                }
                let path = self.render_path(
                    self.witness_avoiding(i, |w| self.writes(w, c.scope, c.slot)),
                    i,
                );
                out.push(self.diag(
                    Code::PathReadUnwritten,
                    format!(
                        "{} reads {:?} slot {} but no write dominates it; unwritten on \
                         path: {path}",
                        self.label(i),
                        c.scope,
                        c.slot
                    ),
                    Some(i),
                    self.node_line(i),
                ));
            }

            // NBA043 — required header facts not established on every path.
            for &fact in self.effects[i].requires {
                if s.has(fact) {
                    continue;
                }
                let path = self.render_path(self.witness_without_fact(i, fact), i);
                out.push(self.diag(
                    Code::HeaderBeforeValidation,
                    format!(
                        "{} requires {fact:?} but is reachable before any validator \
                         establishes it, on path: {path}",
                        self.label(i)
                    ),
                    Some(i),
                    self.node_line(i),
                ));
            }

            // NBA041 — dead validator ports: when a fact this element
            // establishes already holds on every incoming path, validation
            // cannot fail, so every non-establishing port is unreachable.
            let forced: Vec<(usize, HeaderFact)> = self.effects[i]
                .establishes
                .iter()
                .copied()
                .filter(|&(_, f)| s.has(f))
                .collect();
            let ports = self.edges[i].len();
            if let Some(&(_, fact)) = forced.first().filter(|_| ports >= 2) {
                for p in (0..ports).filter(|&p| forced.iter().all(|&(fp, _)| fp != p)) {
                    out.push(self.diag(
                        Code::DeadBranch,
                        format!(
                            "output port {p} of {} is dead: {fact:?} already holds on \
                             every packet reaching it, so validation cannot fail",
                            self.label(i)
                        ),
                        Some(i),
                        self.conn_line(i, p).or_else(|| self.node_line(i)),
                    ));
                }
            }

            // NBA042 — silent blackholes: an edge from exit-reaching code
            // into a subgraph that can only drop. Direct `-> Discard` edges
            // are explicit and exempt; a whole graph with no exit is already
            // NBA004.
            if !(any_exit && self.exits[i]) {
                continue;
            }
            for (p, e) in self.edges[i].iter().enumerate() {
                let OutEdge::Node(t) = *e else { continue };
                if !self.exits[t.0] {
                    out.push(self.diag(
                        Code::BlackholePath,
                        format!(
                            "output port {p} of {} silently blackholes traffic: \
                             no packet entering {} can reach ToOutput; connect \
                             to Discard if dropping is intended",
                            self.label(i),
                            self.label(t.0)
                        ),
                        Some(i),
                        self.conn_line(i, p).or_else(|| self.node_line(i)),
                    ));
                }
            }
        }
    }

    /// BFS witness path from the entry to `target` avoiding `avoid` nodes
    /// (the target itself is always admissible). Returns the node chain
    /// entry..=target, or `None` when every path is blocked.
    fn witness_avoiding(&self, target: usize, avoid: impl Fn(usize) -> bool) -> Option<Vec<usize>> {
        if avoid(self.entry) && self.entry != target {
            return None;
        }
        let mut pred: Vec<Option<usize>> = vec![None; self.n];
        let mut seen = vec![false; self.n];
        seen[self.entry] = true;
        let mut q = VecDeque::from([self.entry]);
        while let Some(i) = q.pop_front() {
            if i == target {
                let mut path = vec![target];
                let mut cur = target;
                while let Some(p) = pred[cur] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for t in self.successors(i) {
                if !seen[t] && (t == target || !avoid(t)) {
                    seen[t] = true;
                    pred[t] = Some(i);
                    q.push_back(t);
                }
            }
        }
        None
    }

    /// BFS witness path reaching `target` with `fact` *not* established —
    /// search states are `(node, fact held)` pairs, so a path through a
    /// validator's establishing port is correctly rejected.
    fn witness_without_fact(&self, target: usize, fact: HeaderFact) -> Option<Vec<usize>> {
        // Index: node * 2 + held.
        let mut pred: Vec<Option<usize>> = vec![None; self.n * 2];
        let mut seen = vec![false; self.n * 2];
        seen[self.entry * 2] = true;
        let mut q = VecDeque::from([self.entry * 2]);
        while let Some(state) = q.pop_front() {
            let (i, held) = (state / 2, state % 2 == 1);
            if i == target && !held {
                // Unwind over search states, then strip the `held` dimension.
                let mut path = vec![i];
                let mut cur = state;
                while let Some(prev) = pred[cur] {
                    path.push(prev / 2);
                    cur = prev;
                }
                path.reverse();
                return Some(path);
            }
            for (p, e) in self.edges[i].iter().enumerate() {
                let OutEdge::Node(t) = *e else { continue };
                let establishes = self.effects[i].establishes.contains(&(p, fact));
                let next = t.0 * 2 + usize::from(held || establishes);
                if !seen[next] {
                    seen[next] = true;
                    pred[next] = Some(state);
                    q.push_back(next);
                }
            }
        }
        None
    }

    /// A witness chain as `a -> b -> ...`, or just `target` without one.
    fn render_path(&self, path: Option<Vec<usize>>, target: usize) -> String {
        match path {
            Some(p) => p
                .iter()
                .map(|&i| self.label(i))
                .collect::<Vec<_>>()
                .join(" -> "),
            None => self.label(target),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Anno, PacketResult};
    use crate::element::{ElemCtx, KernelIo};
    use crate::graph::GraphBuilder;
    use nba_io::Packet;
    use nba_sim::GpuProfile;
    use std::sync::Arc;

    /// The one fixture element: class name, fan-out, slot claims, offload
    /// spec and effects are all injectable.
    struct Fx {
        name: &'static str,
        ports: usize,
        claims: &'static [SlotClaim],
        spec: Option<OffloadSpec>,
        effects: ElementEffects,
    }

    impl Fx {
        fn new(name: &'static str) -> Fx {
            Fx {
                name,
                ports: 1,
                claims: &[],
                spec: None,
                effects: ElementEffects::default(),
            }
        }
    }

    impl Element for Fx {
        fn class_name(&self) -> &'static str {
            self.name
        }
        fn output_count(&self) -> usize {
            self.ports
        }
        fn slot_claims(&self) -> &'static [SlotClaim] {
            self.claims
        }
        fn offload(&self) -> Option<OffloadSpec> {
            self.spec.clone()
        }
        fn effects(&self) -> ElementEffects {
            self.effects
        }
        fn process(&mut self, _: &mut ElemCtx<'_>, _: &mut Packet, _: &mut Anno) -> PacketResult {
            PacketResult::Out(0)
        }
    }

    fn spec(input: DbInput, output: DbOutput, post: Postprocess) -> OffloadSpec {
        OffloadSpec {
            input,
            output,
            gpu: GpuProfile::default(),
            kernel: Arc::new(|_: KernelIo<'_>| {}),
            heavy: false,
            postprocess: post,
        }
    }

    fn codes(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    static WRITE_RE: &[SlotClaim] = &[SlotClaim::writes(anno::RE_MATCH)];
    static READ_RE: &[SlotClaim] = &[SlotClaim::reads(anno::RE_MATCH)];

    #[test]
    fn clean_linear_graph_verifies() {
        let mut gb = GraphBuilder::new();
        let a = gb.add(Box::new(Fx::new("A")));
        let b = gb.add(Box::new(Fx::new("B")));
        gb.connect(a, 0, b);
        gb.connect_exit(b, 0);
        let g = gb.build().unwrap();
        let report = g.verify();
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn cycle_is_an_error() {
        let mut gb = GraphBuilder::new();
        let a = gb.add(Box::new(Fx::new("A")));
        let b = gb.add(Box::new(Fx::new("B")));
        gb.connect(a, 0, b);
        gb.connect(b, 0, a);
        let g = gb.build().unwrap();
        let report = g.verify();
        assert!(report.has_errors());
        assert!(codes(&report).contains(&"NBA003"), "{:?}", codes(&report));
    }

    #[test]
    fn unreachable_node_is_an_error() {
        let mut gb = GraphBuilder::new();
        let a = gb.add(Box::new(Fx::new("A")));
        let _orphan = gb.add(Box::new(Fx::new("Orphan")));
        gb.connect_exit(a, 0);
        gb.entry(a);
        let g = gb.build().unwrap();
        let report = g.verify();
        let d = report.with_code(Code::UnreachableNode).next().unwrap();
        assert_eq!(d.node, Some(1));
        assert_eq!(d.element.as_deref(), Some("Orphan"));
    }

    #[test]
    fn reserved_write_and_collision_and_unwritten_read() {
        static W_TS: &[SlotClaim] = &[SlotClaim::writes(anno::TIMESTAMP)];
        static W5_A: &[SlotClaim] = &[SlotClaim::writes(5)];
        static W5_B: &[SlotClaim] = &[SlotClaim::writes(5)];
        static R4: &[SlotClaim] = &[SlotClaim::reads(4)];
        let mut gb = GraphBuilder::new();
        let a = gb.add(Box::new(Fx {
            claims: W_TS,
            ..Fx::new("A")
        }));
        let b = gb.add(Box::new(Fx {
            claims: W5_A,
            ..Fx::new("B")
        }));
        let c = gb.add(Box::new(Fx {
            claims: W5_B,
            ..Fx::new("C")
        }));
        let d = gb.add(Box::new(Fx {
            claims: R4,
            ..Fx::new("D")
        }));
        gb.connect(a, 0, b);
        gb.connect(b, 0, c);
        gb.connect(c, 0, d);
        gb.connect_exit(d, 0);
        let g = gb.build().unwrap();
        let report = g.verify();
        let cs = codes(&report);
        assert!(cs.contains(&"NBA011"), "{cs:?}");
        assert!(cs.contains(&"NBA012"), "{cs:?}");
        assert!(cs.contains(&"NBA013"), "{cs:?}");
    }

    #[test]
    fn same_class_writers_do_not_collide() {
        static W5: &[SlotClaim] = &[SlotClaim::writes(5)];
        let mut gb = GraphBuilder::new();
        let a = gb.add(Box::new(Fx {
            claims: W5,
            ..Fx::new("Same")
        }));
        let b = gb.add(Box::new(Fx {
            claims: W5,
            ..Fx::new("Same")
        }));
        gb.connect(a, 0, b);
        gb.connect_exit(b, 0);
        let g = gb.build().unwrap();
        assert_eq!(g.verify().with_code(Code::SlotCollision).count(), 0);
    }

    #[test]
    fn size_delta_overlap_is_an_error() {
        let grow = spec(
            DbInput::WholePacket { offset: 14 },
            DbOutput::InPlace { extra: 16 },
            Postprocess::WriteBack,
        );
        let read = spec(
            DbInput::WholePacket { offset: 14 },
            DbOutput::InPlace { extra: 0 },
            Postprocess::WriteBack,
        );
        let mut gb = GraphBuilder::new();
        let a = gb.add(Box::new(Fx {
            spec: Some(grow),
            ..Fx::new("Grow")
        }));
        let b = gb.add(Box::new(Fx {
            spec: Some(read),
            ..Fx::new("Read")
        }));
        gb.connect(a, 0, b);
        gb.connect_exit(b, 0);
        let g = gb.build().unwrap();
        let report = g.verify();
        assert!(codes(&report).contains(&"NBA020"), "{:?}", codes(&report));
        // The non-growing pair in the other order is fine.
        let read2 = spec(
            DbInput::WholePacket { offset: 14 },
            DbOutput::InPlace { extra: 0 },
            Postprocess::WriteBack,
        );
        let read3 = spec(
            DbInput::WholePacket { offset: 14 },
            DbOutput::InPlace { extra: 0 },
            Postprocess::WriteBack,
        );
        let mut gb = GraphBuilder::new();
        let a = gb.add(Box::new(Fx {
            spec: Some(read2),
            ..Fx::new("A")
        }));
        let b = gb.add(Box::new(Fx {
            spec: Some(read3),
            ..Fx::new("B")
        }));
        gb.connect(a, 0, b);
        gb.connect_exit(b, 0);
        let g = gb.build().unwrap();
        assert_eq!(g.verify().with_code(Code::DatablockOverlap).count(), 0);
    }

    #[test]
    fn split_always_branch_warns() {
        let mut gb = GraphBuilder::new();
        gb.branch_policy(BranchPolicy::SplitAlways);
        let a = gb.add(Box::new(Fx {
            ports: 2,
            ..Fx::new("Branch")
        }));
        let l = gb.add(Box::new(Fx::new("L")));
        let r = gb.add(Box::new(Fx::new("R")));
        gb.connect(a, 0, l);
        gb.connect(a, 1, r);
        gb.connect_exit(l, 0);
        gb.connect_exit(r, 0);
        let g = gb.build().unwrap();
        let report = g.verify();
        assert!(!report.has_errors());
        assert_eq!(report.with_code(Code::BatchSplit).count(), 1);
    }

    #[test]
    fn truncated_annotation_warns() {
        let wide = spec(
            DbInput::WholePacket { offset: 0 },
            DbOutput::PerItem { len: 16 },
            Postprocess::Annotation(4),
        );
        let mut gb = GraphBuilder::new();
        let a = gb.add(Box::new(Fx {
            spec: Some(wide),
            ..Fx::new("Wide")
        }));
        gb.connect_exit(a, 0);
        let g = gb.build().unwrap();
        assert_eq!(g.verify().with_code(Code::AnnotationTruncated).count(), 1);
    }

    #[test]
    fn report_renders_text_and_json() {
        let mut gb = GraphBuilder::new();
        let a = gb.add(Box::new(Fx::new("A")));
        let b = gb.add(Box::new(Fx::new("B")));
        gb.connect(a, 0, b);
        gb.connect(b, 0, a);
        let g = gb.build().unwrap();
        let report = g.verify();
        let text = report.render_text();
        assert!(text.contains("error[NBA003]"), "{text}");
        let json = report.render_json();
        assert!(json.contains("\"code\":\"NBA003\""), "{json}");
        assert!(
            json.starts_with(&format!(
                "{{\"schema_version\":{SCHEMA_VERSION},\"diagnostics\":["
            )),
            "{json}"
        );
        assert!(json.trim_end().ends_with("]}"), "{json}");
    }

    #[test]
    fn default_tolerant_unwritten_read_says_so() {
        let mut gb = GraphBuilder::new();
        let r = gb.add(Box::new(Fx {
            claims: READ_RE,
            effects: ElementEffects {
                default_ok: READ_RE,
                ..ElementEffects::default()
            },
            ..Fx::new("R")
        }));
        gb.connect_exit(r, 0);
        let report = gb.build().unwrap().verify();
        assert_eq!(codes(&report), ["NBA013"], "{}", report.render_text());
        let d = &report.diagnostics[0];
        assert_eq!(d.severity, Severity::Warn);
        assert!(d.message.ends_with("as a valid verdict]"), "{}", d.message);
    }

    #[test]
    fn dominated_read_is_clean_and_disjoint_read_is_flagged() {
        // fork[0] -> w -> r1 (dominated), fork[1] -> r2 (not dominated).
        let mut gb = GraphBuilder::new();
        let f = gb.add(Box::new(Fx {
            ports: 2,
            ..Fx::new("Fork")
        }));
        let w = gb.add(Box::new(Fx {
            claims: WRITE_RE,
            ..Fx::new("W")
        }));
        let r1 = gb.add(Box::new(Fx {
            claims: READ_RE,
            ..Fx::new("R")
        }));
        let r2 = gb.add(Box::new(Fx {
            claims: READ_RE,
            ..Fx::new("R")
        }));
        gb.connect(f, 0, w);
        gb.connect(w, 0, r1);
        gb.connect(f, 1, r2);
        gb.connect_exit(r1, 0);
        gb.connect_exit(r2, 0);
        let g = gb.build().unwrap();
        let report = g.verify();
        let hits: Vec<_> = report.with_code(Code::PathReadUnwritten).collect();
        assert_eq!(hits.len(), 1, "{}", report.render_text());
        assert_eq!(hits[0].node, Some(r2.0));
        assert!(hits[0].message.contains("Fork -> R"), "{}", hits[0].message);
    }

    #[test]
    fn fixpoint_terminates_on_cycles() {
        let mut gb = GraphBuilder::new();
        let a = gb.add(Box::new(Fx::new("A")));
        let b = gb.add(Box::new(Fx::new("B")));
        gb.connect(a, 0, b);
        gb.connect(b, 0, a);
        let g = gb.build().unwrap();
        g.verify(); // must not hang or panic
    }

    #[test]
    fn join_of_maybe_written_flags_read() {
        // Diamond where only one arm writes: the merge point reads.
        let mut gb = GraphBuilder::new();
        let f = gb.add(Box::new(Fx {
            ports: 2,
            ..Fx::new("Fork")
        }));
        let w = gb.add(Box::new(Fx {
            claims: WRITE_RE,
            ..Fx::new("W")
        }));
        let n = gb.add(Box::new(Fx::new("N")));
        let r = gb.add(Box::new(Fx {
            claims: READ_RE,
            ..Fx::new("R")
        }));
        gb.connect(f, 0, w);
        gb.connect(f, 1, n);
        gb.connect(w, 0, r);
        gb.connect(n, 0, r);
        gb.connect_exit(r, 0);
        let g = gb.build().unwrap();
        let report = g.verify();
        let hit = report.with_code(Code::PathReadUnwritten).next().unwrap();
        // The witness must be the non-writing arm.
        assert!(hit.message.contains("Fork -> N -> R"), "{}", hit.message);
    }

    #[test]
    fn disjoint_collision_is_raised_as_a_warning() {
        static W_A: &[SlotClaim] = &[SlotClaim::writes(anno::FLOW_ID)];
        static W_B: &[SlotClaim] = &[SlotClaim::writes(anno::FLOW_ID)];
        let build = |disjoint: bool| {
            let mut gb = GraphBuilder::new();
            let f = gb.add(Box::new(Fx {
                ports: 2,
                ..Fx::new("Fork")
            }));
            let a = gb.add(Box::new(Fx {
                claims: W_A,
                ..Fx::new("WA")
            }));
            let b = gb.add(Box::new(Fx {
                claims: W_B,
                ..Fx::new("WB")
            }));
            gb.connect(f, 0, a);
            if disjoint {
                gb.connect(f, 1, b);
                gb.connect_exit(a, 0);
            } else {
                gb.connect(a, 0, b);
                gb.connect_exit(f, 1);
            }
            gb.connect_exit(b, 0);
            gb.build().unwrap()
        };
        let report = build(true).verify();
        let d = report.with_code(Code::SlotCollision).next().unwrap();
        assert_eq!(d.severity, Severity::Warn, "{}", d.message);
        assert!(d.message.contains("[deep:"), "{}", d.message);

        let report = build(false).verify();
        let d = report.with_code(Code::SlotCollision).next().unwrap();
        assert_eq!(d.severity, Severity::Error, "{}", d.message);
    }

    #[test]
    fn blackhole_subgraph_flagged_once_at_boundary() {
        let mut gb = GraphBuilder::new();
        let f = gb.add(Box::new(Fx {
            ports: 2,
            ..Fx::new("Fork")
        }));
        let ok = gb.add(Box::new(Fx::new("Ok")));
        let hole = gb.add(Box::new(Fx::new("Hole")));
        gb.connect(f, 0, ok);
        gb.connect(f, 1, hole);
        gb.connect_exit(ok, 0);
        gb.connect_discard(hole, 0);
        let g = gb.build().unwrap();
        assert_eq!(g.verify().with_code(Code::BlackholePath).count(), 1);
    }

    #[test]
    fn direct_discard_edge_is_not_a_blackhole() {
        let mut gb = GraphBuilder::new();
        let f = gb.add(Box::new(Fx {
            ports: 2,
            ..Fx::new("Fork")
        }));
        let ok = gb.add(Box::new(Fx::new("Ok")));
        gb.connect(f, 0, ok);
        gb.connect_discard(f, 1);
        gb.connect_exit(ok, 0);
        let g = gb.build().unwrap();
        assert_eq!(g.verify().with_code(Code::BlackholePath).count(), 0);
    }

    #[test]
    fn required_fact_without_validator_flags_nba043() {
        static REQ4: &[HeaderFact] = &[HeaderFact::Ipv4Valid];
        let mut gb = GraphBuilder::new();
        let a = gb.add(Box::new(Fx::new("A")));
        let ttl = gb.add(Box::new(Fx {
            effects: ElementEffects {
                requires: REQ4,
                ..ElementEffects::default()
            },
            ..Fx::new("Ttl")
        }));
        gb.connect(a, 0, ttl);
        gb.connect_exit(ttl, 0);
        let g = gb.build().unwrap();
        let report = g.verify();
        let hit = report
            .with_code(Code::HeaderBeforeValidation)
            .next()
            .unwrap();
        assert!(hit.message.contains("A -> Ttl"), "{}", hit.message);
    }

    #[test]
    fn redundant_validator_port_is_dead() {
        static EST4: &[(usize, HeaderFact)] = &[(0, HeaderFact::Ipv4Valid)];
        let validator = || Fx {
            ports: 2,
            effects: ElementEffects {
                establishes: EST4,
                ..ElementEffects::default()
            },
            ..Fx::new("Check")
        };
        let mut gb = GraphBuilder::new();
        let v1 = gb.add(Box::new(validator()));
        let v2 = gb.add(Box::new(validator()));
        gb.connect(v1, 0, v2);
        gb.connect_discard(v1, 1);
        gb.connect_exit(v2, 0);
        gb.connect_discard(v2, 1);
        let g = gb.build().unwrap();
        let report = g.verify();
        let hits: Vec<_> = report.with_code(Code::DeadBranch).collect();
        assert_eq!(hits.len(), 1, "{}", report.render_text());
        assert_eq!(hits[0].node, Some(v2.0));
    }
}
