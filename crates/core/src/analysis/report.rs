//! The analyser's one diagnostics type: stable codes, severities, source
//! spans, and the text/JSON renderings every front end prints.

use std::collections::{HashMap, HashSet};
use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but runnable; runtimes log and continue.
    Warn,
    /// The graph is unsafe to run; runtimes refuse to start.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warn => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes. The numeric ranges group the check families:
/// `NBA00x` structural, `NBA01x` annotation slots, `NBA02x` datablocks,
/// `NBA03x` branch shape, `NBA04x` path family, `NBA05x` capacity. Codes
/// are append-only — they appear in CI logs, docs, and tests, so existing
/// numbers never change meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// `NBA001` — element unreachable from the entry (or declared and
    /// never connected).
    UnreachableNode,
    /// `NBA002` — connection uses an output port the element lacks.
    PortArity,
    /// `NBA003` — cycle in the push-only element graph.
    Cycle,
    /// `NBA004` — no path from the entry to a `ToOutput` exit edge.
    NoExit,
    /// `NBA005` — multi-output element leaves a port unconnected (it
    /// silently defaults to the exit).
    UnconnectedPort,
    /// `NBA010` — slot claim outside the 7-slot annotation layout.
    SlotOutOfRange,
    /// `NBA011` — element writes a framework-reserved annotation slot.
    ReservedSlotWrite,
    /// `NBA012` — two element classes write the same annotation slot.
    SlotCollision,
    /// `NBA013` — element reads a slot nothing in the pipeline writes.
    SlotReadUnwritten,
    /// `NBA020` — size-changing datablock write upstream of an offloadable
    /// element whose declared byte range covers the shifted bytes.
    DatablockOverlap,
    /// `NBA021` — annotation postprocess truncates a result wider than
    /// the 8-byte slot.
    AnnotationTruncated,
    /// `NBA022` — datablock declares an empty byte range.
    EmptyDatablock,
    /// `NBA030` — branch under `SplitAlways` policy: every batch splits
    /// (the Figure 1 batch-split problem).
    BatchSplit,
    /// `NBA031` — wide fan-out under `Predict`: prediction covers one
    /// port, so most packets still split.
    WideFanOut,
    /// `NBA040` — path-sensitive: a slot read is not dominated by a write
    /// on some path from the entry (the offending path is printed as an
    /// element chain).
    PathReadUnwritten,
    /// `NBA041` — path-sensitive: an output port no abstract state can
    /// ever take (e.g. the "invalid" port of a validator whose fact
    /// already holds on every incoming path).
    DeadBranch,
    /// `NBA042` — path-sensitive: an edge from exit-reaching code into a
    /// subgraph from which no packet can reach `ToOutput` — traffic is
    /// silently blackholed (explicit `Discard` edges are exempt).
    BlackholePath,
    /// `NBA043` — path-sensitive: a header-dependent element is reachable
    /// before any validator establishes the fact it requires.
    HeaderBeforeValidation,
    /// `NBA050` — capacity: an SPSC ring's depth is below the worst-case
    /// flow-affine burst bound (2 × batch).
    RingUnderBurst,
    /// `NBA051` — capacity: the steering/offload stage violates the
    /// queue law that proves it deadlock-free (a full device aggregate
    /// can never assemble within the producers' in-flight caps).
    SteeringDeadlock,
}

impl Code {
    /// The stable code string (`"NBA001"`…).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnreachableNode => "NBA001",
            Code::PortArity => "NBA002",
            Code::Cycle => "NBA003",
            Code::NoExit => "NBA004",
            Code::UnconnectedPort => "NBA005",
            Code::SlotOutOfRange => "NBA010",
            Code::ReservedSlotWrite => "NBA011",
            Code::SlotCollision => "NBA012",
            Code::SlotReadUnwritten => "NBA013",
            Code::DatablockOverlap => "NBA020",
            Code::AnnotationTruncated => "NBA021",
            Code::EmptyDatablock => "NBA022",
            Code::BatchSplit => "NBA030",
            Code::WideFanOut => "NBA031",
            Code::PathReadUnwritten => "NBA040",
            Code::DeadBranch => "NBA041",
            Code::BlackholePath => "NBA042",
            Code::HeaderBeforeValidation => "NBA043",
            Code::RingUnderBurst => "NBA050",
            Code::SteeringDeadlock => "NBA051",
        }
    }

    /// The default severity of this code. Diagnostics carry it verbatim,
    /// except an `NBA012` collision whose writers the analyser proves
    /// path-disjoint, which is raised at `Warn` (see
    /// [`Diagnostic::severity`]).
    pub fn severity(self) -> Severity {
        match self {
            Code::UnreachableNode
            | Code::PortArity
            | Code::Cycle
            | Code::SlotOutOfRange
            | Code::ReservedSlotWrite
            | Code::SlotCollision
            | Code::DatablockOverlap
            | Code::SteeringDeadlock => Severity::Error,
            Code::NoExit
            | Code::UnconnectedPort
            | Code::SlotReadUnwritten
            | Code::AnnotationTruncated
            | Code::EmptyDatablock
            | Code::BatchSplit
            | Code::WideFanOut
            | Code::PathReadUnwritten
            | Code::DeadBranch
            | Code::BlackholePath
            | Code::HeaderBeforeValidation
            | Code::RingUnderBurst => Severity::Warn,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analyser finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity. Usually `code.severity()`; an `NBA012` collision whose
    /// writers live on provably disjoint branches (so no packet can ever
    /// observe it) is a `Warn`, and its message gains a `[deep: ...]`
    /// suffix explaining the proof.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Graph node the finding anchors to, if any.
    pub node: Option<usize>,
    /// Element class name of that node.
    pub element: Option<String>,
    /// Click-source line (1-based) when the graph came from configuration
    /// text; `None` for programmatically built graphs.
    pub line: Option<usize>,
}

impl Diagnostic {
    /// A finding at its code's default severity, with no element name.
    pub(crate) fn new(
        code: Code,
        message: String,
        node: Option<usize>,
        line: Option<usize>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            message,
            node,
            element: None,
            line,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(line) = self.line {
            write!(f, " line {line}")?;
        }
        write!(f, ": {}", self.message)?;
        match (&self.node, &self.element) {
            (Some(n), Some(e)) => write!(f, " (node {n}, {e})"),
            (Some(n), None) => write!(f, " (node {n})"),
            _ => Ok(()),
        }
    }
}

/// Maps graph nodes and connections back to configuration-source lines.
/// Produced by [`crate::config::build_graph_checked`]; a graph built
/// programmatically has none and its diagnostics carry node ids only.
#[derive(Debug, Clone, Default)]
pub struct SourceMap {
    /// Configuration name of each node (parallel to graph node ids).
    pub node_names: Vec<String>,
    /// Declaration line of each node (0 when unknown).
    pub node_lines: Vec<usize>,
    /// Line of the connection statement wiring `(node, port)`.
    pub conn_lines: HashMap<(usize, usize), usize>,
    /// `(node, port)` pairs the configuration explicitly connected.
    pub connected: HashSet<(usize, usize)>,
    /// Declared names never used by any connection: `(name, class, line)`.
    pub unused_decls: Vec<(String, String, usize)>,
}

impl SourceMap {
    pub(crate) fn node_line(&self, node: usize) -> Option<usize> {
        self.node_lines.get(node).copied().filter(|&l| l > 0)
    }

    pub(crate) fn conn_line(&self, node: usize, port: usize) -> Option<usize> {
        self.conn_lines.get(&(node, port)).copied()
    }

    /// The configuration name of `node`, if known.
    pub fn name(&self, node: usize) -> Option<&str> {
        self.node_names.get(node).map(String::as_str)
    }
}

/// Version of the JSON envelope [`LintReport::render_json`] emits. Bump on
/// any incompatible change to the rendered shape; the golden-file test
/// pins the bytes.
pub const SCHEMA_VERSION: u32 = 1;

/// All findings of one analysis.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Findings, in pass order (structural, slots, datablocks, branches,
    /// paths, capacity).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// `true` when nothing was found (errors *or* warnings).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when at least one `Error` finding exists.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The first `Error` finding, if any.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
    }

    /// All `Warn` findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
    }

    /// Findings carrying `code`.
    pub fn with_code(&self, code: Code) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// One line per finding, errors first.
    pub fn render_text(&self) -> String {
        let mut sorted: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        sorted.sort_by_key(|d| std::cmp::Reverse(d.severity));
        let mut out = String::new();
        for d in sorted {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }

    /// The whole report as one JSON object on one line (machine-readable
    /// `nba-bench lint --json` output; dependency-free like the telemetry
    /// exporters). The envelope carries [`SCHEMA_VERSION`] so consumers
    /// can detect format changes; the exact bytes are pinned by a
    /// golden-file test (`crates/core/tests/lint_json_golden.rs`).
    pub fn render_json(&self) -> String {
        let mut out = format!("{{\"schema_version\":{SCHEMA_VERSION},\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"",
                d.code,
                d.severity,
                crate::telemetry::json_escape(&d.message),
            ));
            if let Some(n) = d.node {
                out.push_str(&format!(",\"node\":{n}"));
            }
            if let Some(e) = &d.element {
                out.push_str(&format!(
                    ",\"element\":\"{}\"",
                    crate::telemetry::json_escape(e)
                ));
            }
            if let Some(l) = d.line {
                out.push_str(&format!(",\"line\":{l}"));
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }
}
