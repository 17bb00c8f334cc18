//! The pipeline configuration language (§3.2).
//!
//! NBA "takes advantage of the Click configuration language to compose its
//! elements, with a minor syntax modification to ease parsing element
//! configuration parameters by forcing quotation marks around them". This
//! module implements that dialect:
//!
//! ```text
//! // Declarations:  name :: Class("param1", "param2");
//! src  :: FromInput();
//! chk  :: CheckIPHeader();
//! rt   :: IPLookup("seed=42", "entries=65536");
//! out  :: ToOutput();
//!
//! // Connections (with optional output ports in brackets):
//! src -> chk;
//! chk [0] -> rt -> out;
//! chk [1] -> Discard;
//! ```
//!
//! `FromInput`, `ToOutput`, and `Discard` are framework pseudo-elements:
//! the packet source, the transmit sink (which routes by the
//! [`crate::batch::anno::IFACE_OUT`] annotation), and the drop sink. They
//! carry the hardware resource mapping so user elements never need
//! multi-edge branches for resource selection (§3.2, Figure 5).
//!
//! **Node numbering.** An element gets its node id ([`NodeId`]) when a
//! connection first mentions it, not when it is declared: ids count from 0
//! in the order connections appear, each chain read left to right. In the
//! example above `chk` is node 0 and `rt` node 1, whatever order the
//! declarations come in. A declared element no connection mentions is not
//! a node at all (`NBA001`). These ids name nodes in element profiles, bench
//! artifacts and diagnostics.

use std::collections::HashMap;
use std::sync::Arc;

use crate::analysis::{Code, Diagnostic, LintReport, SourceMap};
use crate::element::Element;
use crate::graph::{BranchPolicy, ElementGraph, GraphBuilder, NodeId};

/// An element factory: builds an element from its quoted parameters.
pub type Factory = Arc<dyn Fn(&[String]) -> Result<Box<dyn Element>, String> + Send + Sync>;

/// Maps class names to factories.
#[derive(Clone, Default)]
pub struct ElementRegistry {
    factories: HashMap<String, Factory>,
}

impl ElementRegistry {
    /// Creates an empty registry.
    pub fn new() -> ElementRegistry {
        ElementRegistry::default()
    }

    /// Registers a factory under `class`.
    pub fn register<F>(&mut self, class: &str, f: F)
    where
        F: Fn(&[String]) -> Result<Box<dyn Element>, String> + Send + Sync + 'static,
    {
        self.factories.insert(class.to_owned(), Arc::new(f));
    }

    /// Looks up a factory.
    pub fn get(&self, class: &str) -> Option<&Factory> {
        self.factories.get(class)
    }

    /// Registered class names (sorted, for diagnostics).
    pub fn classes(&self) -> Vec<String> {
        let mut v: Vec<String> = self.factories.keys().cloned().collect();
        v.sort();
        v
    }
}

impl std::fmt::Debug for ElementRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ElementRegistry({} classes)", self.factories.len())
    }
}

/// Configuration parse/build errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Human-readable description.
    pub msg: String,
    /// Line number (1-based) where the problem was found.
    pub line: usize,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ConfigError {}

// --- Lexer ---

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(usize),
    ColonColon,
    Arrow,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Semi,
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ConfigError> {
    let mut toks = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(ConfigError {
                            msg: "unterminated block comment".to_owned(),
                            line,
                        });
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            b':' if bytes.get(i + 1) == Some(&b':') => {
                toks.push((Tok::ColonColon, line));
                i += 2;
            }
            b'-' if bytes.get(i + 1) == Some(&b'>') => {
                toks.push((Tok::Arrow, line));
                i += 2;
            }
            b'(' => {
                toks.push((Tok::LParen, line));
                i += 1;
            }
            b')' => {
                toks.push((Tok::RParen, line));
                i += 1;
            }
            b'[' => {
                toks.push((Tok::LBracket, line));
                i += 1;
            }
            b']' => {
                toks.push((Tok::RBracket, line));
                i += 1;
            }
            b',' => {
                toks.push((Tok::Comma, line));
                i += 1;
            }
            b';' => {
                toks.push((Tok::Semi, line));
                i += 1;
            }
            b'"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    if bytes[j] == b'\n' {
                        return Err(ConfigError {
                            msg: "newline inside string".to_owned(),
                            line,
                        });
                    }
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(ConfigError {
                        msg: "unterminated string".to_owned(),
                        line,
                    });
                }
                toks.push((Tok::Str(src[start..j].to_owned()), line));
                i = j + 1;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: usize = src[start..i].parse().map_err(|_| ConfigError {
                    msg: "number too large".to_owned(),
                    line,
                })?;
                toks.push((Tok::Num(n), line));
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push((Tok::Ident(src[start..i].to_owned()), line));
            }
            other => {
                return Err(ConfigError {
                    msg: format!("unexpected character {:?}", other as char),
                    line,
                })
            }
        }
    }
    Ok(toks)
}

// --- Parser / builder ---

#[derive(Debug)]
struct Decl {
    class: String,
    params: Vec<String>,
    line: usize,
}

/// One `from [port] -> to` hop, with the line of its connection statement
/// so the assembler and the linter can report token-accurate spans.
#[derive(Debug)]
struct Conn {
    from: String,
    port: usize,
    to: String,
    line: usize,
}

/// A graph built from configuration text together with its `nba-lint`
/// report and source map (produced by [`build_graph_checked`]).
#[derive(Debug)]
pub struct CheckedGraph {
    /// The wired pipeline replica.
    pub graph: ElementGraph,
    /// All `nba-lint` findings, warnings included.
    pub report: LintReport,
    /// Node/connection → configuration-line mapping.
    pub source: SourceMap,
}

impl CheckedGraph {
    /// The graph, or — when the `nba-lint` report holds an `Error` — that
    /// first error as a [`ConfigError`] with its source line.
    pub fn into_sound(self) -> Result<ElementGraph, ConfigError> {
        if let Some(e) = self.report.first_error() {
            return Err(ConfigError {
                msg: format!("[{}] {}", e.code, e.message),
                line: e.line.unwrap_or(1),
            });
        }
        Ok(self.graph)
    }
}

/// Configuration text parsed once, ready to wire into any number of
/// replicas: every replica of one text is the same graph.
#[derive(Debug)]
pub struct Config {
    decls: HashMap<String, Decl>,
    conns: Vec<Conn>,
}

impl Config {
    /// Parses configuration text; syntax errors fail with their line.
    pub fn parse(src: &str) -> Result<Config, ConfigError> {
        let (decls, conns) = parse(src)?;
        Ok(Config { decls, conns })
    }

    /// Wires one replica and runs the `nba-lint` static verifier over it
    /// (see [`build_graph_checked`]).
    pub fn build_checked(
        &self,
        registry: &ElementRegistry,
        policy: BranchPolicy,
    ) -> Result<CheckedGraph, ConfigError> {
        let (graph, source, pre) = assemble(&self.decls, &self.conns, registry, policy)?;
        let mut report = LintReport { diagnostics: pre };
        report
            .diagnostics
            .extend(crate::analysis::analyze(&graph, Some(&source), None).diagnostics);
        Ok(CheckedGraph {
            graph,
            report,
            source,
        })
    }

    /// Wires one replica without linting it: for the replicas after one
    /// whose [`Config::build_checked`] verdict already stands for them.
    /// Wiring errors (unknown classes, bad parameters) still fail.
    pub fn build_unlinted(
        &self,
        registry: &ElementRegistry,
        policy: BranchPolicy,
    ) -> Result<ElementGraph, ConfigError> {
        Ok(assemble(&self.decls, &self.conns, registry, policy)?.0)
    }
}

/// Parses a configuration and builds a ready-to-run graph, rejecting any
/// pipeline the `nba-lint` static verifier finds unsound (`Error`-severity
/// diagnostics become [`ConfigError`]s with the offending source line;
/// warnings are available via [`build_graph_checked`]).
///
/// Each call produces an independent replica (the runtime builds one per
/// worker thread, §3.2 "replicated pipelines"); [`Config`] parses once for
/// many.
pub fn build_graph(
    src: &str,
    registry: &ElementRegistry,
    policy: BranchPolicy,
) -> Result<ElementGraph, ConfigError> {
    build_graph_checked(src, registry, policy)?.into_sound()
}

/// Like [`build_graph`], but returns the full `nba-lint` report and the
/// source map instead of failing on `Error` diagnostics — the `probe
/// --check` frontend renders everything, the runtimes decide severity.
/// Parse and wiring errors (syntax, unknown classes, double connections)
/// still fail fast as [`ConfigError`]s.
pub fn build_graph_checked(
    src: &str,
    registry: &ElementRegistry,
    policy: BranchPolicy,
) -> Result<CheckedGraph, ConfigError> {
    Config::parse(src)?.build_checked(registry, policy)
}

#[allow(clippy::type_complexity)]
fn parse(src: &str) -> Result<(HashMap<String, Decl>, Vec<Conn>), ConfigError> {
    let toks = lex(src)?;
    let mut pos = 0;

    let mut decls: HashMap<String, Decl> = HashMap::new();
    // Connections by name, plus anonymous uses of pseudo-element classes in
    // connection position.
    let mut conns: Vec<Conn> = Vec::new();

    fn peek(toks: &[(Tok, usize)], pos: usize) -> Option<&Tok> {
        toks.get(pos).map(|(t, _)| t)
    }
    fn line_at(toks: &[(Tok, usize)], pos: usize) -> usize {
        toks.get(pos)
            .or_else(|| toks.last())
            .map(|(_, l)| *l)
            .unwrap_or(1)
    }

    while pos < toks.len() {
        let line = line_at(&toks, pos);
        let Some(Tok::Ident(first)) = peek(&toks, pos) else {
            return Err(ConfigError {
                msg: "expected identifier".to_owned(),
                line,
            });
        };
        let first = first.clone();
        pos += 1;
        match peek(&toks, pos) {
            Some(Tok::ColonColon) => {
                // Declaration.
                pos += 1;
                let Some(Tok::Ident(class)) = peek(&toks, pos) else {
                    // Point at the offending token, not the statement start.
                    return Err(ConfigError {
                        msg: "expected class name after '::'".to_owned(),
                        line: line_at(&toks, pos),
                    });
                };
                let class = class.clone();
                pos += 1;
                let mut params = Vec::new();
                if peek(&toks, pos) == Some(&Tok::LParen) {
                    pos += 1;
                    loop {
                        match peek(&toks, pos) {
                            Some(Tok::RParen) => {
                                pos += 1;
                                break;
                            }
                            Some(Tok::Str(s)) => {
                                params.push(s.clone());
                                pos += 1;
                                if peek(&toks, pos) == Some(&Tok::Comma) {
                                    pos += 1;
                                }
                            }
                            _ => {
                                return Err(ConfigError {
                                    msg: "parameters must be quoted strings".to_owned(),
                                    line: line_at(&toks, pos),
                                })
                            }
                        }
                    }
                }
                if decls.contains_key(&first) {
                    return Err(ConfigError {
                        msg: format!("duplicate declaration of {first:?}"),
                        line,
                    });
                }
                decls.insert(
                    first,
                    Decl {
                        class,
                        params,
                        line,
                    },
                );
                expect_semi(&toks, &mut pos)?;
            }
            Some(Tok::Arrow) | Some(Tok::LBracket) => {
                // Connection chain starting at `first`.
                let mut from = first;
                loop {
                    // Optional output port of `from`.
                    let mut out_port = 0usize;
                    if peek(&toks, pos) == Some(&Tok::LBracket) {
                        pos += 1;
                        let Some(Tok::Num(n)) = peek(&toks, pos) else {
                            return Err(ConfigError {
                                msg: "expected port number".to_owned(),
                                line: line_at(&toks, pos),
                            });
                        };
                        out_port = *n;
                        pos += 1;
                        if peek(&toks, pos) != Some(&Tok::RBracket) {
                            return Err(ConfigError {
                                msg: "expected ']'".to_owned(),
                                line: line_at(&toks, pos),
                            });
                        }
                        pos += 1;
                    }
                    if peek(&toks, pos) != Some(&Tok::Arrow) {
                        break;
                    }
                    pos += 1;
                    // Optional input port of the target (accepted, ignored:
                    // push-only elements have one input).
                    let mut in_port = 0usize;
                    if peek(&toks, pos) == Some(&Tok::LBracket) {
                        pos += 1;
                        let Some(Tok::Num(n)) = peek(&toks, pos) else {
                            return Err(ConfigError {
                                msg: "expected port number".to_owned(),
                                line: line_at(&toks, pos),
                            });
                        };
                        in_port = *n;
                        pos += 1;
                        if peek(&toks, pos) != Some(&Tok::RBracket) {
                            return Err(ConfigError {
                                msg: "expected ']'".to_owned(),
                                line: line_at(&toks, pos),
                            });
                        }
                        pos += 1;
                    }
                    let hop_line = line_at(&toks, pos);
                    let Some(Tok::Ident(to)) = peek(&toks, pos) else {
                        return Err(ConfigError {
                            msg: "expected element name after '->'".to_owned(),
                            line: hop_line,
                        });
                    };
                    let to = to.clone();
                    pos += 1;
                    let _ = in_port; // accepted, ignored: one input per element
                    conns.push(Conn {
                        from: from.clone(),
                        port: out_port,
                        to: to.clone(),
                        line: hop_line,
                    });
                    from = to;
                }
                expect_semi(&toks, &mut pos)?;
            }
            _ => {
                return Err(ConfigError {
                    msg: format!("expected '::' or '->' after {first:?}"),
                    line,
                })
            }
        }
    }

    Ok((decls, conns))
}

fn expect_semi(toks: &[(Tok, usize)], pos: &mut usize) -> Result<(), ConfigError> {
    match toks.get(*pos) {
        Some((Tok::Semi, _)) => {
            *pos += 1;
            Ok(())
        }
        other => Err(ConfigError {
            msg: "expected ';'".to_owned(),
            line: other
                .map(|(_, l)| *l)
                .or_else(|| toks.last().map(|(_, l)| *l))
                .unwrap_or(1),
        }),
    }
}

/// Resolves names (declared or pseudo) and wires the graph, collecting the
/// [`SourceMap`] and pre-wiring diagnostics (`NBA002` arity violations are
/// recorded instead of panicking in [`GraphBuilder::connect`]).
fn assemble(
    decls: &HashMap<String, Decl>,
    conns: &[Conn],
    registry: &ElementRegistry,
    policy: BranchPolicy,
) -> Result<(ElementGraph, SourceMap, Vec<Diagnostic>), ConfigError> {
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Resolved {
        Real(NodeId),
        FromInput,
        ToOutput,
        Discard,
    }

    let mut gb = GraphBuilder::new();
    gb.branch_policy(policy);

    let mut src = SourceMap::default();
    let mut nodes: HashMap<String, Resolved> = HashMap::new();
    let mut classes: Vec<String> = Vec::new(); // class per node id
    let resolve = |name: &str,
                   use_line: usize,
                   nodes: &mut HashMap<String, Resolved>,
                   gb: &mut GraphBuilder,
                   src: &mut SourceMap,
                   classes: &mut Vec<String>|
     -> Result<Resolved, ConfigError> {
        if let Some(r) = nodes.get(name) {
            return Ok(*r);
        }
        let (class, params, line) = match decls.get(name) {
            Some(d) => (d.class.as_str(), d.params.as_slice(), d.line),
            // Anonymous pseudo-element use: `x -> Discard;` — attribute it
            // to the connection that mentions it.
            None => (name, &[][..], use_line),
        };
        let r = match class {
            "FromInput" => Resolved::FromInput,
            "ToOutput" => Resolved::ToOutput,
            "Discard" => Resolved::Discard,
            _ => {
                let factory = registry.get(class).ok_or_else(|| ConfigError {
                    msg: if decls.contains_key(name) {
                        format!("unknown element class {class:?}")
                    } else {
                        format!("undeclared element {name:?}")
                    },
                    line,
                })?;
                let el = factory(params).map_err(|e| ConfigError {
                    msg: format!("configuring {name:?} ({class}): {e}"),
                    line,
                })?;
                let id = gb.add(el);
                src.node_names.push(name.to_owned());
                src.node_lines.push(line);
                classes.push(class.to_owned());
                Resolved::Real(id)
            }
        };
        nodes.insert(name.to_owned(), r);
        Ok(r)
    };

    let mut pre: Vec<Diagnostic> = Vec::new();
    let mut entry: Option<NodeId> = None;
    for conn in conns {
        let Conn {
            from,
            port,
            to,
            line,
        } = conn;
        let f = resolve(from, *line, &mut nodes, &mut gb, &mut src, &mut classes)?;
        let t = resolve(to, *line, &mut nodes, &mut gb, &mut src, &mut classes)?;
        match (f, t) {
            (Resolved::FromInput, Resolved::Real(n)) => {
                if entry.replace(n).is_some() {
                    return Err(ConfigError {
                        msg: "FromInput connected more than once".to_owned(),
                        line: *line,
                    });
                }
            }
            (Resolved::FromInput, _) => {
                return Err(ConfigError {
                    msg: "FromInput must feed a real element".to_owned(),
                    line: *line,
                });
            }
            (Resolved::Real(n), target) => {
                let ports = gb.output_count_of(n);
                if *port >= ports {
                    // Record NBA002 and leave the port unwired — connect()
                    // would panic on the out-of-range index.
                    pre.push(Diagnostic {
                        code: Code::PortArity,
                        severity: Code::PortArity.severity(),
                        message: format!(
                            "{from:?} ({}) has {ports} output port(s) but the \
                             connection uses port {port}",
                            classes[n.0]
                        ),
                        node: Some(n.0),
                        element: Some(classes[n.0].clone()),
                        line: Some(*line),
                    });
                    continue;
                }
                if !src.connected.insert((n.0, *port)) {
                    return Err(ConfigError {
                        msg: format!("output port {port} of {from:?} connected twice"),
                        line: *line,
                    });
                }
                src.conn_lines.insert((n.0, *port), *line);
                match target {
                    Resolved::Real(m) => {
                        gb.connect(n, *port, m);
                    }
                    Resolved::ToOutput => {
                        gb.connect_exit(n, *port);
                    }
                    Resolved::Discard => {
                        gb.connect_discard(n, *port);
                    }
                    Resolved::FromInput => {
                        return Err(ConfigError {
                            msg: "cannot connect into FromInput".to_owned(),
                            line: *line,
                        });
                    }
                }
            }
            (Resolved::ToOutput, _) | (Resolved::Discard, _) => {
                return Err(ConfigError {
                    msg: format!("{from:?} is a sink and has no outputs"),
                    line: *line,
                });
            }
        }
    }

    // Declared names no connection ever mentioned (the linter reports them
    // as NBA001 — they cannot correspond to graph nodes).
    let mut unused: Vec<(String, String, usize)> = decls
        .iter()
        .filter(|(name, _)| !nodes.contains_key(*name))
        .map(|(name, d)| (name.clone(), d.class.clone(), d.line))
        .collect();
    unused.sort_by_key(|(_, _, line)| *line);
    src.unused_decls = unused;

    let entry = entry.ok_or(ConfigError {
        msg: "configuration needs `FromInput -> <element>`".to_owned(),
        line: 1,
    })?;
    gb.entry(entry);
    let graph = gb.build().map_err(|e| ConfigError {
        msg: e.to_string(),
        line: 1,
    })?;
    Ok((graph, src, pre))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Anno, PacketResult};
    use crate::element::ElemCtx;
    use nba_io::Packet;

    struct Nop(&'static str, usize);

    impl Element for Nop {
        fn class_name(&self) -> &'static str {
            self.0
        }
        fn output_count(&self) -> usize {
            self.1
        }
        fn process(&mut self, _: &mut ElemCtx<'_>, _: &mut Packet, _: &mut Anno) -> PacketResult {
            PacketResult::Out(0)
        }
    }

    fn registry() -> ElementRegistry {
        let mut r = ElementRegistry::new();
        r.register("NoOp", |_p| Ok(Box::new(Nop("NoOp", 1))));
        r.register("TwoWay", |_p| Ok(Box::new(Nop("TwoWay", 2))));
        r.register("NeedsParam", |p: &[String]| {
            if p.is_empty() {
                Err("missing parameter".to_owned())
            } else {
                Ok(Box::new(Nop("NeedsParam", 1)) as Box<dyn Element>)
            }
        });
        r
    }

    #[test]
    fn parses_linear_pipeline() {
        let g = build_graph(
            r#"
            // A simple pipeline.
            src :: FromInput();
            a :: NoOp();
            b :: NoOp();
            out :: ToOutput();
            src -> a -> b -> out;
            "#,
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap();
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn nodes_are_numbered_by_first_connection_not_declaration() {
        let checked = build_graph_checked(
            r#"
            src :: FromInput();
            a :: NoOp();
            b :: TwoWay();
            out :: ToOutput();
            src -> b;
            b [0] -> a -> out;
            b [1] -> Discard;
            "#,
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap();
        assert_eq!(checked.source.node_names, ["b", "a"]);
        assert_eq!(checked.graph.element(NodeId(0)).class_name(), "TwoWay");
        assert_eq!(checked.graph.element(NodeId(1)).class_name(), "NoOp");
    }

    #[test]
    fn parses_branch_with_ports_and_discard() {
        let g = build_graph(
            r#"
            src :: FromInput();
            chk :: TwoWay();
            fwd :: NoOp();
            out :: ToOutput();
            src -> chk;
            chk [0] -> fwd -> out;
            chk [1] -> Discard;
            "#,
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap();
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn parameters_are_passed() {
        let err = build_graph(
            r#"
            src :: FromInput();
            x :: NeedsParam();
            src -> x -> ToOutput;
            "#,
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap_err();
        assert!(err.msg.contains("missing parameter"), "{err}");

        build_graph(
            r#"
            src :: FromInput();
            x :: NeedsParam("value", "another");
            src -> x -> ToOutput;
            "#,
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap();
    }

    #[test]
    fn unquoted_parameters_rejected() {
        let err = build_graph(
            r#"x :: NeedsParam(42);"#,
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap_err();
        assert!(err.msg.contains("quoted"), "{err}");
    }

    #[test]
    fn unknown_class_and_undeclared_element_errors() {
        let err = build_graph(
            r#"
            src :: FromInput();
            x :: Mystery();
            src -> x -> ToOutput;
            "#,
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap_err();
        assert!(err.msg.contains("unknown element class"), "{err}");

        let err = build_graph(
            r#"
            src :: FromInput();
            src -> ghost -> ToOutput;
            "#,
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap_err();
        assert!(err.msg.contains("undeclared"), "{err}");
    }

    #[test]
    fn requires_from_input() {
        let err = build_graph(
            r#"
            a :: NoOp();
            a -> ToOutput;
            "#,
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap_err();
        assert!(err.msg.contains("FromInput"), "{err}");
    }

    #[test]
    fn double_connection_rejected() {
        let err = build_graph(
            r#"
            src :: FromInput();
            a :: NoOp();
            b :: NoOp();
            src -> a;
            a -> b;
            a -> ToOutput;
            b -> ToOutput;
            "#,
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap_err();
        assert!(err.msg.contains("connected twice"), "{err}");
    }

    #[test]
    fn comments_and_whitespace_ignored() {
        build_graph(
            "/* block\ncomment */\nsrc :: FromInput(); # hash comment\na :: NoOp(); // line\nsrc -> a -> ToOutput;",
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap();
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = build_graph(
            "src :: FromInput();\na :: NoOp()\nsrc -> a;",
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap_err();
        assert_eq!(err.line, 3); // The missing ';' is noticed at `src`.

        let err = build_graph("a :: \"oops\";", &registry(), BranchPolicy::Predict).unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn class_name_error_points_at_offending_token() {
        // The bad token sits on line 2; the statement starts on line 1.
        let err = build_graph("a ::\n42;", &registry(), BranchPolicy::Predict).unwrap_err();
        assert!(err.msg.contains("class name"), "{err}");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn undeclared_element_error_carries_connection_line() {
        let err = build_graph(
            "src :: FromInput();\na :: NoOp();\nsrc -> a -> ghost;",
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap_err();
        assert!(err.msg.contains("undeclared"), "{err}");
        assert_eq!(err.line, 3);
    }

    #[test]
    fn double_connection_error_carries_connection_line() {
        let err = build_graph(
            "src :: FromInput();\na :: NoOp();\nb :: NoOp();\nsrc -> a;\na -> b;\na -> ToOutput;\nb -> ToOutput;",
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap_err();
        assert!(err.msg.contains("connected twice"), "{err}");
        assert_eq!(err.line, 6);
    }

    #[test]
    fn sink_in_source_position_carries_connection_line() {
        let err = build_graph(
            "src :: FromInput();\na :: NoOp();\nsrc -> a;\na -> Discard;\nDiscard -> a;",
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap_err();
        assert!(err.msg.contains("sink"), "{err}");
        assert_eq!(err.line, 5);
    }

    #[test]
    fn port_arity_violation_is_nba002_with_line() {
        let checked = build_graph_checked(
            "src :: FromInput();\nchk :: TwoWay();\nsrc -> chk;\nchk [5] -> ToOutput;\nchk [0] -> ToOutput;\nchk [1] -> Discard;",
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap();
        let d = checked
            .report
            .with_code(Code::PortArity)
            .next()
            .expect("NBA002");
        assert_eq!(d.line, Some(4));
        assert_eq!(d.element.as_deref(), Some("TwoWay"));
        // The strict frontend refuses the same config outright.
        let err = build_graph(
            "src :: FromInput();\nchk :: TwoWay();\nsrc -> chk;\nchk [5] -> ToOutput;\nchk [0] -> ToOutput;\nchk [1] -> Discard;",
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap_err();
        assert!(err.msg.contains("NBA002"), "{err}");
        assert_eq!(err.line, 4);
    }

    #[test]
    fn unused_declaration_is_nba001_with_decl_line() {
        let err = build_graph(
            "src :: FromInput();\na :: NoOp();\nlost :: NoOp();\nsrc -> a -> ToOutput;",
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap_err();
        assert!(err.msg.contains("NBA001"), "{err}");
        assert_eq!(err.line, 3);
    }

    #[test]
    fn checked_build_reports_source_map() {
        let checked = build_graph_checked(
            "src :: FromInput();\na :: NoOp();\nb :: NoOp();\nsrc -> a -> b -> ToOutput;",
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap();
        assert!(
            checked.report.is_clean(),
            "{}",
            checked.report.render_text()
        );
        assert_eq!(checked.source.name(0), Some("a"));
        assert_eq!(checked.source.name(1), Some("b"));
        assert_eq!(checked.source.node_lines, vec![2, 3]);
    }

    #[test]
    fn duplicate_declaration_rejected() {
        let err = build_graph(
            "a :: NoOp();\na :: NoOp();",
            &registry(),
            BranchPolicy::Predict,
        )
        .unwrap_err();
        assert!(err.msg.contains("duplicate"), "{err}");
    }
}
