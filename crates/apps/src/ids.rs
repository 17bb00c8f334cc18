//! The intrusion detection system: Aho-Corasick signature matching plus
//! DFA-form regular expression matching (Figure 8d).
//!
//! `ACMatch` scans every payload against the rule set's literal patterns;
//! packets with a literal hit continue to `RegexMatch`, which confirms with
//! the rule's full regular expression — the standard prefilter structure of
//! Snort-class IDSes the paper builds on. `IDSAlert` counts alerts and
//! forwards traffic (a passive monitor).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use nba_core::batch::{anno, Anno, PacketBatch, PacketResult};
use nba_core::element::{
    ComputeMode, DbInput, DbOutput, ElemCtx, Element, ElementEffects, KernelIo, OffloadSpec,
    Postprocess, SlotClaim,
};
use nba_io::proto::ether::ETHER_HDR_LEN;
use nba_io::Packet;
use nba_matcher::aho::Match;
use nba_matcher::{AhoCorasick, Regex};
use nba_sim::{CpuProfile, GpuProfile};

/// Payload scanning starts after the Ethernet header (headers included in
/// the scan, as many Snort rules match on them too).
const SCAN_OFF: usize = ETHER_HDR_LEN;

/// A compiled rule set: literal signatures + regex rules.
pub struct RuleSet {
    /// Literal signatures (compiled into one automaton).
    pub patterns: Vec<Vec<u8>>,
    /// Regex rule sources.
    pub regex_sources: Vec<String>,
    ac: AhoCorasick,
    regexes: Vec<Regex>,
}

impl RuleSet {
    /// Compiles a rule set from literal patterns and regex sources.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty or a regex fails to compile (rule sets
    /// are program inputs, not network inputs).
    pub fn compile(patterns: Vec<Vec<u8>>, regex_sources: Vec<String>) -> RuleSet {
        let ac = AhoCorasick::new(&patterns);
        let regexes = regex_sources
            .iter()
            .map(|s| Regex::new(s).unwrap_or_else(|e| panic!("rule {s:?}: {e}")))
            .collect();
        RuleSet {
            patterns,
            regex_sources,
            ac,
            regexes,
        }
    }

    /// A synthetic Snort-like rule set: `n_literals` random signatures
    /// (8-24 bytes, includes the canonical `"ATTACK"` markers the tests
    /// plant) and `n_regexes` structured rules.
    pub fn synthetic(seed: u64, n_literals: usize, n_regexes: usize) -> RuleSet {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut patterns: Vec<Vec<u8>> = vec![b"ATTACK".to_vec(), b"EVILPATTERN".to_vec()];
        while patterns.len() < n_literals.max(2) {
            let len = rng.gen_range(8..=24);
            // Draw from a sub-alphabet distinct from the generator's a-z
            // payload filler so random traffic rarely false-positives.
            let p: Vec<u8> = (0..len)
                .map(|_| b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_-"[rng.gen_range(0..38)])
                .collect();
            patterns.push(p);
        }
        let mut regex_sources = vec![
            r"ATTACK\d+".to_owned(),
            r"EVILPATTERN".to_owned(),
            r"GET /[\w/]+\.php".to_owned(),
        ];
        while regex_sources.len() < n_regexes.max(1) {
            let a = rng.gen_range(b'A'..=b'Z') as char;
            let b = rng.gen_range(b'A'..=b'Z') as char;
            regex_sources.push(format!("{a}{b}[0-9]{{4,8}}{a}"));
        }
        RuleSet::compile(patterns, regex_sources)
    }

    /// The literal-pattern automaton.
    pub fn ac(&self) -> &AhoCorasick {
        &self.ac
    }

    /// First matching regex index for a payload, if any.
    pub fn regex_match(&self, payload: &[u8]) -> Option<usize> {
        self.regexes.iter().position(|re| re.is_match(payload))
    }
}

impl std::fmt::Debug for RuleSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleSet")
            .field("literals", &self.patterns.len())
            .field("regexes", &self.regex_sources.len())
            .field("ac_states", &self.ac.state_count())
            .finish()
    }
}

/// Aho-Corasick signature matching over packet payloads (offloadable).
///
/// Writes the verdict (pattern index + 1, or 0) into the
/// [`anno::AC_MATCH`] annotation. Output port 0 carries clean packets,
/// port 1 packets with a literal hit (towards the regex confirmer).
pub struct ACMatch {
    rules: Arc<RuleSet>,
    /// Scratch of the batch body, kept for its allocations: the batch's
    /// live slots and the match found in each.
    live: Vec<usize>,
    hits: Vec<Option<Match>>,
}

impl ACMatch {
    /// Creates the matcher over a shared rule set.
    pub fn new(rules: Arc<RuleSet>) -> ACMatch {
        ACMatch {
            rules,
            live: Vec::new(),
            hits: Vec::new(),
        }
    }
}

/// The bytes of a frame the matchers scan.
fn scan_range(pkt: &Packet) -> &[u8] {
    pkt.data().get(SCAN_OFF..).unwrap_or(&[])
}

/// The [`anno::AC_MATCH`] encoding of a scan result.
fn ac_verdict(hit: Option<Match>) -> u64 {
    hit.map_or(0, |m| m.pattern as u64 + 1)
}

impl Element for ACMatch {
    fn class_name(&self) -> &'static str {
        "ACMatch"
    }

    // The CPU path writes the verdict; post_offload reads it back to pick
    // the output port (the GPU-path write is implicit via the spec).
    fn slot_claims(&self) -> &'static [SlotClaim] {
        const CLAIMS: &[SlotClaim] = &[
            SlotClaim::writes(anno::AC_MATCH),
            SlotClaim::reads(anno::AC_MATCH),
        ];
        CLAIMS
    }

    fn output_count(&self) -> usize {
        2
    }

    fn process(
        &mut self,
        ctx: &mut ElemCtx<'_>,
        pkt: &mut Packet,
        anno_set: &mut Anno,
    ) -> PacketResult {
        let verdict = if ctx.compute == ComputeMode::Full {
            ac_verdict(self.rules.ac().first_match(scan_range(pkt)))
        } else {
            0
        };
        anno_set.set(anno::AC_MATCH, verdict);
        PacketResult::Out(u8::from(verdict != 0))
    }

    // What `process` does to one packet, done to the batch's live packets
    // four at a time: the scan is a chain of dependent table loads, and a
    // batch has plenty of independent chains.
    fn process_batch(&mut self, ctx: &mut ElemCtx<'_>, batch: &mut PacketBatch) {
        self.live.clear();
        self.live.extend(batch.live_indices());
        self.hits.clear();
        self.hits.resize(self.live.len(), None);
        if ctx.compute == ComputeMode::Full {
            let payloads: Vec<&[u8]> = (self.live.iter())
                .map(|&i| batch.packet(i).map_or(&[][..], scan_range))
                .collect();
            self.rules.ac().first_match_each(&payloads, &mut self.hits);
        }
        for (&i, &hit) in self.live.iter().zip(&self.hits) {
            let verdict = ac_verdict(hit);
            batch.anno_mut(i).set(anno::AC_MATCH, verdict);
            batch.set_result(i, PacketResult::Out(u8::from(verdict != 0)));
        }
    }

    fn cpu_profile(&self) -> CpuProfile {
        // One DFA transition per byte. The constants are the paper
        // testbed's; the table here is ~1 MiB (L2-resident) and the
        // measured scan is far cheaper (elem.ACMatch.model_over_measured).
        CpuProfile {
            fixed_cycles: 500,
            cycles_per_byte: 45.0,
        }
    }

    fn offload(&self) -> Option<OffloadSpec> {
        let rules = self.rules.clone();
        Some(OffloadSpec {
            input: DbInput::WholePacket { offset: SCAN_OFF },
            output: DbOutput::PerItem { len: 8 },
            gpu: GpuProfile {
                // Per-lane DFA stepping over device memory.
                fixed_ns: 800.0,
                ns_per_byte: 180.0,
            },
            kernel: Arc::new(move |io: KernelIo<'_>| {
                let items: Vec<&[u8]> = (0..io.items).map(|i| io.item_in(i)).collect();
                let mut hits = vec![None; io.items];
                rules.ac().first_match_each(&items, &mut hits);
                for (i, &hit) in hits.iter().enumerate() {
                    let r = io.item_out_range(i);
                    io.output[r].copy_from_slice(&ac_verdict(hit).to_le_bytes());
                }
            }),
            heavy: true,
            postprocess: Postprocess::Annotation(anno::AC_MATCH),
        })
    }

    fn post_offload(&mut self, _: &mut ElemCtx<'_>, batch: &mut PacketBatch) {
        // Flagged packets take port 1 (towards the regex confirmer),
        // exactly like the CPU path.
        for i in 0..batch.slot_count() {
            if batch.packet(i).is_some() {
                let hit = batch.anno(i).get(anno::AC_MATCH) != 0;
                batch.set_result(i, PacketResult::Out(u8::from(hit)));
            }
        }
    }
}

impl std::fmt::Debug for ACMatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ACMatch")
            .field("rules", &self.rules)
            .finish()
    }
}

/// Regex confirmation over packets flagged by [`ACMatch`] (offloadable).
pub struct RegexMatch {
    rules: Arc<RuleSet>,
}

impl RegexMatch {
    /// Creates the matcher over a shared rule set.
    pub fn new(rules: Arc<RuleSet>) -> RegexMatch {
        RegexMatch { rules }
    }
}

impl Element for RegexMatch {
    fn class_name(&self) -> &'static str {
        "RegexMatch"
    }

    fn slot_claims(&self) -> &'static [SlotClaim] {
        const CLAIMS: &[SlotClaim] = &[SlotClaim::writes(anno::RE_MATCH)];
        CLAIMS
    }

    fn process(
        &mut self,
        ctx: &mut ElemCtx<'_>,
        pkt: &mut Packet,
        anno_set: &mut Anno,
    ) -> PacketResult {
        let verdict = if ctx.compute == ComputeMode::Full {
            self.rules
                .regex_match(scan_range(pkt))
                .map_or(0, |i| i as u64 + 1)
        } else {
            0
        };
        anno_set.set(anno::RE_MATCH, verdict);
        PacketResult::Out(0)
    }

    fn cpu_profile(&self) -> CpuProfile {
        // One DFA per rule in the worst case; the prefilter keeps the rate
        // low but flagged packets pay several scans.
        CpuProfile {
            fixed_cycles: 600,
            cycles_per_byte: 55.0,
        }
    }

    fn offload(&self) -> Option<OffloadSpec> {
        let rules = self.rules.clone();
        Some(OffloadSpec {
            input: DbInput::WholePacket { offset: SCAN_OFF },
            output: DbOutput::PerItem { len: 8 },
            gpu: GpuProfile {
                fixed_ns: 1_000.0,
                ns_per_byte: 220.0,
            },
            kernel: Arc::new(move |io: KernelIo<'_>| {
                for i in 0..io.items {
                    let v = rules
                        .regex_match(io.item_in(i))
                        .map_or(0u64, |i| i as u64 + 1);
                    let r = io.item_out_range(i);
                    io.output[r].copy_from_slice(&v.to_le_bytes());
                }
            }),
            heavy: true,
            postprocess: Postprocess::Annotation(anno::RE_MATCH),
        })
    }
}

impl std::fmt::Debug for RegexMatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegexMatch")
            .field("rules", &self.rules)
            .finish()
    }
}

/// Counts alerts from the match annotations and forwards everything.
pub struct IDSAlert {
    /// Shared alert counters (literal hits, regex-confirmed hits).
    pub counters: Arc<AlertCounters>,
    ports: u16,
    next: u16,
}

/// Alert counters shared across worker replicas.
#[derive(Debug, Default)]
pub struct AlertCounters {
    /// Packets with a literal signature hit.
    pub literal_hits: AtomicU64,
    /// Packets confirmed by a regex rule.
    pub confirmed: AtomicU64,
}

impl IDSAlert {
    /// Creates the alert stage, forwarding round-robin over `ports`.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(counters: Arc<AlertCounters>, ports: u16) -> IDSAlert {
        assert!(ports > 0);
        IDSAlert {
            counters,
            ports,
            next: 0,
        }
    }
}

impl Element for IDSAlert {
    fn class_name(&self) -> &'static str {
        "IDSAlert"
    }

    fn slot_claims(&self) -> &'static [SlotClaim] {
        const CLAIMS: &[SlotClaim] = &[
            SlotClaim::reads(anno::AC_MATCH),
            SlotClaim::reads(anno::RE_MATCH),
            SlotClaim::writes(anno::IFACE_OUT),
        ];
        CLAIMS
    }

    fn process(
        &mut self,
        _: &mut ElemCtx<'_>,
        _: &mut Packet,
        anno_set: &mut Anno,
    ) -> PacketResult {
        if anno_set.get(anno::AC_MATCH) != 0 {
            self.counters.literal_hits.fetch_add(1, Ordering::Relaxed);
            if anno_set.get(anno::RE_MATCH) != 0 {
                self.counters.confirmed.fetch_add(1, Ordering::Relaxed);
            }
        }
        anno_set.set(anno::IFACE_OUT, u64::from(self.next));
        self.next = (self.next + 1) % self.ports;
        PacketResult::Out(0)
    }

    fn cpu_profile(&self) -> CpuProfile {
        CpuProfile::fixed(14)
    }

    // Both verdict slots default to 0 = "no hit", which this element
    // treats as a perfectly valid (quiet) verdict — reading them on a
    // path where no matcher ran is not a bug (clean-traffic fast path).
    fn effects(&self) -> ElementEffects {
        const OK: &[SlotClaim] = &[
            SlotClaim::reads(anno::AC_MATCH),
            SlotClaim::reads(anno::RE_MATCH),
        ];
        ElementEffects {
            default_ok: OK,
            ..ElementEffects::default()
        }
    }
}

impl std::fmt::Debug for IDSAlert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IDSAlert")
    }
}

/// Errors from [`parse_snort_rules`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleParseError {
    /// What went wrong.
    pub msg: String,
    /// 1-based line number.
    pub line: usize,
}

impl std::fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rule line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for RuleParseError {}

/// Parses a Snort-dialect rule file into a compiled [`RuleSet`].
///
/// Supported subset (what the matching engines consume):
///
/// ```text
/// # comment
/// alert tcp any any -> any 80 (msg:"demo"; content:"GET /admin"; \
///                              content:"|DE AD BE EF|"; pcre:"/id=\d+/";)
/// ```
///
/// Every `content` literal (with `|hex|` spans) joins the Aho-Corasick
/// pattern set; every `pcre` body joins the regex set. Other options are
/// accepted and ignored. Actions other than `alert`/`log`/`drop` are
/// rejected.
pub fn parse_snort_rules(text: &str) -> Result<RuleSet, RuleParseError> {
    let mut patterns: Vec<Vec<u8>> = Vec::new();
    let mut regexes: Vec<String> = Vec::new();
    for (lno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lno = lno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let action = line.split_whitespace().next().unwrap_or("");
        if !matches!(action, "alert" | "log" | "drop") {
            return Err(RuleParseError {
                msg: format!("unsupported action {action:?}"),
                line: lno,
            });
        }
        let Some(open) = line.find('(') else {
            return Err(RuleParseError {
                msg: "missing option block".to_owned(),
                line: lno,
            });
        };
        let Some(close) = line.rfind(')') else {
            return Err(RuleParseError {
                msg: "unterminated option block".to_owned(),
                line: lno,
            });
        };
        for opt in split_options(&line[open + 1..close]) {
            let opt = opt.trim();
            if let Some(rest) = opt.strip_prefix("content:") {
                let lit = unquote(rest).ok_or_else(|| RuleParseError {
                    msg: "content value must be quoted".to_owned(),
                    line: lno,
                })?;
                let bytes =
                    decode_content(&lit).map_err(|msg| RuleParseError { msg, line: lno })?;
                if bytes.is_empty() {
                    return Err(RuleParseError {
                        msg: "empty content".to_owned(),
                        line: lno,
                    });
                }
                patterns.push(bytes);
            } else if let Some(rest) = opt.strip_prefix("pcre:") {
                let body = unquote(rest).ok_or_else(|| RuleParseError {
                    msg: "pcre value must be quoted".to_owned(),
                    line: lno,
                })?;
                let body = body.strip_prefix('/').ok_or_else(|| RuleParseError {
                    msg: "pcre must start with '/'".to_owned(),
                    line: lno,
                })?;
                let Some(end) = body.rfind('/') else {
                    return Err(RuleParseError {
                        msg: "pcre missing closing '/'".to_owned(),
                        line: lno,
                    });
                };
                regexes.push(body[..end].to_owned());
            }
        }
    }
    if patterns.is_empty() {
        return Err(RuleParseError {
            msg: "no content patterns in rule file".to_owned(),
            line: 0,
        });
    }
    if regexes.is_empty() {
        // The IDS pipeline needs a confirmer stage; match-nothing default.
        regexes.push("$^".to_owned());
    }
    // Compile, converting regex errors into parse errors.
    for r in &regexes {
        if let Err(e) = nba_matcher::Regex::new(r) {
            return Err(RuleParseError {
                msg: format!("pcre {r:?}: {e}"),
                line: 0,
            });
        }
    }
    Ok(RuleSet::compile(patterns, regexes))
}

/// Splits an option block on ';', respecting quoted strings.
fn split_options(block: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    for c in block.chars() {
        match c {
            '"' => {
                quoted = !quoted;
                cur.push(c);
            }
            ';' if !quoted => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

/// Strips surrounding double quotes.
fn unquote(s: &str) -> Option<String> {
    let s = s.trim();
    s.strip_prefix('"')?.strip_suffix('"').map(str::to_owned)
}

/// Decodes a Snort content literal: plain bytes with `|DE AD|` hex spans.
fn decode_content(s: &str) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    let mut rest = s;
    let mut in_hex = false;
    while !rest.is_empty() {
        match rest.find('|') {
            None if in_hex => return Err("unterminated |hex| span".to_owned()),
            None => {
                out.extend_from_slice(rest.as_bytes());
                break;
            }
            Some(pos) => {
                let (head, tail) = rest.split_at(pos);
                if in_hex {
                    for tok in head.split_whitespace() {
                        let b = u8::from_str_radix(tok, 16)
                            .map_err(|_| format!("bad hex byte {tok:?}"))?;
                        out.push(b);
                    }
                } else {
                    out.extend_from_slice(head.as_bytes());
                }
                in_hex = !in_hex;
                rest = &tail[1..];
            }
        }
    }
    if in_hex {
        return Err("unterminated |hex| span".to_owned());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{ctx_harness, run_one_anno};
    use nba_io::proto::FrameBuilder;

    fn frame_with_payload(payload: &[u8]) -> Packet {
        let len = 42 + payload.len();
        let mut f = vec![0u8; len];
        FrameBuilder::default().build_ipv4(&mut f, len, 1, 2);
        f[42..].copy_from_slice(payload);
        Packet::from_bytes(&f)
    }

    #[test]
    fn snort_rules_parse_and_match() {
        let rules = parse_snort_rules(
            r#"
            # demo rule set
            alert tcp any any -> any 80 (msg:"admin probe"; content:"GET /admin"; pcre:"/id=[0-9]+/";)
            alert udp any any -> any any (content:"|DE AD BE EF|"; sid:2;)
            drop ip any any -> any any (content:"X-Evil: yes";)
            "#,
        )
        .unwrap();
        assert_eq!(rules.patterns.len(), 3);
        assert!(rules.ac().is_match(b"GET /admin HTTP/1.1"));
        assert!(rules.ac().is_match(&[0x00, 0xde, 0xad, 0xbe, 0xef, 0x00]));
        assert!(rules.ac().is_match(b"junk X-Evil: yes junk"));
        assert!(!rules.ac().is_match(b"GET /index.html"));
        assert_eq!(rules.regex_match(b"GET /admin?id=42"), Some(0));
        assert_eq!(rules.regex_match(b"GET /admin?id=abc"), None);
    }

    #[test]
    fn snort_parser_reports_errors_with_lines() {
        let err = parse_snort_rules("permit tcp any any -> any any (content:\"x\";)").unwrap_err();
        assert!(err.msg.contains("unsupported action"), "{err}");
        assert_eq!(err.line, 1);

        let err = parse_snort_rules("alert tcp any any -> any any content:\"x\"").unwrap_err();
        assert!(err.msg.contains("option block"), "{err}");

        let err = parse_snort_rules("alert ip a a -> a a (content:\"|ZZ|\";)").unwrap_err();
        assert!(err.msg.contains("bad hex"), "{err}");

        let err = parse_snort_rules("alert ip a a -> a a (pcre:\"/ok/\";)").unwrap_err();
        assert!(err.msg.contains("no content"), "{err}");
    }

    #[test]
    fn snort_rules_without_pcre_get_noop_confirmer() {
        let rules = parse_snort_rules("alert ip a a -> a a (content:\"hit\";)").unwrap();
        assert!(rules.ac().is_match(b"a hit b"));
        // The synthetic never-matching confirmer rejects everything.
        assert_eq!(rules.regex_match(b"anything"), None);
    }

    #[test]
    fn default_rule_set_compiles_to_a_compact_table() {
        let rules = RuleSet::synthetic(42, 512, 16);
        let states = rules.ac().state_count();
        // A row is the 38 signature characters and one shared column.
        assert!(rules.ac().table_bytes() <= 2 << 20, "{states} states");
        assert!(format!("{rules:?}").contains(&format!("ac_states: {states}")));
    }

    #[test]
    fn literal_hit_flags_and_branches() {
        let rules = Arc::new(RuleSet::synthetic(1, 16, 4));
        let mut ac = ACMatch::new(rules);
        let (nls, insp) = ctx_harness();

        let mut clean = frame_with_payload(b"just ordinary chatter here....");
        let (r, a) = run_one_anno(&mut ac, &nls, &insp, &mut clean);
        assert_eq!(r, PacketResult::Out(0));
        assert_eq!(a.get(anno::AC_MATCH), 0);

        let mut evil = frame_with_payload(b"prefix ATTACK007 suffix padpad");
        let (r, a) = run_one_anno(&mut ac, &nls, &insp, &mut evil);
        assert_eq!(r, PacketResult::Out(1));
        assert_eq!(a.get(anno::AC_MATCH), 1); // "ATTACK" is pattern 0.
    }

    #[test]
    fn regex_confirms_attack_shape() {
        let rules = Arc::new(RuleSet::synthetic(1, 16, 4));
        let mut re = RegexMatch::new(rules);
        let (nls, insp) = ctx_harness();

        let mut confirmed = frame_with_payload(b"xx ATTACK1234 yy padding zz...");
        let (_, a) = run_one_anno(&mut re, &nls, &insp, &mut confirmed);
        assert_eq!(a.get(anno::RE_MATCH), 1); // "ATTACK\d+" is rule 0.

        // The literal alone (no digits) does not satisfy the regex.
        let mut partial = frame_with_payload(b"xx ATTACK without digits yy...");
        let (_, a) = run_one_anno(&mut re, &nls, &insp, &mut partial);
        assert_ne!(a.get(anno::RE_MATCH), 1);
    }

    #[test]
    fn alert_stage_counts() {
        let counters = Arc::new(AlertCounters::default());
        let mut alert = IDSAlert::new(counters.clone(), 4);
        let (nls, insp) = ctx_harness();
        let mut pkt = frame_with_payload(b"payload....................");
        // Clean packet.
        let (_, _) = run_one_anno(&mut alert, &nls, &insp, &mut pkt);
        // Literal-only.
        let mut ctxp = frame_with_payload(b"p");
        let mut a = Anno::default();
        a.set(anno::AC_MATCH, 3);
        let mut ectx = nba_core::element::ElemCtx {
            now: nba_sim::Time::ZERO,
            compute: ComputeMode::Full,
            nls: &nls,
            worker: 0,
            inspector: &insp,
        };
        alert.process(&mut ectx, &mut ctxp, &mut a);
        // Confirmed.
        a.set(anno::RE_MATCH, 1);
        alert.process(&mut ectx, &mut ctxp, &mut a);
        assert_eq!(counters.literal_hits.load(Ordering::Relaxed), 2);
        assert_eq!(counters.confirmed.load(Ordering::Relaxed), 1);
    }

    /// Scan ranges with IMIX-spread lengths (50, 580, 1504 and some in
    /// between), one of them empty, `needle` in every fifth at an offset
    /// that moves with the index.
    fn imix_payloads(n: usize, needle: &[u8]) -> Vec<Vec<u8>> {
        const LENS: [usize; 7] = [50, 580, 1504, 50, 51, 316, 1000];
        (0..n)
            .map(|i| {
                let len = if i == 9 { 0 } else { LENS[i % LENS.len()] };
                let mut p: Vec<u8> = (0..len)
                    .map(|j| b'a' + ((i * 7 + j * 3) % 26) as u8)
                    .collect();
                if i % 5 == 0 {
                    let at = (i * 13) % (len - needle.len() + 1);
                    p[at..at + needle.len()].copy_from_slice(needle);
                }
                p
            })
            .collect()
    }

    fn run_kernel(spec: &OffloadSpec, payloads: &[Vec<u8>]) -> Vec<u64> {
        let seg_refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let (staged, out_len) = KernelIo::stage(&seg_refs, &vec![8; payloads.len()]);
        let mut out = vec![0u8; out_len];
        (spec.kernel)(KernelIo::parse(&staged, &mut out));
        out.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn kernels_match_cpu_verdicts() {
        let rules = Arc::new(RuleSet::synthetic(7, 32, 6));
        // One 64-item task through the lockstep scan, item by item against
        // the single scan.
        let payloads = imix_payloads(64, b"EVILPATTERN");
        let got = run_kernel(&ACMatch::new(rules.clone()).offload().unwrap(), &payloads);
        assert_eq!(got.len(), 64);
        for (i, p) in payloads.iter().enumerate() {
            let expect = ac_verdict(rules.ac().first_match(p));
            assert_eq!(got[i], expect, "payload {i}");
            assert_eq!(expect != 0, i % 5 == 0, "payload {i}");
        }

        let payloads: Vec<Vec<u8>> = vec![
            b"nothing to see".to_vec(),
            b"zzz EVILPATTERN zzz".to_vec(),
            b"ATTACK42 and more".to_vec(),
            b"GET /index.php HTTP".to_vec(),
        ];
        let got = run_kernel(
            &RegexMatch::new(rules.clone()).offload().unwrap(),
            &payloads,
        );
        for (i, p) in payloads.iter().enumerate() {
            let expect = rules.regex_match(p).map_or(0, |i| i as u64 + 1);
            assert_eq!(got[i], expect, "payload {i}");
        }
    }

    #[test]
    fn batch_body_matches_per_packet_process() {
        let rules = Arc::new(RuleSet::synthetic(7, 32, 6));
        let mut ac = ACMatch::new(rules);
        let (nls, insp) = ctx_harness();
        let payloads = imix_payloads(64, b"ATTACK");
        let masked = |i: usize| i % 6 == 1 || i == 63;
        for compute in [ComputeMode::Full, ComputeMode::HeadersOnly] {
            let mut ectx = ElemCtx {
                now: nba_sim::Time::ZERO,
                compute,
                nls: &nls,
                worker: 0,
                inspector: &insp,
            };
            let mut batch = PacketBatch::with_capacity(64);
            for p in &payloads {
                batch.push(frame_with_payload(p));
            }
            // A stale verdict the body must overwrite, and masked slots it
            // must leave alone.
            for i in 0..64 {
                batch.anno_mut(i).set(anno::AC_MATCH, 99);
                batch.set_result(i, PacketResult::Drop);
                if masked(i) {
                    batch.mask(i);
                }
            }
            ac.process_batch(&mut ectx, &mut batch);
            let mut hits = 0;
            for (i, p) in payloads.iter().enumerate() {
                if masked(i) {
                    assert_eq!(batch.anno(i).get(anno::AC_MATCH), 99, "slot {i}");
                    assert_eq!(batch.result(i), PacketResult::Drop, "slot {i}");
                    continue;
                }
                let mut a = Anno::default();
                let r = ac.process(&mut ectx, &mut frame_with_payload(p), &mut a);
                assert_eq!(batch.result(i), r, "slot {i}");
                assert_eq!(batch.anno(i).get(anno::AC_MATCH), a.get(anno::AC_MATCH));
                hits += u32::from(r == PacketResult::Out(1));
            }
            // 13 planted slots, of which 25 and 55 are masked.
            assert_eq!(hits, if compute == ComputeMode::Full { 11 } else { 0 });
        }
    }

    #[test]
    fn headers_only_mode_skips_matching() {
        let rules = Arc::new(RuleSet::synthetic(1, 8, 2));
        let mut ac = ACMatch::new(rules);
        let (nls, insp) = ctx_harness();
        let mut pkt = frame_with_payload(b"ATTACK99");
        let mut ectx = nba_core::element::ElemCtx {
            now: nba_sim::Time::ZERO,
            compute: ComputeMode::HeadersOnly,
            nls: &nls,
            worker: 0,
            inspector: &insp,
        };
        let mut a = Anno::default();
        let r = ac.process(&mut ectx, &mut pkt, &mut a);
        assert_eq!(r, PacketResult::Out(0));
        assert_eq!(a.get(anno::AC_MATCH), 0);
    }
}
