//! Golden-file test of the analyser's JSON report: the exact bytes a
//! fixed diagnostic mix renders to, pinned in `tests/golden/lint_report.json`.
//! The envelope is schema-versioned (`schema_version`), so any change to
//! the wire shape — a renamed key, a new field, a different escape — shows
//! up as a diff here and forces a deliberate re-bless (and, for breaking
//! changes, a `SCHEMA_VERSION` bump).
//!
//! Re-bless after an intentional format change with
//! `NBA_BLESS=1 cargo test -p nba-core --test lint_json_golden`.

use nba_core::analysis::SCHEMA_VERSION;
use nba_core::batch::{anno, Anno, PacketResult};
use nba_core::element::{ElemCtx, Element, SlotClaim};
use nba_core::graph::GraphBuilder;
use nba_io::Packet;

/// Minimal fixture element: everything static, nothing behavioral.
struct Fx {
    name: &'static str,
    ports: usize,
    claims: &'static [SlotClaim],
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
    fn process(&mut self, _: &mut ElemCtx<'_>, _: &mut Packet, _: &mut Anno) -> PacketResult {
        PacketResult::Out(0)
    }
}

/// A graph exercising several diagnostic shapes at once: a warn-level
/// collision (`NBA012` on disjoint branches, `[deep: ...]` suffix) and a
/// path-family finding (`NBA040` with an element-chain witness) whose
/// message carries JSON-relevant `"quotes"` via a class name.
fn fixture_json() -> String {
    static W1: &[SlotClaim] = &[SlotClaim::writes(anno::AC_MATCH)];
    static W2: &[SlotClaim] = &[SlotClaim::writes(anno::AC_MATCH)];
    static R: &[SlotClaim] = &[SlotClaim::reads(anno::AC_MATCH)];
    let mut gb = GraphBuilder::new();
    let fork = gb.add(Box::new(Fx {
        name: "Fork \"3-way\"",
        ports: 3,
        claims: &[],
    }));
    let wa = gb.add(Box::new(Fx {
        name: "StampA",
        ports: 1,
        claims: W1,
    }));
    let wb = gb.add(Box::new(Fx {
        name: "StampB",
        ports: 1,
        claims: W2,
    }));
    let rd = gb.add(Box::new(Fx {
        name: "Reader",
        ports: 1,
        claims: R,
    }));
    gb.connect(fork, 0, wa);
    gb.connect(fork, 1, wb);
    gb.connect(wa, 0, rd);
    // The third arm skips both writers: `Reader`'s slot read is not
    // dominated on it, producing the NBA040 witness chain.
    gb.connect(fork, 2, rd);
    gb.connect_exit(rd, 0);
    gb.connect_exit(wb, 0);
    let g = gb.build().unwrap();
    g.verify().render_json()
}

#[test]
fn lint_json_matches_golden() {
    let got = fixture_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/lint_report.json");
    if std::env::var("NBA_BLESS").is_ok() {
        std::fs::write(path, &got).unwrap();
    }
    let want = std::fs::read_to_string(path).expect("golden file missing; create with NBA_BLESS=1");
    assert_eq!(
        got, want,
        "lint JSON drifted from tests/golden/lint_report.json; if the \
         change is intentional, bump nba_core::analysis::SCHEMA_VERSION for \
         breaking shape changes and re-bless with NBA_BLESS=1"
    );
}

#[test]
fn schema_version_is_pinned_in_envelope() {
    let got = fixture_json();
    // The envelope must lead with the schema version so readers can
    // dispatch before touching diagnostics.
    assert!(
        got.starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION},")),
        "{got}"
    );
    assert_eq!(
        SCHEMA_VERSION, 1,
        "schema bumped: update this pin and the docs"
    );
}
