//! One failing fixture pipeline per analyser diagnostic code, asserting
//! both the stable code and the configuration source line it points at —
//! the contract `nba-bench lint` and editor integrations build on.

use std::sync::Arc;

use nba_core::analysis::{check_capacity, preflight, CapacityModel, Code, LintReport, Severity};
use nba_core::batch::{anno, Anno, PacketResult};
use nba_core::config::{build_graph, build_graph_checked, ElementRegistry};
use nba_core::element::{
    DbInput, DbOutput, Disposition, ElemCtx, Element, ElementEffects, HeaderFact, KernelIo,
    OffloadSpec, Postprocess, SlotClaim,
};
use nba_core::graph::{BranchPolicy, GraphBuilder};
use nba_core::runtime::live::LiveConfig;
use nba_core::runtime::{des, traffic_per_port, PipelineBuilder, RuntimeConfig};
use nba_io::Packet;
use nba_sim::{GpuProfile, Time};

/// A configurable fixture element: class name, fan-out, slot claims, and an
/// optional offload spec are all injectable per registry entry.
struct Fx {
    name: &'static str,
    ports: usize,
    claims: &'static [SlotClaim],
    spec: Option<OffloadSpec>,
    effects: ElementEffects,
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

static WRITE_FLOW: &[SlotClaim] = &[SlotClaim::writes(anno::FLOW_ID)];
static READ_AC: &[SlotClaim] = &[SlotClaim::reads(anno::AC_MATCH)];
static WRITE_TS: &[SlotClaim] = &[SlotClaim::writes(anno::TIMESTAMP)];
static SLOT_99: &[SlotClaim] = &[SlotClaim::writes(99)];
static WRITE_RE: &[SlotClaim] = &[SlotClaim::writes(anno::RE_MATCH)];
static READ_RE: &[SlotClaim] = &[SlotClaim::reads(anno::RE_MATCH)];

fn registry() -> ElementRegistry {
    let mut r = ElementRegistry::new();
    let fx = |name: &'static str, ports: usize, claims: &'static [SlotClaim]| Fx {
        name,
        ports,
        claims,
        spec: None,
        effects: ElementEffects::default(),
    };
    r.register("Stage", move |_| Ok(Box::new(fx("Stage", 1, &[]))));
    r.register("Fork", move |_| Ok(Box::new(fx("Fork", 2, &[]))));
    r.register("WriteFlow", move |_| {
        Ok(Box::new(fx("WriteFlow", 1, WRITE_FLOW)))
    });
    r.register("StampFlow", move |_| {
        Ok(Box::new(fx("StampFlow", 1, WRITE_FLOW)))
    });
    r.register("ReadAc", move |_| Ok(Box::new(fx("ReadAc", 1, READ_AC))));
    r.register("WriteTs", move |_| Ok(Box::new(fx("WriteTs", 1, WRITE_TS))));
    r.register("BigSlot", move |_| Ok(Box::new(fx("BigSlot", 1, SLOT_99))));
    // A size-changing in-place rewrite from byte 14 on.
    r.register("Grow", |_| {
        Ok(Box::new(Fx {
            name: "Grow",
            ports: 1,
            claims: &[],
            spec: Some(spec(
                DbInput::PartialPacket {
                    offset: 14,
                    len: 64,
                },
                DbOutput::InPlace { extra: 16 },
                Postprocess::WriteBack,
            )),
            effects: ElementEffects::default(),
        }))
    });
    // A whole-packet scanner scattering verdicts into an annotation.
    r.register("Scan", |_| {
        Ok(Box::new(Fx {
            name: "Scan",
            ports: 1,
            claims: &[],
            spec: Some(spec(
                DbInput::WholePacket { offset: 0 },
                DbOutput::PerItem { len: 8 },
                Postprocess::Annotation(anno::AC_MATCH),
            )),
            effects: ElementEffects::default(),
        }))
    });
    // The deep-verifier fixtures: a two-port header validator, a consumer
    // that requires the validated fact, a drop-everything sink, and a
    // writer/reader pair over a non-seeded slot.
    r.register("Check", |_| {
        static EST: &[(usize, HeaderFact)] = &[(0, HeaderFact::Ipv4Valid)];
        Ok(Box::new(Fx {
            name: "Check",
            ports: 2,
            claims: &[],
            spec: None,
            effects: ElementEffects {
                establishes: EST,
                ..ElementEffects::default()
            },
        }))
    });
    r.register("Ttl", |_| {
        static REQ: &[HeaderFact] = &[HeaderFact::Ipv4Valid];
        Ok(Box::new(Fx {
            name: "Ttl",
            ports: 1,
            claims: &[],
            spec: None,
            effects: ElementEffects {
                requires: REQ,
                disposition: Disposition::MayDrop,
                ..ElementEffects::default()
            },
        }))
    });
    r.register("Hole", |_| {
        Ok(Box::new(Fx {
            name: "Hole",
            ports: 1,
            claims: &[],
            spec: None,
            effects: ElementEffects {
                disposition: Disposition::DropAll,
                ..ElementEffects::default()
            },
        }))
    });
    let fx2 = |name: &'static str, claims: &'static [SlotClaim]| Fx {
        name,
        ports: 1,
        claims,
        spec: None,
        effects: ElementEffects::default(),
    };
    r.register("WriteRe", move |_| Ok(Box::new(fx2("WriteRe", WRITE_RE))));
    r.register("ReadRe", move |_| Ok(Box::new(fx2("ReadRe", READ_RE))));
    r
}

/// The first diagnostic with `code`, with its (severity, line).
fn first(src: &str, policy: BranchPolicy, code: Code) -> (Severity, Option<usize>) {
    let checked = build_graph_checked(src, &registry(), policy).expect("fixture must assemble");
    let d = checked
        .report
        .with_code(code)
        .next()
        .unwrap_or_else(|| panic!("expected {code:?} in:\n{}", checked.report.render_text()));
    (d.severity, d.line)
}

#[test]
fn nba001_unreachable_node_points_at_declaration() {
    let (sev, line) = first(
        "src :: FromInput();\na :: Stage();\nb :: Stage();\nsrc -> a -> ToOutput;\nb -> ToOutput;",
        BranchPolicy::Predict,
        Code::UnreachableNode,
    );
    assert_eq!(sev, Severity::Error);
    assert_eq!(line, Some(3));
}

#[test]
fn nba002_port_arity_points_at_connection() {
    let (sev, line) = first(
        "src :: FromInput();\na :: Stage();\nsrc -> a;\na [2] -> ToOutput;\na [0] -> ToOutput;",
        BranchPolicy::Predict,
        Code::PortArity,
    );
    assert_eq!(sev, Severity::Error);
    assert_eq!(line, Some(4));
}

#[test]
fn nba003_cycle_points_at_back_edge() {
    let (sev, line) = first(
        "src :: FromInput();\na :: Stage();\nb :: Stage();\nsrc -> a;\na -> b;\nb -> a;",
        BranchPolicy::Predict,
        Code::Cycle,
    );
    assert_eq!(sev, Severity::Error);
    assert_eq!(line, Some(6));
}

#[test]
fn nba010_slot_out_of_range() {
    let (sev, line) = first(
        "src :: FromInput();\nx :: BigSlot();\nsrc -> x -> ToOutput;",
        BranchPolicy::Predict,
        Code::SlotOutOfRange,
    );
    assert_eq!(sev, Severity::Error);
    assert_eq!(line, Some(2));
}

#[test]
fn nba011_reserved_slot_write() {
    let (sev, line) = first(
        "src :: FromInput();\nt :: WriteTs();\nsrc -> t -> ToOutput;",
        BranchPolicy::Predict,
        Code::ReservedSlotWrite,
    );
    assert_eq!(sev, Severity::Error);
    assert_eq!(line, Some(2));
}

#[test]
fn nba012_slot_collision_between_classes() {
    let (sev, line) = first(
        "src :: FromInput();\nw1 :: WriteFlow();\nw2 :: StampFlow();\nsrc -> w1 -> w2 -> ToOutput;",
        BranchPolicy::Predict,
        Code::SlotCollision,
    );
    assert_eq!(sev, Severity::Error);
    assert_eq!(line, Some(3));
}

#[test]
fn nba013_read_of_unwritten_slot() {
    let (sev, line) = first(
        "src :: FromInput();\nr :: ReadAc();\nsrc -> r -> ToOutput;",
        BranchPolicy::Predict,
        Code::SlotReadUnwritten,
    );
    assert_eq!(sev, Severity::Warn);
    assert_eq!(line, Some(2));
}

#[test]
fn nba020_datablock_overlap_after_size_delta() {
    let (sev, line) = first(
        "src :: FromInput();\ng :: Grow();\ns :: Scan();\nsrc -> g -> s -> ToOutput;",
        BranchPolicy::Predict,
        Code::DatablockOverlap,
    );
    assert_eq!(sev, Severity::Error);
    assert_eq!(line, Some(3));
}

#[test]
fn nba030_batch_split_under_split_always() {
    let cfg = "src :: FromInput();\nf :: Fork();\na :: Stage();\nb :: Stage();\n\
               src -> f;\nf [0] -> a -> ToOutput;\nf [1] -> b -> ToOutput;";
    let (sev, line) = first(cfg, BranchPolicy::SplitAlways, Code::BatchSplit);
    assert_eq!(sev, Severity::Warn);
    assert_eq!(line, Some(2));
    // Warnings never block the strict frontend.
    build_graph(cfg, &registry(), BranchPolicy::SplitAlways).expect("warn-only config builds");
}

#[test]
fn strict_frontend_rejects_error_fixture_with_code_and_line() {
    let err = build_graph(
        "src :: FromInput();\na :: Stage();\nb :: Stage();\nsrc -> a;\na -> b;\nb -> a;",
        &registry(),
        BranchPolicy::Predict,
    )
    .unwrap_err();
    assert!(err.msg.contains("NBA003"), "{err}");
    assert_eq!(err.line, 6);
}

/// Exactly one diagnostic with `code`, with its (severity, line) — the
/// deep-verifier fixtures pin the *count* too, because a path family that
/// double-reports (once per path, once per shallow check) would bury real
/// findings.
fn exactly_one(src: &str, code: Code) -> (Severity, Option<usize>) {
    let checked =
        build_graph_checked(src, &registry(), BranchPolicy::Predict).expect("fixture assembles");
    let hits: Vec<_> = checked.report.with_code(code).collect();
    assert_eq!(
        hits.len(),
        1,
        "expected exactly one {code:?} in:\n{}",
        checked.report.render_text()
    );
    (hits[0].severity, hits[0].line)
}

#[test]
fn nba040_path_read_unwritten_on_one_branch() {
    // The writer lives on the other fork arm: the shallow NBA013 is
    // satisfied (a writer exists), only the path-sensitive check sees the
    // unwritten branch — and names it in the witness chain.
    let src = "src :: FromInput();\nf :: Fork();\nw :: WriteRe();\nr :: ReadRe();\n\
               src -> f;\nf [0] -> w -> ToOutput;\nf [1] -> r -> ToOutput;";
    let (sev, line) = exactly_one(src, Code::PathReadUnwritten);
    assert_eq!(sev, Severity::Warn);
    assert_eq!(line, Some(4));
    let checked = build_graph_checked(src, &registry(), BranchPolicy::Predict).unwrap();
    let d = checked
        .report
        .with_code(Code::PathReadUnwritten)
        .next()
        .unwrap();
    assert!(
        d.message.contains(" -> "),
        "witness path missing: {}",
        d.message
    );
}

#[test]
fn nba041_dead_branch_of_redundant_validator() {
    // The second validator re-checks a fact that already must-holds on
    // every packet reaching it, so its failure port can never fire.
    let src = "src :: FromInput();\nc1 :: Check();\nc2 :: Check();\nsrc -> c1;\n\
               c1 [0] -> c2;\nc1 [1] -> Discard;\nc2 [0] -> ToOutput;\nc2 [1] -> Discard;";
    let (sev, _line) = exactly_one(src, Code::DeadBranch);
    assert_eq!(sev, Severity::Warn);
}

#[test]
fn nba042_silent_blackhole_subgraph() {
    // `Hole` consumes every packet; the edge into it is flagged (a direct
    // `-> Discard` would be explicit and exempt).
    let src = "src :: FromInput();\nf :: Fork();\na :: Stage();\nh :: Hole();\n\
               src -> f;\nf [0] -> a -> ToOutput;\nf [1] -> h;\nh -> Discard;";
    let (sev, _line) = exactly_one(src, Code::BlackholePath);
    assert_eq!(sev, Severity::Warn);
}

#[test]
fn nba042_direct_discard_is_exempt() {
    let src = "src :: FromInput();\nf :: Fork();\na :: Stage();\n\
               src -> f;\nf [0] -> a -> ToOutput;\nf [1] -> Discard;";
    let checked = build_graph_checked(src, &registry(), BranchPolicy::Predict).unwrap();
    assert_eq!(checked.report.with_code(Code::BlackholePath).count(), 0);
}

#[test]
fn nba043_header_use_before_validation() {
    let src = "src :: FromInput();\nt :: Ttl();\nsrc -> t -> ToOutput;";
    let (sev, line) = exactly_one(src, Code::HeaderBeforeValidation);
    assert_eq!(sev, Severity::Warn);
    assert_eq!(line, Some(2));
    // Behind a validator the same element is clean.
    let ok = "src :: FromInput();\nc :: Check();\nt :: Ttl();\nsrc -> c;\n\
              c [0] -> t -> ToOutput;\nc [1] -> Discard;";
    let checked = build_graph_checked(ok, &registry(), BranchPolicy::Predict).unwrap();
    assert!(
        checked.report.is_clean(),
        "{}",
        checked.report.render_text()
    );
}

#[test]
fn nba050_ring_under_burst_bound() {
    let m = CapacityModel::from_live(&LiveConfig {
        ring_capacity: 64,
        batch: 64,
        ..LiveConfig::default()
    });
    let r = check_capacity(&m);
    let hits: Vec<_> = r.with_code(Code::RingUnderBurst).collect();
    assert_eq!(hits.len(), 1, "{}", r.render_text());
    assert_eq!(hits[0].severity, Severity::Warn);
}

#[test]
fn nba051_aggregate_exceeds_inflight_cap() {
    let m = CapacityModel::from_live(&LiveConfig {
        workers: 1,
        aggregate: 64,
        ..LiveConfig::default()
    });
    let r = check_capacity(&m);
    let hits: Vec<_> = r.with_code(Code::SteeringDeadlock).collect();
    assert_eq!(hits.len(), 1, "{}", r.render_text());
    assert_eq!(hits[0].severity, Severity::Error);
}

/// Different classes write FLOW_ID on *disjoint* fork arms.
const DISJOINT_COLLISION: &str = "src :: FromInput();\nf :: Fork();\nw1 :: WriteFlow();\n\
                                  w2 :: StampFlow();\nsrc -> f;\nf [0] -> w1 -> ToOutput;\n\
                                  f [1] -> w2 -> ToOutput;";

#[test]
fn deep_demotion_lets_disjoint_collision_build_strict() {
    // No packet traverses both writers, so the NBA012 collision is raised
    // as a Warn and the strict frontend accepts the config.
    let checked =
        build_graph_checked(DISJOINT_COLLISION, &registry(), BranchPolicy::Predict).unwrap();
    let d = checked
        .report
        .with_code(Code::SlotCollision)
        .next()
        .unwrap();
    assert_eq!(d.severity, Severity::Warn);
    assert!(d.message.contains("[deep:"), "{}", d.message);
    build_graph(DISJOINT_COLLISION, &registry(), BranchPolicy::Predict)
        .expect("warn-only config builds strict");
    // In sequence (one path traverses both writers) it stays an Error.
    let seq = "src :: FromInput();\nw1 :: WriteFlow();\nw2 :: StampFlow();\n\
               src -> w1 -> w2 -> ToOutput;";
    let checked = build_graph_checked(seq, &registry(), BranchPolicy::Predict).unwrap();
    let d = checked
        .report
        .with_code(Code::SlotCollision)
        .next()
        .unwrap();
    assert_eq!(d.severity, Severity::Error);
}

/// One analysis behind every caller: `ElementGraph::verify` on the
/// programmatic form of [`DISJOINT_COLLISION`], `build_graph_checked` on
/// its text, and the runtime preflight all report the same findings.
#[test]
fn every_caller_agrees_on_a_disjoint_collision() {
    let reg = registry();
    let el = |class: &str| reg.get(class).expect("fixture class")(&[]).expect("fixture builds");
    let mut gb = GraphBuilder::new();
    let f = gb.add(el("Fork"));
    let w1 = gb.add(el("WriteFlow"));
    let w2 = gb.add(el("StampFlow"));
    gb.connect(f, 0, w1);
    gb.connect(f, 1, w2);
    gb.connect_exit(w1, 0);
    gb.connect_exit(w2, 0);
    let g = gb.build().unwrap();

    let findings = |r: &LintReport| -> Vec<(Code, Severity, Option<usize>)> {
        r.diagnostics
            .iter()
            .map(|d| (d.code, d.severity, d.node))
            .collect()
    };
    let checked = build_graph_checked(DISJOINT_COLLISION, &reg, BranchPolicy::Predict).unwrap();
    let want = vec![(Code::SlotCollision, Severity::Warn, Some(w2.0))];
    assert_eq!(findings(&checked.report), want);
    assert_eq!(findings(&g.verify()), want);
    let cap = CapacityModel::from_live(&LiveConfig::default());
    assert_eq!(findings(&preflight(&g, &cap)), want);
}

/// The runtimes refuse to start a pipeline that fails verification: the
/// mandatory preflight panics before any batch flows.
#[test]
#[should_panic(expected = "static verification")]
fn des_runtime_refuses_unverified_graph() {
    let build: PipelineBuilder = Arc::new(|ctx| {
        let mut gb = GraphBuilder::new();
        gb.branch_policy(ctx.policy);
        let a = gb.add(Box::new(Fx {
            name: "Entry",
            ports: 1,
            claims: &[],
            spec: None,
            effects: ElementEffects::default(),
        }));
        // An orphan node nothing feeds: NBA001 at Error severity.
        let b = gb.add(Box::new(Fx {
            name: "Orphan",
            ports: 1,
            claims: &[],
            spec: None,
            effects: ElementEffects::default(),
        }));
        gb.connect_exit(a, 0);
        gb.connect_exit(b, 0);
        gb.entry(a);
        gb.build().expect("builder accepts the orphan")
    });
    let cfg = RuntimeConfig {
        warmup: Time::from_ms(1),
        measure: Time::from_ms(1),
        ..RuntimeConfig::default()
    };
    let traffic = traffic_per_port(&cfg.topology, &nba_io::TrafficConfig::default());
    let balancer = nba_core::lb::shared(Box::new(nba_core::lb::CpuOnly));
    des::run(&cfg, &build, &balancer, &traffic);
}
