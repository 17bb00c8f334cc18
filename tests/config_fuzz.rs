//! Fuzz-style robustness of the configuration front end: no input —
//! arbitrary bytes or mutations of valid pipelines — may panic
//! [`build_graph_checked`]. Everything must come back as a built graph
//! (possibly with diagnostics) or a [`ConfigError`], and every reported
//! line must point inside the source that was given.

use proptest::prelude::*;

use nba::apps::{pipelines, AppConfig};
use nba::core::config::{build_graph_checked, ElementRegistry};
use nba::core::lb;
use nba::core::nls::NodeLocalStorage;
use nba::core::runtime::BuildCtx;

fn registry() -> ElementRegistry {
    let bctx = BuildCtx {
        worker: 0,
        socket: 0,
        nls: NodeLocalStorage::new(),
        balancer: lb::shared(Box::new(lb::CpuOnly)),
        policy: Default::default(),
    };
    pipelines::registry(&bctx, &AppConfig::default())
}

/// Checks the only two acceptable outcomes; panics (proptest failures)
/// for anything else. Returns for reuse across strategies.
fn check_never_panics(src: &str) -> Result<(), String> {
    let lines = src.lines().count().max(1);
    match build_graph_checked(src, &registry(), Default::default()) {
        Ok(checked) => {
            for d in &checked.report.diagnostics {
                if let Some(line) = d.line {
                    if line == 0 || line > lines {
                        return Err(format!(
                            "diagnostic {} points outside the source ({line} of {lines} lines)",
                            d.code
                        ));
                    }
                }
                if let Some(node) = d.node {
                    if node >= checked.graph.len() {
                        return Err(format!(
                            "diagnostic {} names node {node} of {}",
                            d.code,
                            checked.graph.len()
                        ));
                    }
                }
            }
            Ok(())
        }
        Err(e) => {
            if e.line == 0 || e.line > lines {
                return Err(format!(
                    "error '{}' points outside the source (line {} of {lines})",
                    e.msg, e.line
                ));
            }
            Ok(())
        }
    }
}

/// Deterministically mutates a valid config: byte flips, deletions,
/// duplications, and line drops, all driven by the fuzz input.
fn mutate(base: &str, ops: &[(u8, u16)]) -> String {
    let mut bytes: Vec<u8> = base.as_bytes().to_vec();
    for &(kind, at) in ops {
        if bytes.is_empty() {
            break;
        }
        let i = usize::from(at) % bytes.len();
        match kind % 5 {
            0 => bytes[i] = bytes[i].wrapping_add(1 + kind / 5),
            1 => {
                bytes.remove(i);
            }
            2 => bytes.insert(i, b"();->:,\"= xQ9"[usize::from(kind / 5) % 13]),
            3 => {
                // Duplicate a chunk (can duplicate declarations/arrows).
                let end = (i + 1 + usize::from(kind / 5) * 7).min(bytes.len());
                let chunk: Vec<u8> = bytes[i..end].to_vec();
                bytes.splice(i..i, chunk);
            }
            _ => {
                // Drop the rest of the line at `i`.
                let end = bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |p| i + p);
                bytes.drain(i..end);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The shipped stateful-app configurations (also lint fixtures).
const NAT44_SRC: &str = include_str!("../examples/click/nat44.click");
const FW_SRC: &str = include_str!("../examples/click/fw.click");
const MAGLEV_SRC: &str = include_str!("../examples/click/maglev.click");

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary printable-ish soup never panics the parser/assembler.
    #[test]
    fn arbitrary_bytes_never_panic(raw in proptest::collection::vec(any::<u8>(), 0..400)) {
        // Mostly-printable input reaches deeper than pure binary, which
        // the tokenizer rejects immediately; map into that range but keep
        // newlines, quotes, and the config punctuation.
        let src: String = raw
            .iter()
            .map(|&b| match b {
                b'\n' | b'\t' | b' '..=b'~' => b as char,
                _ => char::from(b' ' + (b % 0x5f)),
            })
            .collect();
        prop_assert!(check_never_panics(&src).is_ok(), "{:?}", check_never_panics(&src));
    }

    /// Mutations of the shipped IPv4 pipeline config never panic, and all
    /// spans stay valid.
    #[test]
    fn mutated_ipv4_config_never_panics(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..24),
    ) {
        let src = mutate(pipelines::IPV4_CONFIG, &ops);
        prop_assert!(check_never_panics(&src).is_ok(), "{:?}", check_never_panics(&src));
    }

    /// Same for the IPsec pipeline config (more element classes, more
    /// arguments to corrupt).
    #[test]
    fn mutated_ipsec_config_never_panics(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..24),
    ) {
        let src = mutate(pipelines::IPSEC_CONFIG, &ops);
        prop_assert!(check_never_panics(&src).is_ok(), "{:?}", check_never_panics(&src));
    }

    /// Mutations of the other shipped pipeline definitions never panic:
    /// the IPv6 router, the IPsec receive side, the IDS (the one shipped
    /// config with a branch and two exits) and the L2 forwarder.
    #[test]
    fn mutated_shipped_definitions_never_panic(
        which in 0usize..4,
        ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..24),
    ) {
        let base = [
            pipelines::IPV6_CONFIG,
            pipelines::IPSEC_DECAP_CONFIG,
            pipelines::IDS_CONFIG,
            pipelines::L2FWD_CONFIG,
        ][which];
        let src = mutate(base, &ops);
        prop_assert!(check_never_panics(&src).is_ok(), "{:?}", check_never_panics(&src));
    }

    /// Mutations of the stateful-app configs never panic. These exercise
    /// quoted `key=value` parameters and the two-output firewall, which
    /// the older shipped configs don't have.
    #[test]
    fn mutated_stateful_configs_never_panic(
        which in 0usize..3,
        ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..24),
    ) {
        let base = [NAT44_SRC, FW_SRC, MAGLEV_SRC][which];
        let src = mutate(base, &ops);
        prop_assert!(check_never_panics(&src).is_ok(), "{:?}", check_never_panics(&src));
    }

    /// Adversarial knob values for the stateful elements never panic the
    /// assembler or the element constructors it runs: zero capacities,
    /// one-port pools, frozen epoch clocks, and `u64::MAX` TTLs must all
    /// come back as a built graph or a diagnostic.
    #[test]
    fn stateful_knob_soup_never_panics(
        capacity in proptest::sample::select(vec![0u64, 1, 127, 1 << 20, u64::MAX]),
        ttl in proptest::sample::select(vec![0u64, 1, u64::MAX]),
        epoch in proptest::sample::select(vec![0u64, 1, u64::MAX]),
        ext_ips in proptest::sample::select(vec![0u64, 1, u64::MAX]),
        ports_per_ip in proptest::sample::select(vec![0u64, 1, 64512, u64::MAX]),
        backends in proptest::sample::select(vec![0u64, 1, 7, u64::MAX]),
        table in proptest::sample::select(vec![0u64, 1, 251, u64::MAX]),
        flip in proptest::sample::select(vec![0u64, 1, u64::MAX]),
    ) {
        let src = format!(
            r#"
            src :: FromInput();
            nat :: Nat44("capacity={capacity}", "ttl={ttl}", "epoch={epoch}",
                         "ext_ips={ext_ips}", "ports_per_ip={ports_per_ip}");
            fw  :: ConnTrackFirewall("capacity={capacity}", "embryonic_ttl={ttl}",
                                     "epoch={epoch}");
            lb  :: MaglevLb("backends={backends}", "table={table}",
                            "flip_epoch={flip}", "flip_remove={backends}",
                            "capacity={capacity}");
            out :: ToOutput();
            src -> nat -> fw;
            fw [0] -> lb -> out;
            fw [1] -> Discard;
            "#
        );
        prop_assert!(check_never_panics(&src).is_ok(), "{:?}", check_never_panics(&src));
    }

    /// The static queue-law checks (`NBA05x`) never panic — or overflow —
    /// on arbitrary runtime dimensions, including zeros and extremes.
    #[test]
    fn capacity_checks_never_panic(
        workers in 0usize..1 << 20,
        batch in 0usize..1 << 20,
        ring in 0usize..1 << 30,
        aggregate in 0usize..1 << 30,
        io_threads in 0usize..64,
        drain in any::<bool>(),
    ) {
        use nba::core::runtime::live::LiveConfig;
        use nba::core::analysis::{check_capacity, CapacityModel};
        let m = CapacityModel::from_live(&LiveConfig {
            workers,
            batch,
            ring_capacity: ring,
            aggregate,
            io_threads,
            drain,
            ..LiveConfig::default()
        });
        // Every diagnostic the law checks emit is one of the NBA05x pair.
        for d in &check_capacity(&m).diagnostics {
            prop_assert!(matches!(d.code.as_str(), "NBA050" | "NBA051"), "{d}");
        }
    }
}

/// The unmutated shipped configs still build without Error-severity
/// findings — guards the fuzz baseline itself.
#[test]
fn shipped_configs_are_clean() {
    for src in [
        pipelines::IPV4_CONFIG,
        pipelines::IPV6_CONFIG,
        pipelines::IPSEC_CONFIG,
        pipelines::IPSEC_DECAP_CONFIG,
        pipelines::IDS_CONFIG,
        pipelines::L2FWD_CONFIG,
        NAT44_SRC,
        FW_SRC,
        MAGLEV_SRC,
    ] {
        let checked =
            build_graph_checked(src, &registry(), Default::default()).expect("shipped config");
        assert!(checked.report.first_error().is_none());
    }
}

/// Parameters outside an element's range are configuration errors on the
/// declaring line — never a constructor panic, never a silent truncation —
/// and the range ends build.
#[test]
fn out_of_range_parameters_are_config_errors() {
    let rejected = [
        r#"L2Forward("ports=0")"#,
        r#"IPLookup("ports=0")"#,
        r#"LookupIP6("ports=0")"#,
        r#"RoundRobinOutput("ports=0")"#,
        r#"IDSAlert("ports=0")"#,
        r#"L2Forward("ports=65536")"#,
        r#"IPLookup("ports=65536")"#,
        r#"LookupIP6("ports=65536")"#,
        r#"RoundRobinOutput("ports=65536")"#,
        r#"IDSAlert("ports=65536")"#,
        r#"RandomWeightedBranch("minority=2")"#,
        r#"RandomWeightedBranch("minority=-0.5")"#,
        r#"RandomWeightedBranch("minority=NaN")"#,
        r#"Paint("color=0")"#,
        r#"Paint("color=257")"#,
        r#"CheckPaint("color=256")"#,
    ];
    let accepted = [
        r#"L2Forward("ports=1")"#,
        r#"L2Forward("ports=65535")"#,
        r#"IPLookup("ports=65535", "routes=16")"#,
        r#"LookupIP6("ports=65535", "routes=16")"#,
        r#"RoundRobinOutput("ports=65535")"#,
        r#"IDSAlert("ports=65535")"#,
        r#"RandomWeightedBranch("minority=0")"#,
        r#"RandomWeightedBranch("minority=1")"#,
        r#"Paint("color=1")"#,
        r#"Paint("color=255")"#,
        r#"CheckPaint("color=0")"#,
        r#"CheckPaint("color=255")"#,
    ];
    let src = |decl: &str| format!("src :: FromInput();\nx :: {decl};\nsrc -> x -> ToOutput;\n");
    let reg = registry();
    for decl in rejected {
        match build_graph_checked(&src(decl), &reg, Default::default()) {
            Ok(_) => panic!("{decl}: built"),
            Err(e) => {
                assert!(e.msg.contains("out of range"), "{decl}: {e}");
                assert_eq!(e.line, 2, "{decl}: {e}");
            }
        }
    }
    for decl in accepted {
        if let Err(e) = build_graph_checked(&src(decl), &reg, Default::default()) {
            panic!("{decl}: {e}");
        }
    }
}
