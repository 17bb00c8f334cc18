//! The configuration language builds the same pipelines as the
//! programmatic builders: equivalent graphs, equivalent end-to-end results.

use nba::apps::stateful::{FirewallConfig, MaglevConfig, NatConfig};
use nba::apps::{pipelines, AppConfig};
use nba::core::lb;
use nba::core::runtime::{des, traffic_per_port, BuildCtx, PipelineBuilder, RuntimeConfig};
use nba::core::{ElementGraph, NodeId, OutEdge};
use nba::io::TrafficConfig;

fn cfg_and_app() -> (RuntimeConfig, AppConfig) {
    let cfg = RuntimeConfig::test_default();
    let app = AppConfig {
        ports: cfg.topology.ports.len() as u16,
        v4_routes: 2048,
        ..AppConfig::default()
    };
    (cfg, app)
}

#[test]
fn ipv4_config_matches_programmatic_pipeline() {
    let (cfg, app) = cfg_and_app();
    let traffic = traffic_per_port(
        &cfg.topology,
        &TrafficConfig {
            offered_gbps: 2.0,
            ..TrafficConfig::default()
        },
    );
    let from_config = pipelines::pipeline_from_config(pipelines::IPV4_CONFIG, &app);
    let programmatic = pipelines::ipv4_router(&app);
    let a = des::run(
        &cfg,
        &from_config,
        &lb::shared(Box::new(lb::CpuOnly)),
        &traffic,
    );
    let b = des::run(
        &cfg,
        &programmatic,
        &lb::shared(Box::new(lb::CpuOnly)),
        &traffic,
    );
    // Same elements, same order, same tables, same traffic: identical runs.
    assert_eq!(a.tx_packets, b.tx_packets);
    assert_eq!(a.window.tx_frame_bits, b.window.tx_frame_bits);
    assert_eq!(a.window.dropped, b.window.dropped);
}

#[test]
fn ipsec_config_builds_and_encrypts() {
    let (cfg, app) = cfg_and_app();
    let traffic = traffic_per_port(
        &cfg.topology,
        &TrafficConfig {
            offered_gbps: 1.0,
            ..TrafficConfig::default()
        },
    );
    let pipeline = pipelines::pipeline_from_config(pipelines::IPSEC_CONFIG, &app);
    let r = des::run(
        &cfg,
        &pipeline,
        &lb::shared(Box::new(lb::CpuOnly)),
        &traffic,
    );
    assert!(r.tx_packets > 100);
    // Throughput accounting is input-normalized: exactly 64 B per frame
    // even though the transmitted ESP frames are larger.
    assert_eq!(r.window.tx_frame_bits / r.window.tx_packets, 64 * 8);
}

#[test]
fn config_errors_surface_with_location() {
    let (_cfg, app) = cfg_and_app();
    let bctx = BuildCtx {
        worker: 0,
        socket: 0,
        nls: nba::core::nls::NodeLocalStorage::new(),
        balancer: lb::shared(Box::new(lb::CpuOnly)),
        policy: Default::default(),
    };
    let err = pipelines::build_from_config_str(
        "src :: FromInput();\nx :: NoSuchElement();\nsrc -> x -> ToOutput;",
        &bctx,
        &app,
    )
    .unwrap_err();
    assert!(err.msg.contains("unknown element class"), "{err}");
    assert_eq!(err.line, 2);

    let err = pipelines::build_from_config_str(
        "src :: FromInput();\nrt :: IPLookup(\"routes=notanumber\");\nsrc -> rt -> ToOutput;",
        &bctx,
        &app,
    )
    .unwrap_err();
    assert!(err.msg.contains("bad routes"), "{err}");
}

#[test]
fn registry_lists_all_application_elements() {
    let (_cfg, app) = cfg_and_app();
    let bctx = BuildCtx {
        worker: 0,
        socket: 0,
        nls: nba::core::nls::NodeLocalStorage::new(),
        balancer: lb::shared(Box::new(lb::CpuOnly)),
        policy: Default::default(),
    };
    let reg = pipelines::registry(&bctx, &app);
    let classes = reg.classes();
    for expected in [
        "ACMatch",
        "CheckIP6Header",
        "CheckIPHeader",
        "DecIP6HLIM",
        "DecIPTTL",
        "IDSAlert",
        "IPLookup",
        "IPsecAES",
        "IPsecAuthHMAC",
        "IPsecESPEncap",
        "L2Forward",
        "LoadBalance",
        "LookupIP6",
        "NoOp",
        "RandomWeightedBranch",
        "RegexMatch",
        "RoundRobinOutput",
    ] {
        assert!(classes.iter().any(|c| c == expected), "missing {expected}");
    }
}

/// A graph's shape, one line per node in order: its class and every out
/// edge (exits and discards included); the entry node first.
fn shape(g: &ElementGraph) -> Vec<String> {
    let mut lines = vec![format!("entry {:?}", g.entry_node())];
    for i in 0..g.len() {
        let e = g.element(NodeId(i));
        let outs: Vec<Option<OutEdge>> = (0..e.output_count())
            .map(|port| g.out_edge(NodeId(i), port))
            .collect();
        lines.push(format!("{i} {} {outs:?}", e.class_name()));
    }
    lines
}

#[test]
fn every_shipped_config_builds_the_shape_of_the_builder_it_names() {
    let (_cfg, app) = cfg_and_app();
    let bctx = BuildCtx {
        worker: 0,
        socket: 0,
        nls: nba::core::nls::NodeLocalStorage::new(),
        balancer: lb::shared(Box::new(lb::CpuOnly)),
        policy: Default::default(),
    };
    let builder = |name: &str| -> PipelineBuilder {
        match name {
            "conntrack_fw" => pipelines::conntrack_fw(&FirewallConfig::default()),
            "ids" => pipelines::ids(&app).0,
            "ipsec_gateway" => pipelines::ipsec_gateway(&app),
            "ipsec_decap_gateway" => pipelines::ipsec_decap_gateway(&app),
            "ipv4_router" => pipelines::ipv4_router(&app),
            "ipv6_router" => pipelines::ipv6_router(&app),
            "l2fwd" => pipelines::l2fwd(app.ports),
            "maglev_lb" => pipelines::maglev_lb(&MaglevConfig::default()),
            "nat44" => pipelines::nat44(&NatConfig::default()),
            other => panic!("no builder pipelines::{other}"),
        }
    };
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/click");
    let mut checked = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != "click") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        // The header comment names the builder: "Matches `pipelines::X`".
        let name = src
            .split_once("`pipelines::")
            .and_then(|(_, rest)| rest.split_once('`'))
            .unwrap_or_else(|| panic!("{}: names no builder", path.display()))
            .0;
        let from_config = pipelines::build_from_config_str(&src, &bctx, &app)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let programmatic = builder(name)(&bctx);
        assert_eq!(
            shape(&from_config),
            shape(&programmatic),
            "{} drifted from pipelines::{name}",
            path.display()
        );
        checked.push(name.to_owned());
    }
    checked.sort();
    assert_eq!(
        checked,
        [
            "conntrack_fw",
            "ids",
            "ipsec_decap_gateway",
            "ipsec_gateway",
            "ipv4_router",
            "ipv6_router",
            "l2fwd",
            "maglev_lb",
            "nat44"
        ]
    );
}
