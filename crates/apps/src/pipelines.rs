//! The sample applications assembled as pipelines (Figure 8), plus the
//! element registry for the configuration language.
//!
//! Builders return [`PipelineBuilder`] closures: the runtime calls them once
//! per worker to create replicas. Big read-only tables (routing tables, SA
//! database, IDS automata) are process-global caches keyed by their seeds —
//! the simulated equivalent of building them once at startup and sharing
//! through node-local storage.
//!
//! Each shipped pipeline has one definition, its `examples/click` file: the
//! IPv4 and IPv6 routers, both IPsec gateways, the IDS and the L2 forwarder
//! build their file's text ([`IPV4_CONFIG`] and siblings) through
//! [`pipeline_from_config`] and the [`registry`], so node ids are those the
//! configuration language assigns. The stateful builders ([`nat44`],
//! [`conntrack_fw`], [`maglev_lb`]) take typed configs and stay hand-wired;
//! their files share their shape with example parameters. The experiment
//! builders ([`branch_echo`], [`echo`], [`noop_chain`]) have no file.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

use nba_core::config::{CheckedGraph, Config, ConfigError, ElementRegistry};
use nba_core::graph::{BranchPolicy, GraphBuilder};
use nba_core::lb::LoadBalanceElement;
use nba_core::runtime::{BuildCtx, PipelineBuilder};

use crate::common::{
    CheckIP6Header, CheckIPHeader, CheckPaint, Classifier, DecIP6HLIM, DecIPTTL, L2Forward, NoOp,
    PacketCounter, Paint, RandomWeightedBranch, RoundRobinOutput,
};
use crate::ids::{ACMatch, AlertCounters, IDSAlert, RegexMatch, RuleSet};
use crate::ipsec::{
    IPsecAES, IPsecAuthHMAC, IPsecAuthVerify, IPsecDecrypt, IPsecESPDecap, IPsecESPEncap, SaTable,
};
use crate::ipv4::{IPLookup, RoutingTableV4};
use crate::ipv6::{LookupIP6, RoutingTableV6};
use crate::stateful::{
    ConnTrackFirewall, FirewallConfig, MaglevConfig, MaglevLb, Nat44, NatConfig,
    NAT_MAX_PORTS_PER_IP,
};

/// Sizing knobs of the sample applications.
#[derive(Debug, Clone, Copy)]
pub struct AppConfig {
    /// Output NIC ports next hops map onto.
    pub ports: u16,
    /// Seed for all generated tables.
    pub seed: u64,
    /// IPv4 routes in the DIR-24-8 table.
    pub v4_routes: usize,
    /// IPv6 routes in the binary-search table.
    pub v6_routes: usize,
    /// IDS literal signatures.
    pub ids_literals: usize,
    /// IDS regex rules.
    pub ids_regexes: usize,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            ports: 8,
            seed: 42,
            v4_routes: 65_536,
            v6_routes: 16_384,
            ids_literals: 512,
            ids_regexes: 16,
        }
    }
}

// --- Process-global table caches (startup state, excluded from timing) ---

/// One process-global cache of shared startup tables keyed by their
/// construction parameters. The map lock is held only to find a key's
/// slot; a table is built under its own slot, so building one table never
/// blocks a lookup of another (concurrent runs with different
/// configurations do not wait on each other's startup).
type TableCache<K, V> = OnceLock<Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>>;

/// The table cached under `key`, built by `build` on first use.
fn cached<K: Hash + Eq, V>(cache: &TableCache<K, V>, key: K, build: impl FnOnce() -> V) -> Arc<V> {
    let slot = cache
        .get_or_init(Default::default)
        .lock()
        .expect("table cache poisoned")
        .entry(key)
        .or_default()
        .clone();
    slot.get_or_init(|| Arc::new(build())).clone()
}

/// The shared IPv4 table for `(seed, routes, ports)`.
pub fn v4_table(seed: u64, routes: usize, hops: u16) -> Arc<RoutingTableV4> {
    static CACHE: TableCache<(u64, usize, u16), RoutingTableV4> = OnceLock::new();
    cached(&CACHE, (seed, routes, hops), || {
        RoutingTableV4::random(seed, routes, hops.max(1).saturating_mul(4))
    })
}

/// The shared IPv6 table for `(seed, routes, ports)`.
pub fn v6_table(seed: u64, routes: usize, hops: u16) -> Arc<RoutingTableV6> {
    static CACHE: TableCache<(u64, usize, u16), RoutingTableV6> = OnceLock::new();
    cached(&CACHE, (seed, routes, hops), || {
        RoutingTableV6::random(seed, routes, hops.max(1).saturating_mul(4))
    })
}

/// The shared SA database for `seed`.
pub fn sa_table(seed: u64) -> Arc<SaTable> {
    static CACHE: TableCache<u64, SaTable> = OnceLock::new();
    cached(&CACHE, seed, || SaTable::new(seed))
}

/// The shared IDS rule set for `(seed, literals, regexes)`.
pub fn rule_set(seed: u64, literals: usize, regexes: usize) -> Arc<RuleSet> {
    static CACHE: TableCache<(u64, usize, usize), RuleSet> = OnceLock::new();
    cached(&CACHE, (seed, literals, regexes), || {
        RuleSet::synthetic(seed, literals, regexes)
    })
}

// --- Pipelines (Figure 8) ---

/// IPv4 router (Fig. 8a): [`IPV4_CONFIG`],
/// `CheckIPHeader -> LB -> IPLookup -> DecIPTTL`.
pub fn ipv4_router(app: &AppConfig) -> PipelineBuilder {
    pipeline_from_config(IPV4_CONFIG, app)
}

/// IPv6 router (Fig. 8b): [`IPV6_CONFIG`],
/// `CheckIP6Header -> LB -> LookupIP6 -> DecIP6HLIM`.
pub fn ipv6_router(app: &AppConfig) -> PipelineBuilder {
    pipeline_from_config(IPV6_CONFIG, app)
}

/// IPsec gateway (Fig. 8c): [`IPSEC_CONFIG`], routing then
/// `IPsecESPEncap -> LB -> IPsecAES -> IPsecAuthHMAC`.
pub fn ipsec_gateway(app: &AppConfig) -> PipelineBuilder {
    pipeline_from_config(IPSEC_CONFIG, app)
}

/// The receive side of the IPsec gateway: [`IPSEC_DECAP_CONFIG`], verify,
/// decrypt, decapsulate, then route the recovered inner packet (the
/// inverse of [`ipsec_gateway`]; both crypto stages are offloadable).
pub fn ipsec_decap_gateway(app: &AppConfig) -> PipelineBuilder {
    pipeline_from_config(IPSEC_DECAP_CONFIG, app)
}

/// IDS (Fig. 8d): [`IDS_CONFIG`],
/// `CheckIPHeader -> LB -> ACMatch -> (RegexMatch) -> IDSAlert`. Returns
/// the alert counters that both `IDSAlert` stages of every replica bump.
pub fn ids(app: &AppConfig) -> (PipelineBuilder, Arc<AlertCounters>) {
    let alerts = Arc::new(AlertCounters::default());
    (config_pipeline(IDS_CONFIG, app, alerts.clone()), alerts)
}

/// NAT44: `CheckIPHeader -> Nat44` — stateful source translation over the
/// per-worker flow shards.
pub fn nat44(cfg: &NatConfig) -> PipelineBuilder {
    let cfg = cfg.clone();
    Arc::new(move |ctx: &BuildCtx| {
        let mut gb = GraphBuilder::new();
        gb.branch_policy(ctx.policy);
        let chk = gb.add(Box::new(CheckIPHeader));
        let nat = gb.add(Box::new(Nat44::new(cfg.clone())));
        gb.connect(chk, 0, nat);
        gb.connect_discard(chk, 1);
        gb.connect_exit(nat, 0);
        gb.entry(chk);
        gb.build().expect("nat44 pipeline")
    })
}

/// Stateful firewall: `CheckIPHeader -> ConnTrackFirewall`, out-of-state
/// segments discarded on port 1.
pub fn conntrack_fw(cfg: &FirewallConfig) -> PipelineBuilder {
    let cfg = cfg.clone();
    Arc::new(move |ctx: &BuildCtx| {
        let mut gb = GraphBuilder::new();
        gb.branch_policy(ctx.policy);
        let chk = gb.add(Box::new(CheckIPHeader));
        let fw = gb.add(Box::new(ConnTrackFirewall::new(cfg.clone())));
        gb.connect(chk, 0, fw);
        gb.connect_discard(chk, 1);
        gb.connect_exit(fw, 0);
        gb.connect_discard(fw, 1);
        gb.entry(chk);
        gb.build().expect("conntrack pipeline")
    })
}

/// Maglev L4 balancer: `CheckIPHeader -> MaglevLb` with connection
/// pinning in the flow shards.
pub fn maglev_lb(cfg: &MaglevConfig) -> PipelineBuilder {
    let cfg = cfg.clone();
    Arc::new(move |ctx: &BuildCtx| {
        let mut gb = GraphBuilder::new();
        gb.branch_policy(ctx.policy);
        let chk = gb.add(Box::new(CheckIPHeader));
        let lb = gb.add(Box::new(MaglevLb::new(cfg.clone())));
        gb.connect(chk, 0, lb);
        gb.connect_discard(chk, 1);
        gb.connect_exit(lb, 0);
        gb.entry(chk);
        gb.build().expect("maglev pipeline")
    })
}

/// Minimal L2 forwarder (the §4.6 latency baseline): [`L2FWD_CONFIG`]
/// over `ports` output ports.
pub fn l2fwd(ports: u16) -> PipelineBuilder {
    pipeline_from_config(
        L2FWD_CONFIG,
        &AppConfig {
            ports,
            ..AppConfig::default()
        },
    )
}

/// The synthetic two-path branch of Figures 1/10: a weighted branch into
/// two echo paths. `minority` is the fraction taking the second path.
pub fn branch_echo(minority: f64, ports: u16) -> PipelineBuilder {
    Arc::new(move |ctx: &BuildCtx| {
        let mut gb = GraphBuilder::new();
        gb.branch_policy(ctx.policy);
        let br = gb.add(Box::new(RandomWeightedBranch::new(
            minority,
            alignment_seed(ctx.worker),
        )));
        let a = gb.add(Box::new(RoundRobinOutput::new(ports)));
        let b = gb.add(Box::new(RoundRobinOutput::new(ports)));
        gb.connect(br, 0, a);
        gb.connect(br, 1, b);
        gb.connect_exit(a, 0);
        gb.connect_exit(b, 0);
        gb.entry(br);
        gb.build().expect("branch pipeline")
    })
}

/// A no-branch echo baseline (Figure 1's solid line).
pub fn echo(ports: u16) -> PipelineBuilder {
    Arc::new(move |ctx: &BuildCtx| {
        let mut gb = GraphBuilder::new();
        gb.branch_policy(ctx.policy);
        let out = gb.add(Box::new(RoundRobinOutput::new(ports)));
        gb.connect_exit(out, 0);
        gb.entry(out);
        gb.build().expect("echo pipeline")
    })
}

/// A linear chain of `n` no-op elements behind an L2 forwarder (§4.2
/// composition-overhead experiment).
pub fn noop_chain(n: usize, ports: u16) -> PipelineBuilder {
    Arc::new(move |ctx: &BuildCtx| {
        let mut gb = GraphBuilder::new();
        gb.branch_policy(ctx.policy);
        let fwd = gb.add(Box::new(L2Forward::new(ports)));
        let mut prev = fwd;
        for _ in 0..n {
            let nop = gb.add(Box::new(NoOp));
            gb.connect(prev, 0, nop);
            prev = nop;
        }
        gb.connect_exit(prev, 0);
        gb.entry(fwd);
        gb.build().expect("noop pipeline")
    })
}

/// Worker-unique seed for stochastic elements.
fn alignment_seed(worker: usize) -> u64 {
    0xb0ba_15ee_d000_0000 | worker as u64
}

// --- The configuration-language registry ---

/// Builds the element registry for a worker's [`BuildCtx`], exposing every
/// application element to the Click-dialect configuration language. The
/// `IDSAlert` stages it builds share one fresh set of alert counters.
///
/// Table-backed elements take parameters of the form `"key=value"`:
/// `IPLookup("routes=65536", "ports=8", "seed=42")`. A value out of its
/// element's range is a configuration error, never a truncation.
pub fn registry(ctx: &BuildCtx, app: &AppConfig) -> ElementRegistry {
    registry_with_alerts(ctx, app, &Arc::default())
}

/// [`registry`] whose `IDSAlert` stages count into `alerts`.
fn registry_with_alerts(
    ctx: &BuildCtx,
    app: &AppConfig,
    alerts: &Arc<AlertCounters>,
) -> ElementRegistry {
    fn param(params: &[String], key: &str) -> Option<String> {
        params.iter().find_map(|p| {
            p.strip_prefix(key)
                .and_then(|r| r.strip_prefix('='))
                .map(str::to_owned)
        })
    }
    fn num(params: &[String], key: &str, default: u64) -> Result<u64, String> {
        match param(params, key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad {key}: {v:?}")),
        }
    }
    type Range = std::ops::RangeInclusive<u64>;
    /// [`num`] for a knob with a range of meaningful values: other values
    /// are a diagnostic, not a silent truncation or a constructor panic.
    fn num_in(params: &[String], key: &str, default: u64, range: Range) -> Result<u64, String> {
        let v = num(params, key, default)?;
        if !range.contains(&v) {
            let (min, max) = range.into_inner();
            return Err(format!("bad {key}: {v} is out of range ({min}..={max})"));
        }
        Ok(v)
    }
    /// An output-port count, `ports=` (1..=65535).
    fn ports(params: &[String], default: u16) -> Result<u16, String> {
        Ok(num_in(params, "ports", u64::from(default), 1..=u64::from(u16::MAX))? as u16)
    }
    /// An annotation colour, `color=` (`min`..=255).
    fn color(params: &[String], min: u64) -> Result<u8, String> {
        Ok(num_in(params, "color", 1, min..=u64::from(u8::MAX))? as u8)
    }

    /// The shared flow-table knobs: `capacity=`, `ttl=`, `embryonic_ttl=`,
    /// `epoch=` (packets per bucket epoch).
    fn flow_table(p: &[String]) -> Result<nba_core::flow::FlowTableConfig, String> {
        let d = nba_core::flow::FlowTableConfig::default();
        Ok(nba_core::flow::FlowTableConfig {
            capacity: num(p, "capacity", d.capacity)?,
            ttl_epochs: num(p, "ttl", d.ttl_epochs)?,
            embryonic_ttl_epochs: num(p, "embryonic_ttl", d.embryonic_ttl_epochs)?,
            epoch_pkts: num(p, "epoch", d.epoch_pkts)?,
        })
    }

    let mut reg = ElementRegistry::new();
    let app = *app;
    let balancer = ctx.balancer.clone();
    let worker = ctx.worker;
    let alerts = alerts.clone();

    reg.register("NoOp", |_| Ok(Box::new(NoOp)));
    reg.register("CheckIPHeader", |_| Ok(Box::new(CheckIPHeader)));
    reg.register("CheckIP6Header", |_| Ok(Box::new(CheckIP6Header)));
    reg.register("DecIPTTL", |_| Ok(Box::new(DecIPTTL)));
    reg.register("DecIP6HLIM", |_| Ok(Box::new(DecIP6HLIM)));
    reg.register("DropBroadcasts", |_| {
        Ok(Box::new(crate::common::DropBroadcasts))
    });
    reg.register("Classifier", |_| Ok(Box::new(Classifier)));
    reg.register("Paint", |p: &[String]| {
        Ok(Box::new(Paint::new(color(p, 1)?)))
    });
    reg.register("CheckPaint", |p: &[String]| {
        Ok(Box::new(CheckPaint::new(color(p, 0)?)))
    });
    reg.register("PacketCounter", |_| {
        Ok(Box::new(PacketCounter::new(std::sync::Arc::new(
            crate::common::CounterStats::default(),
        ))))
    });
    reg.register("L2Forward", move |p| {
        Ok(Box::new(L2Forward::new(ports(p, app.ports)?)))
    });
    reg.register("RoundRobinOutput", move |p| {
        Ok(Box::new(RoundRobinOutput::new(ports(p, app.ports)?)))
    });
    reg.register("RandomWeightedBranch", move |p| {
        let pm = param(p, "minority")
            .unwrap_or_else(|| "0.5".to_owned())
            .parse::<f64>()
            .map_err(|e| e.to_string())?;
        if !(0.0..=1.0).contains(&pm) {
            return Err(format!("bad minority: {pm} is out of range ([0, 1])"));
        }
        Ok(Box::new(RandomWeightedBranch::new(
            pm,
            alignment_seed(worker),
        )))
    });
    reg.register("LoadBalance", move |_| {
        Ok(Box::new(LoadBalanceElement::new(balancer.clone())))
    });
    reg.register("IPLookup", move |p| {
        let seed = num(p, "seed", app.seed)?;
        let routes = num(p, "routes", app.v4_routes as u64)? as usize;
        let ports = ports(p, app.ports)?;
        Ok(Box::new(IPLookup::new(
            v4_table(seed, routes, ports),
            ports,
        )))
    });
    reg.register("LookupIP6", move |p| {
        let seed = num(p, "seed", app.seed)?;
        let routes = num(p, "routes", app.v6_routes as u64)? as usize;
        let ports = ports(p, app.ports)?;
        Ok(Box::new(LookupIP6::new(
            v6_table(seed, routes, ports),
            ports,
        )))
    });
    reg.register("IPsecESPEncap", move |p| {
        let seed = num(p, "seed", app.seed)?;
        Ok(Box::new(IPsecESPEncap::new(sa_table(seed))))
    });
    reg.register("IPsecAES", move |p| {
        let seed = num(p, "seed", app.seed)?;
        Ok(Box::new(IPsecAES::new(sa_table(seed))))
    });
    reg.register("IPsecAuthHMAC", move |p| {
        let seed = num(p, "seed", app.seed)?;
        Ok(Box::new(IPsecAuthHMAC::new(sa_table(seed))))
    });
    reg.register("IPsecAuthVerify", move |p| {
        let seed = num(p, "seed", app.seed)?;
        Ok(Box::new(IPsecAuthVerify::new(sa_table(seed))))
    });
    reg.register("IPsecDecrypt", move |p| {
        let seed = num(p, "seed", app.seed)?;
        Ok(Box::new(IPsecDecrypt::new(sa_table(seed))))
    });
    reg.register("IPsecESPDecap", |_| Ok(Box::new(IPsecESPDecap)));
    reg.register("ACMatch", move |p| {
        let seed = num(p, "seed", app.seed)?;
        let lits = num(p, "literals", app.ids_literals as u64)? as usize;
        let res = num(p, "regexes", app.ids_regexes as u64)? as usize;
        Ok(Box::new(ACMatch::new(rule_set(seed, lits, res))))
    });
    reg.register("RegexMatch", move |p| {
        let seed = num(p, "seed", app.seed)?;
        let lits = num(p, "literals", app.ids_literals as u64)? as usize;
        let res = num(p, "regexes", app.ids_regexes as u64)? as usize;
        Ok(Box::new(RegexMatch::new(rule_set(seed, lits, res))))
    });
    reg.register("Nat44", move |p| {
        let d = NatConfig::default();
        let u32s = 0..=u64::from(u32::MAX);
        let per_ip = 0..=u64::from(NAT_MAX_PORTS_PER_IP);
        Ok(Box::new(Nat44::new(NatConfig {
            ext_ip_base: num_in(p, "ext_ip_base", u64::from(d.ext_ip_base), u32s.clone())? as u32,
            ext_ips: num_in(p, "ext_ips", u64::from(d.ext_ips), u32s)? as u32,
            ports_per_ip: num_in(p, "ports_per_ip", u64::from(d.ports_per_ip), per_ip)? as u32,
            table: flow_table(p)?,
        })))
    });
    reg.register("ConnTrackFirewall", move |p| {
        Ok(Box::new(ConnTrackFirewall::new(FirewallConfig {
            table: flow_table(p)?,
        })))
    });
    reg.register("MaglevLb", move |p| {
        let d = MaglevConfig::default();
        // The clamps bound table construction (O(table × backends)
        // rendezvous hashes, twice) so no configuration can stall
        // graph assembly.
        Ok(Box::new(MaglevLb::new(MaglevConfig {
            backends: num(p, "backends", u64::from(d.backends))?.clamp(1, 512) as u32,
            table_size: num(p, "table", u64::from(d.table_size))?.clamp(1, 1 << 17) as u32,
            ports: num(p, "ports", u64::from(app.ports))?.clamp(1, u64::from(u16::MAX)) as u16,
            seed: num(p, "seed", d.seed)?,
            flip_epoch: num(p, "flip_epoch", d.flip_epoch)?,
            flip_remove: num(p, "flip_remove", u64::from(d.flip_remove))? as u32,
            table: flow_table(p)?,
        })))
    });
    reg.register("IDSAlert", move |p| {
        Ok(Box::new(IDSAlert::new(
            alerts.clone(),
            ports(p, app.ports)?,
        )))
    });
    reg
}

/// Builds a pipeline from configuration-language text: the per-worker
/// registry resolves classes and shared tables; parse errors surface at
/// build time.
pub fn pipeline_from_config(src: &str, app: &AppConfig) -> PipelineBuilder {
    config_pipeline(src, app, Arc::default())
}

/// [`pipeline_from_config`] whose `IDSAlert` stages, in every replica,
/// count into `alerts`. The text is parsed once, here, and only the first
/// replica per branch policy is linted: every replica of one text is the
/// same graph, so that replica's verdict (a lint error names its source
/// line) stands for the rest.
fn config_pipeline(src: &str, app: &AppConfig, alerts: Arc<AlertCounters>) -> PipelineBuilder {
    let config = Config::parse(src);
    let verdicts: Mutex<Vec<(BranchPolicy, Result<(), ConfigError>)>> = Mutex::default();
    let app = *app;
    Arc::new(move |ctx: &BuildCtx| {
        let reg = registry_with_alerts(ctx, &app, &alerts);
        let replica = config.as_ref().map_err(Clone::clone).and_then(|config| {
            let mut verdicts = verdicts.lock().expect("lint verdicts poisoned");
            if let Some((_, verdict)) = verdicts.iter().find(|(p, _)| *p == ctx.policy) {
                return verdict
                    .clone()
                    .and_then(|()| config.build_unlinted(&reg, ctx.policy));
            }
            let first = config.build_checked(&reg, ctx.policy);
            let first = first.and_then(CheckedGraph::into_sound);
            verdicts.push((ctx.policy, first.as_ref().map(|_| ()).map_err(Clone::clone)));
            first
        });
        replica.unwrap_or_else(|e| panic!("pipeline configuration error: {e}"))
    })
}

/// The IPv4 router, the shipped `examples/click/ipv4.click`
/// ([`ipv4_router`]).
pub const IPV4_CONFIG: &str = include_str!("../../../examples/click/ipv4.click");

/// The IPv6 router, the shipped `examples/click/ipv6.click`
/// ([`ipv6_router`]).
pub const IPV6_CONFIG: &str = include_str!("../../../examples/click/ipv6.click");

/// The IPsec gateway, the shipped `examples/click/ipsec.click`
/// ([`ipsec_gateway`]).
pub const IPSEC_CONFIG: &str = include_str!("../../../examples/click/ipsec.click");

/// The IPsec receive side, the shipped `examples/click/ipsec_decap.click`
/// ([`ipsec_decap_gateway`]).
pub const IPSEC_DECAP_CONFIG: &str = include_str!("../../../examples/click/ipsec_decap.click");

/// The IDS, the shipped `examples/click/ids.click` ([`ids`]).
pub const IDS_CONFIG: &str = include_str!("../../../examples/click/ids.click");

/// The L2 forwarder, the shipped `examples/click/l2fwd.click`
/// ([`l2fwd`]).
pub const L2FWD_CONFIG: &str = include_str!("../../../examples/click/l2fwd.click");
