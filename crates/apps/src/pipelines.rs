//! The sample applications assembled as pipelines (Figure 8), plus the
//! element registry for the configuration language.
//!
//! Builders return [`PipelineBuilder`] closures: the runtime calls them once
//! per worker to create replicas. Big read-only tables (routing tables, SA
//! database, IDS automata) are process-global caches keyed by their seeds —
//! the simulated equivalent of building them once at startup and sharing
//! through node-local storage.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

use nba_core::config::{build_graph, ConfigError, ElementRegistry};
use nba_core::graph::{ElementGraph, GraphBuilder};
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
#[derive(Debug, Clone)]
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
        RoutingTableV4::random(seed, routes, hops.max(1) * 4)
    })
}

/// The shared IPv6 table for `(seed, routes, ports)`.
pub fn v6_table(seed: u64, routes: usize, hops: u16) -> Arc<RoutingTableV6> {
    static CACHE: TableCache<(u64, usize, u16), RoutingTableV6> = OnceLock::new();
    cached(&CACHE, (seed, routes, hops), || {
        RoutingTableV6::random(seed, routes, hops.max(1) * 4)
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

/// IPv4 router: `CheckIPHeader -> LB -> IPLookup -> DecIPTTL` (Fig. 8a).
pub fn ipv4_router(app: &AppConfig) -> PipelineBuilder {
    let app = app.clone();
    Arc::new(move |ctx: &BuildCtx| {
        let table = v4_table(app.seed, app.v4_routes, app.ports);
        let mut gb = GraphBuilder::new();
        gb.branch_policy(ctx.policy);
        let chk = gb.add(Box::new(CheckIPHeader));
        let lb = gb.add(Box::new(LoadBalanceElement::new(ctx.balancer.clone())));
        let rt = gb.add(Box::new(IPLookup::new(table, app.ports)));
        let ttl = gb.add(Box::new(DecIPTTL));
        gb.connect(chk, 0, lb);
        gb.connect_discard(chk, 1);
        gb.connect(lb, 0, rt);
        gb.connect(rt, 0, ttl);
        gb.connect_exit(ttl, 0);
        gb.entry(chk);
        gb.build().expect("ipv4 pipeline")
    })
}

/// IPv6 router: `CheckIP6Header -> LB -> LookupIP6 -> DecIP6HLIM` (Fig. 8b).
pub fn ipv6_router(app: &AppConfig) -> PipelineBuilder {
    let app = app.clone();
    Arc::new(move |ctx: &BuildCtx| {
        let table = v6_table(app.seed, app.v6_routes, app.ports);
        let mut gb = GraphBuilder::new();
        gb.branch_policy(ctx.policy);
        let chk = gb.add(Box::new(CheckIP6Header));
        let lb = gb.add(Box::new(LoadBalanceElement::new(ctx.balancer.clone())));
        let rt = gb.add(Box::new(LookupIP6::new(table, app.ports)));
        let hlim = gb.add(Box::new(DecIP6HLIM));
        gb.connect(chk, 0, lb);
        gb.connect_discard(chk, 1);
        gb.connect(lb, 0, rt);
        gb.connect(rt, 0, hlim);
        gb.connect_exit(hlim, 0);
        gb.entry(chk);
        gb.build().expect("ipv6 pipeline")
    })
}

/// IPsec gateway: routing + `IPsecESPEncap -> LB -> IPsecAES ->
/// IPsecAuthHMAC` (Fig. 8c).
pub fn ipsec_gateway(app: &AppConfig) -> PipelineBuilder {
    let app = app.clone();
    Arc::new(move |ctx: &BuildCtx| {
        let table = v4_table(app.seed, app.v4_routes, app.ports);
        let sa = sa_table(app.seed);
        let mut gb = GraphBuilder::new();
        gb.branch_policy(ctx.policy);
        let chk = gb.add(Box::new(CheckIPHeader));
        let rt = gb.add(Box::new(IPLookup::new(table, app.ports)));
        let ttl = gb.add(Box::new(DecIPTTL));
        let encap = gb.add(Box::new(IPsecESPEncap::new(sa.clone())));
        let lb = gb.add(Box::new(LoadBalanceElement::new(ctx.balancer.clone())));
        let aes = gb.add(Box::new(IPsecAES::new(sa.clone())));
        let auth = gb.add(Box::new(IPsecAuthHMAC::new(sa)));
        gb.connect(chk, 0, rt);
        gb.connect_discard(chk, 1);
        gb.connect(rt, 0, ttl);
        gb.connect(ttl, 0, encap);
        gb.connect(encap, 0, lb);
        gb.connect(lb, 0, aes);
        gb.connect(aes, 0, auth);
        gb.connect_exit(auth, 0);
        gb.entry(chk);
        gb.build().expect("ipsec pipeline")
    })
}

/// The receive side of the IPsec gateway: verify, decrypt, decapsulate,
/// then route the recovered inner packet (the inverse of
/// [`ipsec_gateway`]; both crypto stages are offloadable).
pub fn ipsec_decap_gateway(app: &AppConfig) -> PipelineBuilder {
    let app = app.clone();
    Arc::new(move |ctx: &BuildCtx| {
        let table = v4_table(app.seed, app.v4_routes, app.ports);
        let sa = sa_table(app.seed);
        let mut gb = GraphBuilder::new();
        gb.branch_policy(ctx.policy);
        let chk = gb.add(Box::new(CheckIPHeader));
        let lb = gb.add(Box::new(LoadBalanceElement::new(ctx.balancer.clone())));
        let verify = gb.add(Box::new(IPsecAuthVerify::new(sa.clone())));
        let decrypt = gb.add(Box::new(IPsecDecrypt::new(sa)));
        let decap = gb.add(Box::new(IPsecESPDecap));
        let rt = gb.add(Box::new(IPLookup::new(table, app.ports)));
        let ttl = gb.add(Box::new(DecIPTTL));
        gb.connect(chk, 0, lb);
        gb.connect_discard(chk, 1);
        gb.connect(lb, 0, verify);
        gb.connect(verify, 0, decrypt);
        gb.connect(decrypt, 0, decap);
        gb.connect(decap, 0, rt);
        gb.connect(rt, 0, ttl);
        gb.connect_exit(ttl, 0);
        gb.entry(chk);
        gb.build().expect("ipsec decap pipeline")
    })
}

/// IDS: `CheckIPHeader -> LB -> ACMatch -> (RegexMatch) -> IDSAlert`
/// (Fig. 8d). Returns the shared alert counters for assertions/reports.
pub fn ids(app: &AppConfig) -> (PipelineBuilder, Arc<AlertCounters>) {
    let app = app.clone();
    let counters = Arc::new(AlertCounters::default());
    let counters2 = counters.clone();
    let builder: PipelineBuilder = Arc::new(move |ctx: &BuildCtx| {
        let rules = rule_set(app.seed, app.ids_literals, app.ids_regexes);
        let mut gb = GraphBuilder::new();
        gb.branch_policy(ctx.policy);
        let chk = gb.add(Box::new(CheckIPHeader));
        let lb = gb.add(Box::new(LoadBalanceElement::new(ctx.balancer.clone())));
        let ac = gb.add(Box::new(ACMatch::new(rules.clone())));
        let re = gb.add(Box::new(RegexMatch::new(rules)));
        let alert = gb.add(Box::new(IDSAlert::new(counters2.clone(), app.ports)));
        let alert2 = gb.add(Box::new(IDSAlert::new(counters2.clone(), app.ports)));
        gb.connect(chk, 0, lb);
        gb.connect_discard(chk, 1);
        gb.connect(lb, 0, ac);
        gb.connect(ac, 0, alert);
        gb.connect(ac, 1, re);
        gb.connect(re, 0, alert2);
        gb.connect_exit(alert, 0);
        gb.connect_exit(alert2, 0);
        gb.entry(chk);
        gb.build().expect("ids pipeline")
    });
    (builder, counters)
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

/// Minimal L2 forwarder (the §4.6 latency baseline).
pub fn l2fwd(ports: u16) -> PipelineBuilder {
    Arc::new(move |ctx: &BuildCtx| {
        let mut gb = GraphBuilder::new();
        gb.branch_policy(ctx.policy);
        let fwd = gb.add(Box::new(L2Forward::new(ports)));
        gb.connect_exit(fwd, 0);
        gb.entry(fwd);
        gb.build().expect("l2fwd pipeline")
    })
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
/// application element to the Click-dialect configuration language.
///
/// Table-backed elements take parameters of the form `"key=value"`:
/// `IPLookup("routes=65536", "ports=8", "seed=42")`.
pub fn registry(ctx: &BuildCtx, app: &AppConfig) -> ElementRegistry {
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
    /// [`num`] for a knob with a largest meaningful value: larger values
    /// are a diagnostic, not a silent truncation.
    fn num_at_most(params: &[String], key: &str, default: u64, max: u64) -> Result<u64, String> {
        let v = num(params, key, default)?;
        if v > max {
            return Err(format!("bad {key}: {v} is out of range (at most {max})"));
        }
        Ok(v)
    }

    let mut reg = ElementRegistry::new();
    let app_c = app.clone();
    let balancer = ctx.balancer.clone();
    let worker = ctx.worker;

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
        let color = num(p, "color", 1)? as u8;
        if color == 0 {
            return Err("paint color must be 1..=255".to_owned());
        }
        Ok(Box::new(Paint::new(color)))
    });
    reg.register("CheckPaint", |p: &[String]| {
        let color = num(p, "color", 1)? as u8;
        Ok(Box::new(CheckPaint::new(color)))
    });
    reg.register("PacketCounter", |_| {
        Ok(Box::new(PacketCounter::new(std::sync::Arc::new(
            crate::common::CounterStats::default(),
        ))))
    });
    {
        let app = app_c.clone();
        reg.register("L2Forward", move |p| {
            let ports = num(p, "ports", u64::from(app.ports))? as u16;
            Ok(Box::new(L2Forward::new(ports)))
        });
    }
    {
        let app = app_c.clone();
        reg.register("RoundRobinOutput", move |p| {
            let ports = num(p, "ports", u64::from(app.ports))? as u16;
            Ok(Box::new(RoundRobinOutput::new(ports)))
        });
    }
    {
        reg.register("RandomWeightedBranch", move |p| {
            let pm = param(p, "minority")
                .unwrap_or_else(|| "0.5".to_owned())
                .parse::<f64>()
                .map_err(|e| e.to_string())?;
            Ok(Box::new(RandomWeightedBranch::new(
                pm,
                alignment_seed(worker),
            )))
        });
    }
    {
        let balancer = balancer.clone();
        reg.register("LoadBalance", move |_| {
            Ok(Box::new(LoadBalanceElement::new(balancer.clone())))
        });
    }
    {
        let app = app_c.clone();
        reg.register("IPLookup", move |p| {
            let seed = num(p, "seed", app.seed)?;
            let routes = num(p, "routes", app.v4_routes as u64)? as usize;
            let ports = num(p, "ports", u64::from(app.ports))? as u16;
            Ok(Box::new(IPLookup::new(
                v4_table(seed, routes, ports),
                ports,
            )))
        });
    }
    {
        let app = app_c.clone();
        reg.register("LookupIP6", move |p| {
            let seed = num(p, "seed", app.seed)?;
            let routes = num(p, "routes", app.v6_routes as u64)? as usize;
            let ports = num(p, "ports", u64::from(app.ports))? as u16;
            Ok(Box::new(LookupIP6::new(
                v6_table(seed, routes, ports),
                ports,
            )))
        });
    }
    {
        let app = app_c.clone();
        reg.register("IPsecESPEncap", move |p| {
            let seed = num(p, "seed", app.seed)?;
            Ok(Box::new(IPsecESPEncap::new(sa_table(seed))))
        });
    }
    {
        let app = app_c.clone();
        reg.register("IPsecAES", move |p| {
            let seed = num(p, "seed", app.seed)?;
            Ok(Box::new(IPsecAES::new(sa_table(seed))))
        });
    }
    {
        let app = app_c.clone();
        reg.register("IPsecAuthHMAC", move |p| {
            let seed = num(p, "seed", app.seed)?;
            Ok(Box::new(IPsecAuthHMAC::new(sa_table(seed))))
        });
    }
    {
        let app = app_c.clone();
        reg.register("IPsecAuthVerify", move |p| {
            let seed = num(p, "seed", app.seed)?;
            Ok(Box::new(IPsecAuthVerify::new(sa_table(seed))))
        });
    }
    {
        let app = app_c.clone();
        reg.register("IPsecDecrypt", move |p| {
            let seed = num(p, "seed", app.seed)?;
            Ok(Box::new(IPsecDecrypt::new(sa_table(seed))))
        });
    }
    reg.register("IPsecESPDecap", |_| Ok(Box::new(IPsecESPDecap)));
    {
        let app = app_c.clone();
        reg.register("ACMatch", move |p| {
            let seed = num(p, "seed", app.seed)?;
            let lits = num(p, "literals", app.ids_literals as u64)? as usize;
            let res = num(p, "regexes", app.ids_regexes as u64)? as usize;
            Ok(Box::new(ACMatch::new(rule_set(seed, lits, res))))
        });
    }
    {
        let app = app_c.clone();
        reg.register("RegexMatch", move |p| {
            let seed = num(p, "seed", app.seed)?;
            let lits = num(p, "literals", app.ids_literals as u64)? as usize;
            let res = num(p, "regexes", app.ids_regexes as u64)? as usize;
            Ok(Box::new(RegexMatch::new(rule_set(seed, lits, res))))
        });
    }
    {
        // Shared flow-table knobs: `capacity=`, `ttl=`, `embryonic_ttl=`,
        // `epoch=` (packets per bucket epoch).
        fn flow_table(p: &[String]) -> Result<nba_core::flow::FlowTableConfig, String> {
            let d = nba_core::flow::FlowTableConfig::default();
            Ok(nba_core::flow::FlowTableConfig {
                capacity: num(p, "capacity", d.capacity)?,
                ttl_epochs: num(p, "ttl", d.ttl_epochs)?,
                embryonic_ttl_epochs: num(p, "embryonic_ttl", d.embryonic_ttl_epochs)?,
                epoch_pkts: num(p, "epoch", d.epoch_pkts)?,
            })
        }
        reg.register("Nat44", move |p| {
            let d = NatConfig::default();
            let max_u32 = u64::from(u32::MAX);
            Ok(Box::new(Nat44::new(NatConfig {
                ext_ip_base: num_at_most(p, "ext_ip_base", u64::from(d.ext_ip_base), max_u32)?
                    as u32,
                ext_ips: num_at_most(p, "ext_ips", u64::from(d.ext_ips), max_u32)? as u32,
                ports_per_ip: num_at_most(
                    p,
                    "ports_per_ip",
                    u64::from(d.ports_per_ip),
                    u64::from(NAT_MAX_PORTS_PER_IP),
                )? as u32,
                table: flow_table(p)?,
            })))
        });
        reg.register("ConnTrackFirewall", move |p| {
            Ok(Box::new(ConnTrackFirewall::new(FirewallConfig {
                table: flow_table(p)?,
            })))
        });
        let app = app_c.clone();
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
    }
    {
        let app = app_c.clone();
        reg.register("IDSAlert", move |p| {
            let ports = num(p, "ports", u64::from(app.ports))? as u16;
            // Config-built alert stages get their own counters.
            Ok(Box::new(IDSAlert::new(
                Arc::new(AlertCounters::default()),
                ports,
            )))
        });
    }
    reg
}

/// Builds a pipeline from configuration-language text: the per-worker
/// registry resolves classes and shared tables; parse errors surface at
/// build time.
pub fn pipeline_from_config(src: &str, app: &AppConfig) -> PipelineBuilder {
    let src = src.to_owned();
    let app = app.clone();
    Arc::new(move |ctx: &BuildCtx| {
        let reg = registry(ctx, &app);
        match build_graph(&src, &reg, ctx.policy) {
            Ok(g) => g,
            Err(e) => panic!("pipeline configuration error: {e}"),
        }
    })
}

/// The canonical IPv4 router configuration, the shipped
/// `examples/click/ipv4.click` (matches [`ipv4_router`]).
pub const IPV4_CONFIG: &str = include_str!("../../../examples/click/ipv4.click");

/// The canonical IPsec gateway configuration, the shipped
/// `examples/click/ipsec.click` (matches [`ipsec_gateway`]).
pub const IPSEC_CONFIG: &str = include_str!("../../../examples/click/ipsec.click");

/// A config-language error example used in docs/tests.
pub fn build_from_config_str(
    src: &str,
    ctx: &BuildCtx,
    app: &AppConfig,
) -> Result<ElementGraph, ConfigError> {
    let reg = registry(ctx, app);
    build_graph(src, &reg, ctx.policy)
}
