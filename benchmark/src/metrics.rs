//! The metric tables: every name the benchmark prints, with its unit, its
//! direction, and (end to end) the bound by which it may worsen. The root
//! `BENCHMARK.json` is generated from these tables (`manifest` subcommand)
//! and a unit test keeps the committed file equal to them.

use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old` (negative
    /// when `new` is better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (old - new) / old.abs(),
            Better::Lower => (new - old) / old.abs(),
        }
    }
}

/// How the samples of an end-to-end metric become its reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    Median,
    Max,
}

/// A metric a user of the system would see. Every workload reports every
/// one of them from its untraced runs.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub reduce: Reduce,
    pub definition: &'static str,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "mpps",
        unit: "Mpkt/s",
        better: Better::Higher,
        bound: 0.25,
        reduce: Reduce::Median,
        definition: "packets per wall second of one timed run, call to return, drain included: real packets through live::run, or simulated packets (warm-up included) per host second of des::run",
    },
    EndToEnd {
        name: "cpu_ns_per_pkt",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
        reduce: Reduce::Median,
        definition: "process user+system CPU time over the timed run per packet: cores burned per packet, spinning idle threads included",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        reduce: Reduce::Max,
        definition: "largest VmHWM over the repetition processes",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        reduce: Reduce::Median,
        definition: "process start until tables and pipeline are built, threads have been up once and the untimed warm-up run has finished; median over the repetition processes",
    },
];

/// A metric of one layer, from the traced run or the benchmark's own
/// timing of the layer's public functions. No bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const IO_BOUND: &str = "mpps on ipv4_64B, nat_steady, nat_churn (IO-bound while live.worker_busy_share < 1); none on ipsec_1024B, ids_imix";
const GRAPH: &str =
    "mpps on ipv4_64B once the IO path stops limiting; earlier in live.worker_busy_share";
const ELEM: &str = "mpps on the workload whose dominant element it is";
const MODEL: &str = "no wall-clock metric; must be stable";
const FLOW: &str =
    "elem.Nat44.ns_per_pkt: lookups on nat_steady, insert/expire on nat_churn; nothing elsewhere";
const OFFLOAD: &str = "mpps on ipsec_offload_64B only";
const LIVE: &str = "explains mpps and cpu_ns_per_pkt on the live workloads";
const DES: &str =
    "mpps on des_ipsec_alb; a simulator-speed change leaves des.model_* and des.final_w identical";

pub const PER_LAYER: [PerLayer; 74] = [
    // io: benchmark-timed calls, then report fields of the traced run.
    layer("io.gen.ns_per_pkt", "ns", Lower, IO_BOUND),
    layer("io.buf.alloc_free_ns", "ns", Lower, IO_BOUND),
    layer("io.toeplitz.hash_ns", "ns", Lower, IO_BOUND),
    layer("io.rss.deliver_ns_per_pkt", "ns", Lower, IO_BOUND),
    layer("io.spsc.push_pop_ns", "ns", Lower, IO_BOUND),
    layer("io.spsc.xthread_ns_per_pkt", "ns", Lower, IO_BOUND),
    layer("io.path_ns_per_pkt", "ns", Lower, IO_BOUND),
    layer("io.spsc.ring_occupancy_mean", "pkt", Higher, IO_BOUND),
    layer("io.spsc.enqueue_failed_per_kpkt", "1/kpkt", Lower, IO_BOUND),
    // core.batch / core.graph
    layer("core.batch.build_ns_per_pkt", "ns", Lower, GRAPH),
    layer("core.graph.run_batch_ns_per_pkt", "ns", Lower, GRAPH),
    layer("core.graph.dispatch_ns_per_pkt", "ns", Lower, GRAPH),
    // elements: measured busy time per workload packet, and the cost
    // model's charge relative to it.
    layer("elem.CheckIPHeader.ns_per_pkt", "ns", Lower, ELEM),
    layer(
        "elem.CheckIPHeader.model_over_measured",
        "ratio",
        Higher,
        MODEL,
    ),
    layer("elem.IPLookup.ns_per_pkt", "ns", Lower, ELEM),
    layer("elem.IPLookup.model_over_measured", "ratio", Higher, MODEL),
    layer("elem.DecIPTTL.ns_per_pkt", "ns", Lower, ELEM),
    layer("elem.DecIPTTL.model_over_measured", "ratio", Higher, MODEL),
    layer("elem.LoadBalance.ns_per_pkt", "ns", Lower, ELEM),
    layer(
        "elem.LoadBalance.model_over_measured",
        "ratio",
        Higher,
        MODEL,
    ),
    layer("elem.IPsecESPEncap.ns_per_pkt", "ns", Lower, ELEM),
    layer(
        "elem.IPsecESPEncap.model_over_measured",
        "ratio",
        Higher,
        MODEL,
    ),
    layer("elem.IPsecAES.ns_per_pkt", "ns", Lower, ELEM),
    layer("elem.IPsecAES.model_over_measured", "ratio", Higher, MODEL),
    layer("elem.IPsecAuthHMAC.ns_per_pkt", "ns", Lower, ELEM),
    layer(
        "elem.IPsecAuthHMAC.model_over_measured",
        "ratio",
        Higher,
        MODEL,
    ),
    layer("elem.ACMatch.ns_per_pkt", "ns", Lower, ELEM),
    layer("elem.ACMatch.model_over_measured", "ratio", Higher, MODEL),
    layer("elem.RegexMatch.ns_per_pkt", "ns", Lower, ELEM),
    layer(
        "elem.RegexMatch.model_over_measured",
        "ratio",
        Higher,
        MODEL,
    ),
    layer("elem.IDSAlert.ns_per_pkt", "ns", Lower, ELEM),
    layer("elem.IDSAlert.model_over_measured", "ratio", Higher, MODEL),
    layer("elem.Nat44.ns_per_pkt", "ns", Lower, ELEM),
    layer("elem.Nat44.model_over_measured", "ratio", Higher, MODEL),
    layer("sim.cost.rank_inversions", "count", Lower, MODEL),
    layer(
        "apps.ids.slow_path_share",
        "ratio",
        Lower,
        "a property of ids_imix traffic (seed-exact), not of the code",
    ),
    // kernels
    layer(
        "crypto.aes.ctr_64B_ns",
        "ns",
        Lower,
        "mpps on ipsec_offload_64B through core.offload.compute_us_per_task",
    ),
    layer(
        "crypto.aes.ctr_1024B_ns",
        "ns",
        Lower,
        "mpps on ipsec_1024B",
    ),
    layer(
        "crypto.hmac.sha1_64B_ns",
        "ns",
        Lower,
        "mpps on ipsec_offload_64B through core.offload.compute_us_per_task",
    ),
    layer(
        "crypto.hmac.sha1_1024B_ns",
        "ns",
        Lower,
        "mpps on ipsec_1024B",
    ),
    layer("matcher.aho.ns_per_byte", "ns", Lower, "mpps on ids_imix"),
    layer("matcher.regex.ns_per_byte", "ns", Lower, "mpps on ids_imix"),
    layer(
        "apps.ipv4.dir248_lookup_ns",
        "ns",
        Lower,
        "elem.IPLookup.ns_per_pkt on ipv4_64B",
    ),
    // core.flow
    layer("core.flow.lookup_hit_ns", "ns", Lower, FLOW),
    layer("core.flow.insert_ns", "ns", Lower, FLOW),
    layer("core.flow.expire_ns_per_evict", "ns", Lower, FLOW),
    layer("core.flow.hit_ratio", "ratio", Higher, FLOW),
    layer("core.flow.inserts_per_kpkt", "1/kpkt", Lower, FLOW),
    layer("core.flow.evictions_per_kpkt", "1/kpkt", Lower, FLOW),
    layer("core.flow.table_full_drops", "count", Lower, FLOW),
    // core.offload (audit plane of the traced run)
    layer(
        "core.offload.enqueue_wait_us_per_task",
        "us",
        Lower,
        OFFLOAD,
    ),
    layer("core.offload.gather_us_per_task", "us", Lower, OFFLOAD),
    layer("core.offload.copy_in_us_per_task", "us", Lower, OFFLOAD),
    layer("core.offload.launch_us_per_task", "us", Lower, OFFLOAD),
    layer("core.offload.compute_us_per_task", "us", Lower, OFFLOAD),
    layer("core.offload.copy_out_us_per_task", "us", Lower, OFFLOAD),
    layer("core.offload.scatter_us_per_task", "us", Lower, OFFLOAD),
    layer("core.offload.pkts_per_task", "pkt", Higher, OFFLOAD),
    layer("core.offload.fallback_pkts", "count", Lower, OFFLOAD),
    // core.runtime.live / core.supervise
    layer("live.worker_busy_share", "ratio", Higher, LIVE),
    layer("live.batch_service_p50_us", "us", Lower, LIVE),
    layer("live.batch_service_p99_us", "us", Lower, LIVE),
    layer("live.residual_ns_per_pkt", "ns", Lower, LIVE),
    layer(
        "live.trace_overhead_ratio",
        "ratio",
        Higher,
        "traced over untraced mpps of the same process; the cost of tracing, not a target",
    ),
    layer(
        "core.supervise.transitions",
        "count",
        Lower,
        "cpu_ns_per_pkt on the live workloads; 0 on a clean run",
    ),
    layer(
        "core.supervise.resteers",
        "count",
        Lower,
        "cpu_ns_per_pkt on the live workloads; 0 on a clean run",
    ),
    // core.runtime.des / sim
    layer("des.model_mpps", "Mpkt/s", Higher, DES),
    layer("des.model_p99_us", "us", Lower, DES),
    layer("des.host_ns_per_sim_pkt", "ns", Lower, DES),
    layer("des.final_w", "ratio", Higher, DES),
    layer("des.gpu_busy_share", "ratio", Higher, DES),
    layer("des.rx_drop_share", "ratio", Lower, DES),
    layer(
        "des.repeat_delta_pkts",
        "pkt",
        Lower,
        "0 when the simulator is deterministic",
    ),
    layer("sim.engine.step_ns", "ns", Lower, DES),
];

/// Element classes that have `elem.<Class>.*` metrics.
pub fn element_classes() -> impl Iterator<Item = &'static str> {
    PER_LAYER.iter().filter_map(|m| {
        m.name
            .strip_prefix("elem.")
            .and_then(|rest| rest.strip_suffix(".ns_per_pkt"))
    })
}

#[cfg(test)]
/// The contract's rule for names: starts with a letter or digit, then
/// letters, digits, `_`, `.` and `-`, at most 64 characters.
pub fn name_is_valid(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// The contract's rule for units.
pub fn unit_is_valid(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Seconds one driver invocation measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 12;

/// The root `BENCHMARK.json`, in exactly the contract's schema.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(name_is_valid(n), "bad metric name {n:?}");
            assert!(!names[..i].contains(n), "duplicate metric name {n:?}");
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_is_valid(u), "bad unit {u:?}");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn name_charset_is_enforced() {
        assert!(name_is_valid("elem.IPsecAuthHMAC.model_over_measured"));
        assert!(name_is_valid("4k-blocks_x.y"));
        for bad in [
            "",
            ".leading",
            "-x",
            "has space",
            "slash/x",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!name_is_valid(bad), "{bad:?} accepted");
        }
        assert!(unit_is_valid("1/kpkt") && unit_is_valid("Mpkt/s") && unit_is_valid("%"));
        assert!(!unit_is_valid("") && !unit_is_valid("Mpkt/s (simulated)"));
    }

    #[test]
    fn every_element_class_has_both_metrics() {
        let classes: Vec<&str> = element_classes().collect();
        assert_eq!(classes.len(), 11);
        for c in classes {
            let ratio = format!("elem.{c}.model_over_measured");
            assert!(PER_LAYER.iter().any(|m| m.name == ratio), "{ratio}");
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
        assert!(manifest().len() <= 64 * 1024);
    }
}
