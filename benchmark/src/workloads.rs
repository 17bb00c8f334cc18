//! The workload table. Names are fixed: later issues cite them.
//!
//! Every workload is closed-loop and saturating. The live runtime owns its
//! source (a `TrafficGen` inside the IO thread, no pacing), so a live
//! workload is a fixed packet budget pushed through one worker in lossless
//! drain mode: seed-determined work, identical on both sides of any
//! comparison. The seed reaches the program only as `TrafficConfig::seed`.

use nba_apps::stateful::NatConfig;
use nba_apps::{pipelines, AppConfig};
use nba_core::flow::FlowTableConfig;
use nba_core::lb::{self, AlbConfig, SharedBalancer};
use nba_core::runtime::PipelineBuilder;
use nba_io::{L4Proto, PayloadFill, SizeDist, TrafficConfig};
use nba_sim::Time;

/// Which runtime the timed runs drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// `live::run`, real threads, wall clock. `budget` packets per timed run.
    Live { budget: u64 },
    /// `des::run` on the default (paper) topology, 80 Gbps offered:
    /// modelled hardware. One timed run simulates `warmup_ms + measure_ms`.
    Des { warmup_ms: u64, measure_ms: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Ipv4,
    Ipsec,
    Ids,
    NatSteady,
    NatChurn,
}

/// Traffic shape; everything not named is the generator's default
/// (10 Gbps pacing, 4096 uniform flows, zero payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    Udp64,
    Udp1024,
    /// IMIX sizes, ASCII payload, `ATTACK1` planted in every 16th packet.
    ImixPlanted,
    /// 64 B TCP over 4096 flows that never end.
    TcpSteady,
    /// 64 B TCP over 16 384 flows that each end after 16 packets.
    TcpChurn,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Balancer {
    CpuOnly,
    GpuOnly,
    /// The scaled `lb::Adaptive` configuration `nba-bench` uses in simulation.
    Adaptive,
}

/// How DES and live outputs are compared in the output check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Canon {
    /// Frames verbatim.
    Exact,
    /// Per-replica round-robin egress port masked.
    Ids,
    /// What a receiver can verify: decrypted, authenticated plaintext.
    Ipsec,
    /// Frames verbatim plus the canonical flow-op journal.
    Flow,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line, copied into `BENCHMARK.json`.
    pub why: &'static str,
    pub runtime: Runtime,
    pub app: App,
    pub shape: Traffic,
    pub balancer: Balancer,
}

/// Packets of the output check (live vs DES, `capture: true`).
pub const CHECK_PACKETS: u64 = 32_768;

/// Budgets are the issue's reference budgets (≈4 s per timed run on the
/// 2-vCPU reference host) scaled by one common factor of 1/4, so that the
/// contract's 22 runs × 7 workloads fit the driver's time cap.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "ipv4_64B",
        why: "64 B UDP through the IPv4 router, CPU only: cheapest elements, so per-packet framework cost (io, batch, graph, live runtime) does most of the work",
        runtime: Runtime::Live { budget: 1_500_000 },
        app: App::Ipv4,
        shape: Traffic::Udp64,
        balancer: Balancer::CpuOnly,
    },
    Workload {
        name: "ipsec_1024B",
        why: "1024 B UDP through the IPsec gateway, CPU only: AES+HMAC take ~95% of worker time, framework cost is diluted - the bypass workload for framework changes",
        runtime: Runtime::Live { budget: 62_500 },
        app: App::Ipsec,
        shape: Traffic::Udp1024,
        balancer: Balancer::CpuOnly,
    },
    Workload {
        name: "ids_imix",
        why: "IMIX with ATTACK1 planted in 1 of 16 packets through the IDS: Aho-Corasick dominates and the planted share leaves the fast path into RegexMatch and the alert branch",
        runtime: Runtime::Live { budget: 625_000 },
        app: App::Ids,
        shape: Traffic::ImixPlanted,
        balancer: Balancer::CpuOnly,
    },
    Workload {
        name: "nat_steady",
        why: "64 B TCP over 4096 long-lived flows through NAT44: the flow table used as reads (4096 inserts, then lookup hits)",
        runtime: Runtime::Live { budget: 1_500_000 },
        app: App::NatSteady,
        shape: Traffic::TcpSteady,
        balancer: Balancer::CpuOnly,
    },
    Workload {
        name: "nat_churn",
        why: "64 B TCP, 16384 flows living 16 packets each through NAT44 with short TTLs: the flow table used as writes (insert, expire, port recycling)",
        runtime: Runtime::Live { budget: 1_500_000 },
        app: App::NatChurn,
        shape: Traffic::TcpChurn,
        balancer: Balancer::CpuOnly,
    },
    Workload {
        name: "ipsec_offload_64B",
        why: "64 B UDP through the IPsec gateway, GPU only: every batch takes the offload queue, device thread and completion path; staging and queueing, not crypto, are the large share",
        runtime: Runtime::Live { budget: 500_000 },
        app: App::Ipsec,
        shape: Traffic::Udp64,
        balancer: Balancer::GpuOnly,
    },
    Workload {
        name: "des_ipsec_alb",
        why: "the DES runtime on the modelled paper testbed, IPsec at 64 B and 80 Gbps offered under the adaptive balancer: simulator speed, and a watch on the modelled numbers",
        runtime: Runtime::Des { warmup_ms: 10, measure_ms: 15 },
        app: App::Ipsec,
        shape: Traffic::Udp64,
        balancer: Balancer::Adaptive,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// A fresh pipeline builder (tables are process-global caches inside
    /// `nba-apps`, built on the first replica).
    pub fn pipeline(&self) -> PipelineBuilder {
        let app = AppConfig::default();
        match self.app {
            App::Ipv4 => pipelines::ipv4_router(&app),
            App::Ipsec => pipelines::ipsec_gateway(&app),
            App::Ids => pipelines::ids(&app).0,
            App::NatSteady => pipelines::nat44(&NatConfig::default()),
            App::NatChurn => pipelines::nat44(&NatConfig {
                // Sized so that churn never fills a bucket: table_full_drops
                // must stay 0 (checked on every run).
                table: FlowTableConfig {
                    capacity: 1 << 17,
                    ttl_epochs: 4,
                    embryonic_ttl_epochs: 0,
                    epoch_pkts: 256,
                },
                ..NatConfig::default()
            }),
        }
    }

    /// A fresh balancer (the adaptive one carries state across a run).
    pub fn balancer(&self) -> SharedBalancer {
        lb::shared(match self.balancer {
            Balancer::CpuOnly => Box::new(lb::CpuOnly),
            Balancer::GpuOnly => Box::new(lb::GpuOnly),
            Balancer::Adaptive => Box::new(lb::Adaptive::new(AlbConfig {
                delta: 0.08,
                update_interval: Time::from_ms(4),
                avg_window: 2,
                min_wait: 0,
                max_wait: 2,
                initial_w: 0.5,
            })),
        })
    }

    /// The workload's traffic. `seed` is the only thing the benchmark's
    /// `--seed` changes.
    pub fn traffic(&self, seed: u64) -> TrafficConfig {
        let base = TrafficConfig {
            seed,
            ..TrafficConfig::default()
        };
        match self.shape {
            Traffic::Udp64 => base,
            Traffic::Udp1024 => TrafficConfig {
                size: SizeDist::Fixed(1024),
                ..base
            },
            Traffic::ImixPlanted => TrafficConfig {
                size: SizeDist::Imix,
                payload: PayloadFill::Plant {
                    needle: b"ATTACK1".to_vec(),
                    every: 16,
                },
                ..base
            },
            Traffic::TcpSteady => TrafficConfig {
                l4: L4Proto::Tcp,
                ..base
            },
            Traffic::TcpChurn => TrafficConfig {
                l4: L4Proto::Tcp,
                flows: 16_384,
                flow_lifetime_pkts: 16,
                ..base
            },
        }
    }

    pub fn canon(&self) -> Canon {
        match self.app {
            App::Ipv4 => Canon::Exact,
            App::Ipsec => Canon::Ipsec,
            App::Ids => Canon::Ids,
            App::NatSteady | App::NatChurn => Canon::Flow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::metrics::name_is_valid(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
    }
}
