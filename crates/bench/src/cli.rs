//! The vocabulary `nba-bench`'s subcommands share, one parser per concept:
//! `--flag value` options, app names and balancer modes. The experiments
//! build their balancers from the same [`Mode`], so a mode means one thing
//! on the command line and in a figure.

use std::str::FromStr;

use nba_apps::stateful::NatConfig;
use nba_apps::{pipelines, AppConfig};
use nba_core::lb::{self, BalancerFactory, LoadBalancer, SharedBalancer};
use nba_core::runtime::PipelineBuilder;

use crate::experiments::sim_alb;

/// Positional arguments: everything that is neither a `--flag` nor the
/// value of the space-separated `--flag value` form (every flag takes a
/// value, so the token after a `--flag` belongs to it).
pub fn positionals(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
        } else if let Some(flag) = a.strip_prefix("--") {
            skip = !flag.contains('=');
        } else {
            out.push(a.as_str());
        }
    }
    out
}

/// The value of option `name`, given as `name value` or `name=value`.
pub fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().enumerate().find_map(|(i, a)| {
        if a == name {
            args.get(i + 1).map(String::as_str)
        } else {
            a.strip_prefix(name)?.strip_prefix('=')
        }
    })
}

/// The value of option `name` parsed as `T`; `Ok(None)` when it is absent,
/// an error naming the option when its value does not parse.
pub fn parsed<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    opt(args, name)
        .map(|v| v.parse().map_err(|_| format!("{name}: cannot parse '{v}'")))
        .transpose()
}

/// Resolves an app name (`v4`/`v6` are aliases) to its canonical name, its
/// pipeline builder and whether it carries IPv6.
pub fn app(name: &str, a: &AppConfig) -> Result<(&'static str, PipelineBuilder, bool), String> {
    Ok(match name {
        "ipv4" | "v4" => ("ipv4", pipelines::ipv4_router(a), false),
        "ipv6" | "v6" => ("ipv6", pipelines::ipv6_router(a), true),
        "ipsec" => ("ipsec", pipelines::ipsec_gateway(a), false),
        "ids" => ("ids", pipelines::ids(a).0, false),
        // The stateful NAT44 app: per-worker flow shards behind the
        // default table geometry. Its artifact carries the schema-v5
        // `flows` section (live occupancy, evictions, hygiene drops).
        "nat" => ("nat", pipelines::nat44(&NatConfig::default()), false),
        _ => {
            return Err(format!(
                "unknown app '{name}' (expected ipv4|ipv6|ipsec|ids|nat)"
            ))
        }
    })
}

/// How the balancer splits work: `alb` is the scaled adaptive balancer
/// ([`sim_alb`], starting at `w = 0.5`), `cpu`/`gpu` pin every batch to
/// one side, a number is a fixed offload fraction in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// The scaled adaptive balancer.
    Alb,
    /// Everything on the CPU.
    Cpu,
    /// Everything offloaded.
    Gpu,
    /// A fixed offload fraction.
    Fixed(f64),
}

impl FromStr for Mode {
    type Err = String;

    fn from_str(s: &str) -> Result<Mode, String> {
        Ok(match s {
            "alb" => Mode::Alb,
            "cpu" => Mode::Cpu,
            "gpu" => Mode::Gpu,
            w => match w.parse::<f64>() {
                Ok(w) if (0.0..=1.0).contains(&w) => Mode::Fixed(w),
                _ => {
                    return Err(format!(
                        "unknown mode '{s}' (expected alb|cpu|gpu|<fraction in [0, 1]>)"
                    ))
                }
            },
        })
    }
}

impl Mode {
    /// A fresh balancer in this mode.
    pub fn balancer(self) -> Box<dyn LoadBalancer> {
        match self {
            Mode::Alb => Box::new(lb::Adaptive::new(sim_alb())),
            Mode::Cpu => Box::new(lb::CpuOnly),
            Mode::Gpu => Box::new(lb::GpuOnly),
            Mode::Fixed(w) => Box::new(lb::FixedFraction::new(w)),
        }
    }

    /// One balancer shared by every worker (the DES runs one global `w`).
    pub fn shared(self) -> SharedBalancer {
        lb::shared(self.balancer())
    }

    /// One fresh balancer per worker, for the sharded live runtime.
    pub fn replicated(self) -> BalancerFactory {
        lb::replicated(move || self.balancer())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn options_take_a_value_in_either_form() {
        let a = args("ipv4 --out x.json --mode=0.5 --interval-ms 7 tail");
        assert_eq!(positionals(&a), ["ipv4", "tail"]);
        assert_eq!(opt(&a, "--out"), Some("x.json"));
        assert_eq!(opt(&a, "--mode"), Some("0.5"));
        assert_eq!(opt(&a, "--interval"), None);
        assert_eq!(parsed::<u64>(&a, "--interval-ms"), Ok(Some(7)));
        assert_eq!(parsed::<u64>(&a, "--count"), Ok(None));
        let e = parsed::<u64>(&a, "--out").unwrap_err();
        assert_eq!(e, "--out: cannot parse 'x.json'");
    }

    #[test]
    fn unknown_apps_are_errors_and_aliases_canonicalise() {
        let a = AppConfig::default();
        assert_eq!(app("v4", &a).unwrap().0, "ipv4");
        assert!(app("v6", &a).unwrap().2);
        for bad in ["ipv5", "", "NAT"] {
            let e = app(bad, &a).err().expect(bad);
            assert!(e.starts_with("unknown app"), "{e}");
        }
    }
}
