//! In-workspace stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so benches link against
//! this API-compatible subset instead. It does no statistical analysis:
//! each benchmark body is warmed briefly, timed over rounds of doubling
//! iteration counts until one round lasts long enough to swamp the clock
//! reads, and that round's mean is printed as a single line (with
//! throughput when configured). Good for smoke-running benches and
//! catching regressions by eye; not a measurement-grade harness.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Opaque hint preventing the optimizer from deleting a value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Throughput basis used to derive a rate from the mean iteration time.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// A two-part benchmark name: function id plus parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Combines a function name and a parameter value.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{}/{}", function.into(), parameter),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Passed to benchmark closures; drives the timed iterations.
pub struct Bencher {
    mean_ns: f64,
}

const WARMUP_ITERS: u32 = 3;
/// Iterations of the first timed round.
const TIMED_ITERS: u32 = 30;
/// A round at least this long is the measurement.
const MIN_ROUND: Duration = Duration::from_millis(20);

impl Bencher {
    /// Times `routine`, storing the mean per-iteration duration.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..WARMUP_ITERS {
            black_box(routine());
        }
        let mut iters = TIMED_ITERS;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= MIN_ROUND || iters >= u32::MAX / 2 {
                self.mean_ns = elapsed.as_secs_f64() * 1e9 / f64::from(iters);
                return;
            }
            iters *= 2;
        }
    }
}

fn run_one(name: &str, throughput: Option<Throughput>, f: impl FnOnce(&mut Bencher)) {
    let mut b = Bencher { mean_ns: 0.0 };
    f(&mut b);
    let ns = b.mean_ns.max(0.1);
    let rate = match throughput {
        Some(Throughput::Bytes(n)) => {
            format!("  {:>10.1} MiB/s", n as f64 / ns * 1e9 / (1024.0 * 1024.0))
        }
        Some(Throughput::Elements(n)) => {
            format!("  {:>10.2} Melem/s", n as f64 / ns * 1e9 / 1e6)
        }
        None => String::new(),
    };
    println!("bench {name:<40} {:>12.1} ns/iter{rate}", ns);
}

/// A named group of related benchmarks sharing a throughput setting.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput basis for subsequent benchmarks in the group.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// Runs a benchmark over a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher, &I),
    {
        run_one(&format!("{}/{}", self.name, id), self.throughput, |b| {
            f(b, input)
        });
        self
    }

    /// Runs a benchmark with no external input.
    pub fn bench_function<F: FnOnce(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id), self.throughput, f);
        self
    }

    /// Ends the group (no-op; exists for API compatibility).
    pub fn finish(&mut self) {}
}

/// The benchmark driver handed to each `criterion_group!` target.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named [`BenchmarkGroup`].
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            _parent: self,
        }
    }

    /// Runs a standalone benchmark outside any group.
    pub fn bench_function<F: FnOnce(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_one(id, None, f);
        self
    }
}

/// Bundles benchmark functions under one group name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Generates `main` running each `criterion_group!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut g = c.benchmark_group("shim");
        g.throughput(Throughput::Bytes(64));
        g.bench_with_input(BenchmarkId::new("sum", 64), &[1u8; 64][..], |b, d| {
            b.iter(|| d.iter().map(|&x| x as u64).sum::<u64>())
        });
        g.bench_function("noop", |b| b.iter(|| black_box(1)));
        g.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn groups_run_to_completion() {
        benches();
    }
}
