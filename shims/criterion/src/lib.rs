//! Offline drop-in subset of `criterion`.
//!
//! The build container has no network access, so the workspace ships a
//! small wall-clock benchmarking harness exposing the criterion surface
//! its benches use: `Criterion::{bench_function, benchmark_group,
//! sample_size}`, `Bencher::iter`, `Throughput`, `black_box`, and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! Each benchmark runs one warm-up iteration, then up to `sample_size`
//! timed iterations bounded by a per-benchmark time budget, and prints
//! mean / min / max to stderr.

use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer value laundering.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Throughput annotation (recorded, displayed per element when set).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Per-iteration timer handed to benchmark closures.
pub struct Bencher {
    samples: Vec<Duration>,
    target_samples: usize,
    budget: Duration,
}

impl Bencher {
    /// Times `f`, one sample per call, until the sample target or the
    /// time budget is reached.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f()); // warm-up, untimed
        let started = Instant::now();
        while self.samples.len() < self.target_samples {
            let t0 = Instant::now();
            black_box(f());
            self.samples.push(t0.elapsed());
            if started.elapsed() > self.budget {
                break;
            }
        }
    }
}

fn run_one(
    name: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    f: &mut dyn FnMut(&mut Bencher),
) {
    let mut b = Bencher {
        samples: Vec::new(),
        target_samples: sample_size.max(1),
        budget: Duration::from_secs(5),
    };
    f(&mut b);
    if b.samples.is_empty() {
        eprintln!("bench {name:<40} (no samples)");
        return;
    }
    let total: Duration = b.samples.iter().sum();
    let mean = total / b.samples.len() as u32;
    let min = b.samples.iter().min().expect("non-empty");
    let max = b.samples.iter().max().expect("non-empty");
    let rate = match throughput {
        Some(Throughput::Elements(n)) if mean.as_secs_f64() > 0.0 => {
            format!("  {:>12.0} elem/s", n as f64 / mean.as_secs_f64())
        }
        Some(Throughput::Bytes(n)) if mean.as_secs_f64() > 0.0 => {
            format!("  {:>12.0} B/s", n as f64 / mean.as_secs_f64())
        }
        _ => String::new(),
    };
    eprintln!(
        "bench {name:<40} mean {mean:>12?}  min {min:>12?}  max {max:>12?}  ({} samples){rate}",
        b.samples.len()
    );
}

/// The benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets the per-benchmark sample target.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n;
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<S: AsRef<str>, F: FnMut(&mut Bencher)>(
        &mut self,
        name: S,
        mut f: F,
    ) -> &mut Self {
        run_one(name.as_ref(), self.sample_size, None, &mut f);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group<S: AsRef<str>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            prefix: name.as_ref().to_string(),
            sample_size: self.sample_size,
            throughput: None,
            _parent: self,
        }
    }
}

/// A group of related benchmarks sharing a name prefix and settings.
pub struct BenchmarkGroup<'a> {
    prefix: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the group's sample target.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Annotates subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one named benchmark within the group.
    pub fn bench_function<S: AsRef<str>, F: FnMut(&mut Bencher)>(
        &mut self,
        name: S,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.prefix, name.as_ref());
        run_one(&full, self.sample_size, self.throughput, &mut f);
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Declares a benchmark group entry point.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            $(
                let mut c: $crate::Criterion = $config;
                $target(&mut c);
            )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(name = $name; config = $crate::Criterion::default(); targets = $($target),+);
    };
}

/// Declares the benchmark binary's `main`.
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

    #[test]
    fn harness_times_a_closure() {
        let mut c = Criterion::default().sample_size(3);
        let mut ran = 0u32;
        c.bench_function("smoke", |b| {
            b.iter(|| {
                ran += 1;
                black_box(ran)
            })
        });
        assert!(ran >= 3, "warm-up + samples ran");
    }

    #[test]
    fn groups_prefix_names() {
        let mut c = Criterion::default().sample_size(2);
        let mut group = c.benchmark_group("g");
        group.sample_size(2).throughput(Throughput::Elements(10));
        group.bench_function("inner", |b| b.iter(|| black_box(1 + 1)));
        group.finish();
    }
}
