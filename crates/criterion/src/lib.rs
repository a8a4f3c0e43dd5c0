//! Internal stand-in for the crates.io `criterion` crate.
//!
//! The build environment has no crates-registry access, so this crate
//! vendors the subset of the `criterion 0.5` API the workspace's
//! benches use: [`Criterion::benchmark_group`], `bench_function` /
//! `bench_with_input`, [`BenchmarkId`], [`criterion_group!`] and
//! [`criterion_main!`].
//!
//! Measurement is intentionally simple — warm-up, then a fixed number
//! of timed batches reported as median / min wall-clock time per
//! iteration. No statistical analysis, HTML reports, or comparison to
//! baselines; good enough to eyeball asymptotics and spot regressions
//! by hand. Honors `CRITERION_QUICK=1` for a fast smoke run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter value.
    pub fn new(name: impl Into<String>, parameter: impl core::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            text: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id carrying only a parameter value.
    pub fn from_parameter(parameter: impl core::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            text: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> BenchmarkId {
        BenchmarkId {
            text: name.to_string(),
        }
    }
}

/// Drives timed iterations of one benchmark body.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    /// Median and min per-iteration time, filled in by [`Bencher::iter`].
    result: Option<(Duration, Duration)>,
}

/// How long warm-up runs, and how long each measured batch aims to.
const BATCH: Duration = Duration::from_millis(1);

impl Bencher {
    /// Times `body` over warm-up plus `samples` measured batches.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut body: F) {
        // Warm up for a full batch, then size batches from a second,
        // warmed one: as many calls as fit in 1 ms, so timer resolution
        // is irrelevant and a slow first call cannot shrink the batch.
        // Capped to keep total time bounded.
        let calls_within = |body: &mut F| {
            let start = Instant::now();
            let mut calls = 0u32;
            while start.elapsed() < BATCH {
                black_box(body());
                calls += 1;
            }
            calls
        };
        calls_within(&mut body);
        let per_batch = calls_within(&mut body).clamp(1, 10_000);

        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..per_batch {
                black_box(body());
            }
            times.push(start.elapsed() / per_batch);
        }
        times.sort_unstable();
        let median = times.get(times.len() / 2).copied().unwrap_or_default();
        let min = times.first().copied().unwrap_or_default();
        self.result = Some((median, min));
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of measured batches per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Benchmarks `body` under `id`.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut body: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher {
            samples: self.sample_size,
            result: None,
        };
        body(&mut bencher);
        report(&self.name, &id.text, bencher.result);
        self
    }

    /// Benchmarks `body` under `id`, passing `input` through.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut body: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut bencher = Bencher {
            samples: self.sample_size,
            result: None,
        };
        body(&mut bencher, input);
        report(&self.name, &id.text, bencher.result);
        self
    }

    /// Ends the group (upstream writes reports here; we print as we go).
    pub fn finish(&mut self) {}
}

fn report(group: &str, id: &str, result: Option<(Duration, Duration)>) {
    match result {
        Some((median, min)) => {
            println!("{group}/{id:<28} median {median:>12.3?}   min {min:>12.3?}");
        }
        None => println!("{group}/{id:<28} (no measurement: iter() never called)"),
    }
}

/// Top-level benchmark driver (mirror of `criterion::Criterion`).
#[derive(Debug, Default)]
pub struct Criterion {
    default_sample_size: usize,
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = if self.default_sample_size == 0 {
            default_samples()
        } else {
            self.default_sample_size
        };
        BenchmarkGroup {
            name: name.into(),
            sample_size,
            _criterion: self,
        }
    }

    /// Benchmarks a standalone function.
    pub fn bench_function<F>(&mut self, name: &str, mut body: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            samples: default_samples(),
            result: None,
        };
        body(&mut bencher);
        report("bench", name, bencher.result);
        self
    }
}

fn default_samples() -> usize {
    if std::env::var_os("CRITERION_QUICK").is_some() {
        3
    } else {
        30
    }
}

/// Declares a bench entry point running each listed function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` for a set of [`criterion_group!`]s.
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
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        group.sample_size(3);
        let mut ran = false;
        group.bench_function(BenchmarkId::from_parameter(1), |b| {
            b.iter(|| black_box(40usize) + 2);
            ran = true;
        });
        group.finish();
        assert!(ran);
    }

    #[test]
    fn ids_format() {
        assert_eq!(BenchmarkId::new("mul", 64).text, "mul/64");
        assert_eq!(BenchmarkId::from_parameter(128).text, "128");
    }
}
