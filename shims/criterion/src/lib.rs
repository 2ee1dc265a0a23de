//! Offline stand-in for `criterion`.
//!
//! Provides the API subset the workspace's benches use (`benchmark_group`,
//! `bench_function`, `bench_with_input`, `bench_pair`, `Bencher::iter`,
//! `black_box`, the `criterion_group!`/`criterion_main!` macros) on top of
//! a simple but honest measurement core: warm-up, then `sample_size`
//! samples of
//! auto-calibrated iteration batches, reporting the **median**
//! per-iteration time after Tukey IQR outlier rejection (samples outside
//! `[Q1 − 1.5·IQR, Q3 + 1.5·IQR]` — warm-up spikes, scheduler
//! preemptions — are discarded before the median is taken, so exported
//! ratios stop absorbing them). A `bench_pair` also keeps the median of
//! its per-sample B/A ratios ([`Criterion::pair_ratio`]), the statistic
//! a near-identical pair is gated on.
//!
//! Name filter: a bench binary built with `criterion_group!` takes its
//! first non-flag command-line argument as a substring filter on
//! `group/bench`, so `cargo bench -p strat-bench --bench core_algorithms
//! -- analytic` measures only the `analytic/…` rows. A skipped benchmark
//! never runs its body (setup outside the body still runs); a
//! `bench_pair` runs when either side matches. `Criterion::default()`
//! (the JSON exporter's entry) applies no filter.
//!
//! Environment knobs:
//!
//! * `CRITERION_JSON=path` — append one JSON line per benchmark
//!   (`{"group":…,"bench":…,"median_ns":…}`), consumed by
//!   `crates/bench/src/bin/export.rs`;
//! * `BENCH_TIME_SCALE=x` — multiply warm-up and measurement budgets
//!   (e.g. `0.2` for quick smoke runs).

#![warn(clippy::all)]

use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target duration of one side's block in a `bench_pair` sample: short
/// enough that neighbouring A and B blocks share the machine's state.
const PAIR_BLOCK: Duration = Duration::from_millis(1);

/// Top-level benchmark driver.
pub struct Criterion {
    time_scale: f64,
    /// Substring a benchmark's `group/bench` name must contain to run.
    filter: Option<String>,
    /// Every measured `bench_pair`: its B side's `group/bench` name and
    /// the median of its per-sample B/A ratios.
    pair_ratios: Vec<(String, f64)>,
}

impl Default for Criterion {
    fn default() -> Self {
        let time_scale = std::env::var("BENCH_TIME_SCALE")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|s| s.is_finite() && *s > 0.0)
            .unwrap_or(1.0);
        Self {
            time_scale,
            filter: None,
            pair_ratios: Vec::new(),
        }
    }
}

impl Criterion {
    /// Takes the name filter from the command line: the first argument
    /// that is not a flag (`cargo bench` passes `--bench` itself).
    #[must_use]
    pub fn configure_from_args(self) -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        self.with_filter(filter)
    }

    /// Runs only benchmarks whose `group/bench` name contains `filter`
    /// (every benchmark when `None`).
    #[must_use]
    pub fn with_filter(mut self, filter: Option<String>) -> Self {
        self.filter = filter;
        self
    }

    /// The median per-sample B/A time ratio of the measured `bench_pair`
    /// whose B side is `group/bench_b`, or `None` if no such pair ran.
    #[must_use]
    pub fn pair_ratio(&self, group: &str, bench_b: &str) -> Option<f64> {
        let name = format!("{group}/{bench_b}");
        self.pair_ratios
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, ratio)| ratio)
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            warm_up: Duration::from_millis(400),
            measurement: Duration::from_secs(2),
            sample_size: 15,
        }
    }
}

/// Identifier of a parameterized benchmark (`name/parameter`).
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// Builds `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            full: format!("{}/{}", name.into(), parameter),
        }
    }
}

/// A group of benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the warm-up budget.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    /// Sets the total measurement budget.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    /// Sets the number of samples.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(3);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        if !self.selected(&[&id]) {
            return self;
        }
        let mut bencher = self.make_bencher();
        f(&mut bencher);
        self.report(&id, &bencher);
        self
    }

    /// Runs one benchmark with an explicit input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        if !self.selected(&[&id.full]) {
            return self;
        }
        let mut bencher = self.make_bencher();
        f(&mut bencher, input);
        self.report(&id.full, &bencher);
        self
    }

    /// Measures two bodies with **interleaved** sample blocks, reporting
    /// one row each plus the median of the per-sample B/A ratios
    /// ([`Criterion::pair_ratio`]). Back-to-back `bench_function` runs of
    /// near-identical kernels absorb machine drift (frequency scaling,
    /// neighbours' load) into their ratio. Here every sample times one
    /// short A block and one short B block back to back (about a
    /// millisecond each), so both see the same machine state, and the
    /// side that runs first alternates from sample to sample, so neither
    /// always inherits the other's cache state. A preemption spoils one
    /// sample's ratio, not a side's median. The samples fill the
    /// measurement budget, and there are at least `sample_size` of them.
    pub fn bench_pair<OA, OB>(
        &mut self,
        id_a: impl Into<String>,
        mut a: impl FnMut() -> OA,
        id_b: impl Into<String>,
        mut b: impl FnMut() -> OB,
    ) -> &mut Self {
        let (id_a, id_b) = (id_a.into(), id_b.into());
        if !self.selected(&[&id_a, &id_b]) {
            return self;
        }
        let scale = self.criterion.time_scale;
        let warm_up = self.warm_up.mul_f64(scale);
        let measurement = self.measurement.mul_f64(scale);

        // Warm up both sides alternately while estimating iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < warm_up || warm_iters == 0 {
            black_box(a());
            black_box(b());
            warm_iters += 1;
        }
        let per_pair = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        // Calibrate the blocks to about `PAIR_BLOCK` per side, then take
        // as many samples as fill the measurement budget.
        let per_pair = per_pair.max(1e-9);
        let budget = measurement.as_secs_f64().max(1e-3);
        let iters = ((2.0 * PAIR_BLOCK.as_secs_f64() / per_pair).floor() as u64).max(1);
        let samples = ((budget / (per_pair * iters as f64)) as usize).max(self.sample_size);

        let mut samples_a = Vec::with_capacity(samples);
        let mut samples_b = Vec::with_capacity(samples);
        let mut ratios = Vec::with_capacity(samples);
        for sample in 0..samples {
            let (ns_a, ns_b) = if sample % 2 == 0 {
                let ns_a = time_block(iters, &mut a);
                (ns_a, time_block(iters, &mut b))
            } else {
                let ns_b = time_block(iters, &mut b);
                (time_block(iters, &mut a), ns_b)
            };
            samples_a.push(ns_a);
            samples_b.push(ns_b);
            ratios.push(ns_b / ns_a);
        }
        samples_a.sort_by(f64::total_cmp);
        samples_b.sort_by(f64::total_cmp);
        ratios.sort_by(f64::total_cmp);
        self.emit(&id_a, robust_median(&samples_a), samples, iters);
        self.emit(&id_b, robust_median(&samples_b), samples, iters);
        let ratio = robust_median(&ratios);
        let name_b = format!("{}/{id_b}", self.name);
        println!(
            "{:<52} B/A ratio {ratio:.4} (median of per-sample ratios)",
            name_b
        );
        self.criterion.pair_ratios.push((name_b, ratio));
        self
    }

    /// Ends the group (cosmetic; reports are emitted eagerly).
    pub fn finish(&mut self) {}

    /// Whether the name filter lets any of `ids` (bench names in this
    /// group) run.
    fn selected(&self, ids: &[&str]) -> bool {
        self.criterion.filter.as_deref().is_none_or(|filter| {
            ids.iter()
                .any(|id| format!("{}/{id}", self.name).contains(filter))
        })
    }

    fn make_bencher(&self) -> Bencher {
        let scale = self.criterion.time_scale;
        Bencher {
            warm_up: self.warm_up.mul_f64(scale),
            measurement: self.measurement.mul_f64(scale),
            sample_size: self.sample_size,
            median_ns: None,
            samples: 0,
            iters_per_sample: 0,
        }
    }

    fn report(&self, id: &str, bencher: &Bencher) {
        let Some(median_ns) = bencher.median_ns else {
            eprintln!(
                "warning: benchmark {}/{id} never called Bencher::iter",
                self.name
            );
            return;
        };
        self.emit(id, median_ns, bencher.samples, bencher.iters_per_sample);
    }

    fn emit(&self, id: &str, median_ns: f64, samples: usize, iters_per_sample: u64) {
        println!(
            "{:<52} median {:>12.1} ns  ({samples} samples x {iters_per_sample} iters)",
            format!("{}/{}", self.name, id),
            median_ns,
        );
        if let Ok(path) = std::env::var("CRITERION_JSON") {
            if let Ok(mut file) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                let _ = writeln!(
                    file,
                    "{{\"group\":\"{}\",\"bench\":\"{}\",\"median_ns\":{:.1}}}",
                    self.name, id, median_ns
                );
            }
        }
    }
}

/// Runs and times one benchmark body.
pub struct Bencher {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    median_ns: Option<f64>,
    samples: usize,
    iters_per_sample: u64,
}

impl Bencher {
    /// Measures `f`, storing the median per-iteration time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up while estimating the cost of one iteration.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.warm_up || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        // Calibrate iterations per sample to fill the measurement budget.
        let budget = self.measurement.as_secs_f64().max(1e-3);
        let per_sample = budget / self.sample_size as f64;
        let iters = ((per_sample / per_iter.max(1e-9)).floor() as u64).max(1);

        let mut samples_ns = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed().as_nanos() as f64;
            samples_ns.push(elapsed / iters as f64);
        }
        samples_ns.sort_by(f64::total_cmp);
        self.median_ns = Some(robust_median(&samples_ns));
        self.samples = self.sample_size;
        self.iters_per_sample = iters;
    }
}

/// Runs `f` `iters` times and returns the mean time per call in ns.
fn time_block<O>(iters: u64, f: &mut impl FnMut() -> O) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Linearly interpolated quantile of a sorted, non-empty slice.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let idx = p * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (idx - lo as f64)
}

/// Median of a sorted, non-empty sample after Tukey IQR outlier rejection:
/// values outside `[Q1 − 1.5·IQR, Q3 + 1.5·IQR]` are dropped first. The
/// median itself always lies inside the fences, so the kept set is never
/// empty.
fn robust_median(sorted: &[f64]) -> f64 {
    let q1 = quantile(sorted, 0.25);
    let q3 = quantile(sorted, 0.75);
    let iqr = q3 - q1;
    let (lo, hi) = (q1 - 1.5 * iqr, q3 + 1.5 * iqr);
    let start = sorted.partition_point(|&x| x < lo);
    let end = sorted.partition_point(|&x| x <= hi);
    let kept = &sorted[start..end];
    let mid = kept.len() / 2;
    if kept.len().is_multiple_of(2) {
        (kept[mid - 1] + kept[mid]) / 2.0
    } else {
        kept[mid]
    }
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_sane() {
        std::env::remove_var("CRITERION_JSON");
        let mut c = Criterion {
            time_scale: 0.02,
            filter: None,
            pair_ratios: Vec::new(),
        };
        let mut group = c.benchmark_group("shim");
        group.sample_size(5);
        let mut ran = false;
        group.bench_function("spin", |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for i in 0..100u64 {
                    acc = acc.wrapping_add(black_box(i));
                }
                acc
            });
            ran = true;
        });
        group.finish();
        assert!(ran);
    }

    #[test]
    fn name_filter_matches_group_and_bench() {
        std::env::remove_var("CRITERION_JSON");
        let mut c = Criterion::default().with_filter(Some("shim/ke".into()));
        c.time_scale = 0.001;
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        let mut ran = Vec::new();
        for name in ["kept", "skipped"] {
            group.bench_function(name, |b| {
                b.iter(|| 0u8);
                ran.push(name);
            });
        }
        group.bench_with_input(BenchmarkId::new("keyed", 1), &(), |b, _| {
            b.iter(|| 0u8);
            ran.push("keyed/1");
        });
        group.bench_with_input(BenchmarkId::new("other", 1), &(), |b, _| {
            b.iter(|| 0u8);
            ran.push("other/1");
        });
        let (mut a_runs, mut b_runs) = (0, 0);
        // A pair runs when either side matches, both sides together.
        group.bench_pair("x", || a_runs += 1, "kernel", || b_runs += 1);
        let (mut c_runs, mut d_runs) = (0, 0);
        group.bench_pair("y", || c_runs += 1, "z", || d_runs += 1);
        group.finish();
        assert_eq!(ran, ["kept", "keyed/1"]);
        assert!(a_runs > 0 && b_runs > 0);
        assert_eq!((c_runs, d_runs), (0, 0));
        // Only the measured pair leaves a ratio, keyed by its B side.
        assert!(c.pair_ratio("shim", "kernel").is_some());
        assert_eq!(c.pair_ratio("shim", "x"), None);
        assert_eq!(c.pair_ratio("shim", "z"), None);
        // No filter runs everything.
        let mut all = Criterion::default().with_filter(None);
        all.time_scale = 0.001;
        let mut group = all.benchmark_group("g");
        group.sample_size(3);
        let mut runs = 0;
        group.bench_function("any", |b| {
            b.iter(|| 0u8);
            runs += 1;
        });
        assert_eq!(runs, 1);
    }

    #[test]
    fn benchmark_id_formats() {
        let id = BenchmarkId::new("stable", 1000);
        assert_eq!(id.full, "stable/1000");
    }

    #[test]
    fn iqr_rejection_discards_warmup_spikes() {
        // A single 100 ns spike among 1–5 ns samples: the plain median
        // would be 3.5 (it straddles the spike's pull on the midpoint);
        // the fences reject the spike and the median of the rest is 3.
        let samples = [1.0, 2.0, 3.0, 4.0, 5.0, 100.0];
        assert_eq!(robust_median(&samples), 3.0);
        // Spike-free samples are untouched.
        assert_eq!(robust_median(&[1.0, 2.0, 3.0, 4.0, 5.0]), 3.0);
        assert_eq!(robust_median(&[2.0, 4.0]), 3.0);
        assert_eq!(robust_median(&[7.5]), 7.5);
        // Outliers on both sides.
        let two_sided = [0.001, 10.0, 10.5, 11.0, 11.5, 12.0, 500.0];
        assert_eq!(robust_median(&two_sided), 11.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let sorted = [0.0, 1.0, 2.0, 3.0];
        assert_eq!(quantile(&sorted, 0.0), 0.0);
        assert_eq!(quantile(&sorted, 1.0), 3.0);
        assert_eq!(quantile(&sorted, 0.5), 1.5);
    }
}
