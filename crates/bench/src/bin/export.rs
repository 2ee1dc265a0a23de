//! Writes `BENCH_core.json`: median-ns measurements of the matching-core
//! hot paths, and one speedup row per reference/optimized pair, seeding
//! the perf trajectory tracked across PRs.
//!
//! ```text
//! cargo run --release -p strat-bench --bin export [-- OUT_PATH]
//! ```
//!
//! Runs the shared `strat_bench::core_groups` suite (the same kernels
//! `cargo bench` measures) and reads back what the criterion shim
//! recorded: every row, and every interleaved `bench_pair`. Each speedup
//! is the median of a pair's per-sample reference/optimized time ratios,
//! with the quartiles of those ratios beside it; the two sides' medians
//! stay in the row as context.

use criterion::Criterion;
use serde::Serialize;

/// One `groups` row of the report.
#[derive(Serialize)]
struct Measurement {
    group: String,
    bench: String,
    median_ns: f64,
}

/// One `speedups` row: `group/bench` is the optimized side,
/// `group/reference_bench` the reference side.
#[derive(Serialize)]
struct Speedup {
    group: String,
    bench: String,
    reference_bench: String,
    reference_ns: f64,
    optimized_ns: f64,
    speedup: f64,
    speedup_q1: f64,
    speedup_q3: f64,
}

#[derive(Serialize)]
struct Report {
    generated_by: String,
    command: String,
    time_scale: f64,
    groups: Vec<Measurement>,
    speedups: Vec<Speedup>,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_core.json".to_string());
    let time_scale = std::env::var("BENCH_TIME_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.0);

    let mut criterion = Criterion::default();
    strat_bench::core_groups(&mut criterion);

    // The observer seam's zero-cost gate reads its pair's median
    // per-sample ratio: both sides run the same machine code, so only
    // per-sample noise separates them, and a preempted sample then moves
    // one ratio instead of one side's median. At full time scale it
    // rejects more than 1% overhead; scaled (smoke) runs measure too
    // briefly for the bound to mean anything.
    let observer = criterion
        .pair_ratio("observer", "round_n2000_fluid")
        .expect("the observer pair ran");
    let overhead = 1.0 / observer.ratio;
    println!(
        "observer/round_n2000_fluid: NullObserver/plain per-sample median ratio {overhead:.4}"
    );
    if (time_scale - 1.0).abs() < f64::EPSILON {
        assert!(
            overhead <= 1.01,
            "NullObserver round overhead exceeds 1%: per-sample median ratio {overhead:.4} \
             ({:.0} ns observed vs {:.0} ns plain)",
            observer.b.median_ns,
            observer.a.median_ns
        );
    }

    let report = Report {
        generated_by: "crates/bench/src/bin/export.rs".to_string(),
        command: "cargo run --release -p strat-bench --bin export".to_string(),
        time_scale,
        groups: criterion
            .measurements()
            .iter()
            .map(|m| Measurement {
                group: m.group.clone(),
                bench: m.bench.clone(),
                median_ns: m.median_ns,
            })
            .collect(),
        speedups: criterion
            .pairs()
            .iter()
            .map(|pair| Speedup {
                group: pair.b.group.clone(),
                bench: pair.b.bench.clone(),
                reference_bench: pair.a.bench.clone(),
                reference_ns: pair.a.median_ns,
                optimized_ns: pair.b.median_ns,
                speedup: pair.ratio,
                speedup_q1: pair.ratio_q1,
                speedup_q3: pair.ratio_q3,
            })
            .collect(),
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, json + "\n").expect("write BENCH_core.json");

    println!("\nwrote {out_path}");
    for s in &report.speedups {
        println!(
            "  {}/{}: {:.2}x (IQR {:.2}-{:.2}; {:.0} ns -> {:.0} ns)",
            s.group, s.bench, s.speedup, s.speedup_q1, s.speedup_q3, s.reference_ns, s.optimized_ns
        );
    }
}
