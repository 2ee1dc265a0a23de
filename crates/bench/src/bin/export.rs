//! Writes `BENCH_core.json`: median-ns measurements of the matching-core
//! hot paths (optimized and seed-faithful reference), seeding the perf
//! trajectory tracked across PRs.
//!
//! ```text
//! cargo run --release -p strat-bench --bin export [-- OUT_PATH]
//! ```
//!
//! Runs the shared `strat_bench::core_groups` suite (the same kernels
//! `cargo bench` measures) through the criterion shim's JSON hook, then
//! derives reference/optimized speedups for every benchmark that has a
//! `*_ref` twin.

use std::io::BufRead as _;

use criterion::Criterion;
use serde::{Deserialize, Serialize};

/// One criterion-shim line, `{"group":"g","bench":"b","median_ns":123.4}`,
/// and one `groups` row of the report.
#[derive(Serialize, Deserialize)]
struct Measurement {
    group: String,
    bench: String,
    median_ns: f64,
}

#[derive(Serialize)]
struct Speedup {
    group: String,
    bench: String,
    reference_ns: f64,
    optimized_ns: f64,
    speedup: f64,
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
    let raw_path =
        std::env::temp_dir().join(format!("criterion-export-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&raw_path);
    std::env::set_var("CRITERION_JSON", &raw_path);
    let time_scale = std::env::var("BENCH_TIME_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.0);

    let mut criterion = Criterion::default();
    strat_bench::core_groups(&mut criterion);

    let file = std::fs::File::open(&raw_path).expect("criterion shim wrote the JSON lines file");
    let mut groups = Vec::new();
    for line in std::io::BufReader::new(file).lines() {
        let line = line.expect("readable line");
        groups.push(parse_line(&line).unwrap_or_else(|e| panic!("unparsable line: {line}: {e}")));
    }
    let _ = std::fs::remove_file(&raw_path);

    // Pair each `<name>_ref/<bench>` with `<name>/<bench>`.
    let mut speedups = Vec::new();
    for reference in groups.iter().filter(|m| m.group.ends_with("_ref")) {
        let optimized_group = reference.group.trim_end_matches("_ref");
        if let Some(optimized) = groups
            .iter()
            .find(|m| m.group == optimized_group && m.bench == reference.bench)
        {
            speedups.push(Speedup {
                group: optimized_group.to_string(),
                bench: reference.bench.clone(),
                reference_ns: reference.median_ns,
                optimized_ns: optimized.median_ns,
                speedup: reference.median_ns / optimized.median_ns,
            });
        }
    }

    // The observer seam's zero-cost gate. The two rows come from one
    // interleaved `bench_pair` (plain round = reference, NullObserver
    // round = optimized). The gate reads the pair's median per-sample
    // ratio rather than the ratio of the two medians: both sides run the
    // same machine code, so only per-sample noise separates them, and a
    // preempted sample then moves one ratio instead of one side's
    // median. At full time scale it rejects more than 1% overhead;
    // scaled (smoke) runs measure too briefly for the bound to mean
    // anything.
    let observer_row = |bench: &str| {
        groups
            .iter()
            .find(|m| m.group == "observer" && m.bench == bench)
            .unwrap_or_else(|| panic!("observer/{bench} exported"))
            .median_ns
    };
    let plain_ns = observer_row("round_n2000_fluid_plain");
    let observed_ns = observer_row("round_n2000_fluid_null_observer");
    speedups.push(Speedup {
        group: "observer".to_string(),
        bench: "round_n2000_fluid".to_string(),
        reference_ns: plain_ns,
        optimized_ns: observed_ns,
        speedup: plain_ns / observed_ns,
    });
    let overhead = criterion
        .pair_ratio("observer", "round_n2000_fluid_null_observer")
        .expect("the observer pair ran");
    println!(
        "observer/round_n2000_fluid: NullObserver/plain per-sample median ratio {overhead:.4}"
    );
    if (time_scale - 1.0).abs() < f64::EPSILON {
        assert!(
            overhead <= 1.01,
            "NullObserver round overhead exceeds 1%: per-sample median ratio {overhead:.4} \
             ({observed_ns:.0} ns observed vs {plain_ns:.0} ns plain)"
        );
    }

    let report = Report {
        generated_by: "crates/bench/src/bin/export.rs".to_string(),
        command: "cargo run --release -p strat-bench --bin export".to_string(),
        time_scale,
        groups,
        speedups,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, json + "\n").expect("write BENCH_core.json");

    println!("\nwrote {out_path}");
    for s in &report.speedups {
        println!(
            "  {}/{}: {:.2}x ({:.0} ns -> {:.0} ns)",
            s.group, s.bench, s.speedup, s.reference_ns, s.optimized_ns
        );
    }
}

/// Parses one criterion-shim line through the derived reader.
fn parse_line(line: &str) -> Result<Measurement, String> {
    let value = serde_json::from_str_value(line).map_err(|e| format!("{e:?}"))?;
    Measurement::from_value(&value).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::parse_line;

    #[test]
    fn criterion_lines_parse_through_the_derived_reader() {
        let m = parse_line(r#"{"group":"prefs","bench":"converge/500","median_ns":1234.5}"#)
            .expect("well-formed line");
        assert_eq!(
            (m.group.as_str(), m.bench.as_str()),
            ("prefs", "converge/500")
        );
        assert_eq!(m.median_ns, 1234.5);
        assert!(parse_line(r#"{"group":"prefs","bench":"b"}"#).is_err());
        assert!(parse_line("not json").is_err());
    }
}
