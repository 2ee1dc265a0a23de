//! Compares two `BENCH_core.json` reports.
//!
//! ```text
//! cargo run --release -p strat-bench --bin bench_diff -- OLD.json NEW.json
//! ```
//!
//! Prints two Markdown tables. The speedup table gives every pair's old
//! and new reference/optimized ratio with its inter-quartile range, and
//! flags a pair only when the two IQRs do not overlap: each ratio comes
//! from interleaved samples, so it carries from run to run. The `groups`
//! table gives every row's old and new median and the NEW/OLD ratio,
//! flagging rows that moved by more than 15% in either direction; absolute
//! medians depend on the machine and its load, so that table is context.
//! Both tables list rows present in only one report. The verdict is
//! informational: the tool exits 0 whenever both reports parse, so a
//! noisy runner cannot fail a build with it. Exit 2 on bad arguments or
//! unreadable reports.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use serde::Deserialize;

/// A `groups` row moved when NEW/OLD is more than this far from 1.
const FLAG: f64 = 0.15;

/// The part of a report this tool reads; every other key is ignored.
#[derive(Deserialize)]
struct Report {
    groups: Vec<Row>,
    speedups: Vec<Speedup>,
}

/// One `groups` row.
#[derive(Deserialize)]
struct Row {
    group: String,
    bench: String,
    median_ns: f64,
}

/// One `speedups` row: the median ratio and its quartiles.
#[derive(Deserialize)]
struct Speedup {
    group: String,
    bench: String,
    speedup: f64,
    speedup_q1: f64,
    speedup_q3: f64,
}

/// One report's rows keyed by `group/bench`.
struct Tables {
    medians: BTreeMap<String, f64>,
    speedups: BTreeMap<String, Speedup>,
}

fn load(path: &str) -> Result<Tables, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let value = serde_json::from_str_value(&raw).map_err(|e| format!("{path}: {e:?}"))?;
    let report =
        Report::from_value(&value).map_err(|e| format!("{path}: malformed report: {e}"))?;
    Ok(Tables {
        medians: report
            .groups
            .into_iter()
            .map(|row| (format!("{}/{}", row.group, row.bench), row.median_ns))
            .collect(),
        speedups: report
            .speedups
            .into_iter()
            .map(|row| (format!("{}/{}", row.group, row.bench), row))
            .collect(),
    })
}

/// Whether the inter-quartile ranges of two speedups share a point.
fn iqrs_overlap(a: &Speedup, b: &Speedup) -> bool {
    a.speedup_q1 <= b.speedup_q3 && b.speedup_q1 <= a.speedup_q3
}

fn moved(ratio: f64) -> bool {
    (ratio - 1.0).abs() > FLAG
}

/// Prints one Markdown table over every row of either report: the key,
/// each report's `cells`, then `compare`'s text and flag for a row both
/// reports hold. Returns the flagged and total row counts.
fn table<T>(
    header: &str,
    old: &BTreeMap<String, T>,
    new: &BTreeMap<String, T>,
    cells: impl Fn(Option<&T>) -> String,
    compare: impl Fn(&T, &T) -> (String, &'static str),
) -> (usize, usize) {
    println!("{header}");
    let keys: BTreeSet<&String> = old.keys().chain(new.keys()).collect();
    let mut flagged = 0;
    for key in &keys {
        let (o, n) = (old.get(*key), new.get(*key));
        let (text, flag) = match (o, n) {
            (Some(o), Some(n)) => compare(o, n),
            (Some(_), None) => (String::new(), "only in old"),
            (None, _) => (String::new(), "only in new"),
        };
        flagged += usize::from(!flag.is_empty());
        println!("| {key} | {} | {} | {text} | {flag} |", cells(o), cells(n));
    }
    (flagged, keys.len())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [old_path, new_path] = &args[..] else {
        eprintln!("usage: bench_diff OLD.json NEW.json");
        return ExitCode::from(2);
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };

    println!("#### Speedups (reference/optimized, median of interleaved per-sample ratios)\n");
    let (flagged, pairs) = table(
        "| pair | old | old IQR | new | new IQR | new/old | |\n|---|---:|---:|---:|---:|---:|---|",
        &old.speedups,
        &new.speedups,
        |s| {
            s.map_or(" | ".to_string(), |s| {
                format!("{:.2} | {:.2}–{:.2}", s.speedup, s.speedup_q1, s.speedup_q3)
            })
        },
        |o, n| {
            let flag = match (iqrs_overlap(o, n), n.speedup > o.speedup) {
                (true, _) => "",
                (false, true) => "**faster**",
                (false, false) => "**slower**",
            };
            (format!("{:.2}", n.speedup / o.speedup), flag)
        },
    );
    println!(
        "\n{flagged} of {pairs} pairs flagged (IQRs do not overlap, or present in one report only)"
    );

    println!("\n#### Medians (machine-dependent context)\n");
    let (flagged, rows) = table(
        "| row | old ns | new ns | new/old | |\n|---|---:|---:|---:|---|",
        &old.medians,
        &new.medians,
        |ns| ns.map_or(String::new(), |ns| format!("{ns:.0}")),
        |o, n| {
            let ratio = n / o;
            let flag = match (moved(ratio), ratio > 1.0) {
                (false, _) => "",
                (true, true) => "**slower**",
                (true, false) => "**faster**",
            };
            (format!("{ratio:.2}"), flag)
        },
    );
    println!(
        "\n{flagged} of {rows} rows flagged (moved by more than {:.0}%, or present in one report only)",
        FLAG * 100.0
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{iqrs_overlap, moved, Speedup};

    fn speedup(q1: f64, q3: f64) -> Speedup {
        Speedup {
            group: String::new(),
            bench: String::new(),
            speedup: (q1 + q3) / 2.0,
            speedup_q1: q1,
            speedup_q3: q3,
        }
    }

    #[test]
    fn speedups_move_only_when_their_iqrs_are_disjoint() {
        let base = speedup(2.0, 2.4);
        // Overlapping, nested and touching ranges are not a move.
        assert!(iqrs_overlap(&base, &speedup(2.3, 2.8)));
        assert!(iqrs_overlap(&base, &speedup(1.5, 2.0)));
        assert!(iqrs_overlap(&base, &speedup(2.1, 2.2)));
        assert!(iqrs_overlap(&speedup(1.0, 5.0), &base));
        // Disjoint ranges on either side are.
        assert!(!iqrs_overlap(&base, &speedup(2.41, 3.0)));
        assert!(!iqrs_overlap(&base, &speedup(1.0, 1.99)));
        assert!(!iqrs_overlap(&speedup(2.41, 3.0), &base));
    }

    #[test]
    fn rows_move_beyond_fifteen_percent_either_way() {
        assert!(!moved(1.0));
        assert!(!moved(1.14));
        assert!(!moved(0.86));
        assert!(moved(1.16));
        assert!(moved(0.84));
    }
}
