//! Compares two `BENCH_core.json` reports row by row.
//!
//! ```text
//! cargo run --release -p strat-bench --bin bench_diff -- OLD.json NEW.json
//! ```
//!
//! Prints a Markdown table with every `groups` row's old and new median
//! and the NEW/OLD ratio, flagging rows that moved by more than 15% in
//! either direction, plus rows present in only one report. The verdict
//! is informational: the tool exits 0 whenever both reports parse, so a
//! noisy runner cannot fail a build with it. Exit 2 on bad arguments or
//! unreadable reports.

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde::Deserialize;

/// A row moved when NEW/OLD is more than this far from 1.
const FLAG: f64 = 0.15;

/// The part of a report this tool reads; every other key is ignored.
#[derive(Deserialize)]
struct Report {
    groups: Vec<Row>,
}

/// One `groups` row.
#[derive(Deserialize)]
struct Row {
    group: String,
    bench: String,
    median_ns: f64,
}

/// `group/bench → median_ns` of one report's `groups` rows.
fn medians(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let value = serde_json::from_str_value(&raw).map_err(|e| format!("{path}: {e:?}"))?;
    let report =
        Report::from_value(&value).map_err(|e| format!("{path}: malformed report: {e}"))?;
    Ok(report
        .groups
        .into_iter()
        .map(|row| (format!("{}/{}", row.group, row.bench), row.median_ns))
        .collect())
}

fn moved(ratio: f64) -> bool {
    (ratio - 1.0).abs() > FLAG
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [old_path, new_path] = &args[..] else {
        eprintln!("usage: bench_diff OLD.json NEW.json");
        return ExitCode::from(2);
    };
    let (old, new) = match (medians(old_path), medians(new_path)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };

    println!("| row | old ns | new ns | new/old | |");
    println!("|---|---:|---:|---:|---|");
    let mut flagged = 0;
    let mut rows = 0;
    for (row, &old_ns) in &old {
        rows += 1;
        let Some(&new_ns) = new.get(row) else {
            println!("| {row} | {old_ns:.0} | | | only in old |");
            flagged += 1;
            continue;
        };
        let ratio = new_ns / old_ns;
        let flag = if moved(ratio) {
            flagged += 1;
            if ratio > 1.0 {
                "**slower**"
            } else {
                "**faster**"
            }
        } else {
            ""
        };
        println!("| {row} | {old_ns:.0} | {new_ns:.0} | {ratio:.2} | {flag} |");
    }
    for (row, &new_ns) in new.iter().filter(|(row, _)| !old.contains_key(*row)) {
        println!("| {row} | | {new_ns:.0} | | only in new |");
        rows += 1;
        flagged += 1;
    }
    println!();
    println!(
        "{flagged} of {rows} rows flagged (moved by more than {:.0}%, or present in one report only)",
        FLAG * 100.0
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::moved;

    #[test]
    fn rows_move_beyond_fifteen_percent_either_way() {
        assert!(!moved(1.0));
        assert!(!moved(1.14));
        assert!(!moved(0.86));
        assert!(moved(1.16));
        assert!(moved(0.84));
    }
}
