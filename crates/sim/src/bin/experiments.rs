//! CLI for regenerating the paper's tables and figures.
//!
//! ```text
//! experiments [IDS...] [--quick] [--seed N] [--out DIR] [--jobs N] [--list] [--plot]
//! experiments --scenario FILE.json [--quick] [--out DIR] [--plot]
//! experiments scenarios [--dump] [--quick] [--seed N] [--out DIR]
//! ```
//!
//! Without ids, runs the full registry. Independent experiments run across
//! `--jobs` threads (default: all cores; results are identical for any job
//! count). Writes one CSV per experiment into `--out` (default
//! `results/`), prints each data table, shape-check verdicts and (with
//! `--plot`) an ASCII rendering of the figure.
//!
//! `--scenario FILE.json` loads a declarative scenario (see
//! `strat-scenario`), dispatches on its `experiment` binding and runs that
//! kernel on it — the scenario's own seed drives all randomness, so a
//! dumped preset reproduces its figure bit-identically. A file that does
//! not parse, or that its kernel cannot build, prints the typed error and
//! exits 2.
//!
//! The `scenarios` subcommand lists the named presets of every paper
//! figure, or (with `--dump`) writes them as pretty-printed JSON into
//! `--out` (default `results/scenarios/`).

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use strat_sim::output;
use strat_sim::runner::{self, ExperimentContext, ExperimentResult};

struct Args {
    ids: Vec<String>,
    quick: bool,
    seed: u64,
    out: Option<PathBuf>,
    jobs: usize,
    list: bool,
    plot: bool,
    scenario: Option<PathBuf>,
    dump: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ids: Vec::new(),
        quick: false,
        seed: 2007,
        out: None,
        jobs: strat_par::default_threads(),
        list: false,
        plot: false,
        scenario: None,
        dump: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--list" => args.list = true,
            "--plot" => args.plot = true,
            "--dump" => args.dump = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|e| format!("bad seed {v}: {e}"))?;
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                args.out = Some(PathBuf::from(v));
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                args.jobs = v
                    .parse::<usize>()
                    .map_err(|e| format!("bad job count {v}: {e}"))?
                    .max(1);
            }
            "--scenario" => {
                let v = it.next().ok_or("--scenario needs a file path")?;
                args.scenario = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [IDS...] [--quick] [--seed N] [--out DIR] [--jobs N] \
                     [--list] [--plot]\n\
                     \x20      experiments --scenario FILE.json [--quick] [--out DIR] [--plot]\n\
                     \x20      experiments scenarios [--dump] [--quick] [--seed N] [--out DIR]"
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}"));
            }
            id => args.ids.push(id.to_string()),
        }
    }
    Ok(args)
}

fn print_result(result: &ExperimentResult, plot: bool) {
    println!("\n=== {} — {}", result.id, result.title);
    println!("    params: {}", result.params);
    println!("{}", output::to_ascii_table(result, 12));
    if plot && result.columns.len() >= 2 && !result.rows.is_empty() {
        let ycols: Vec<usize> = (1..result.columns.len().min(5)).collect();
        println!("{}", output::ascii_plot(result, 0, &ycols, 64, 16));
    }
    for check in &result.checks {
        let mark = if check.passed { "PASS" } else { "FAIL" };
        println!("  [{mark}] {} — {}", check.name, check.detail);
    }
    for note in &result.notes {
        println!("  note: {note}");
    }
}

fn write_outputs(out: &PathBuf, result: &ExperimentResult) {
    std::fs::create_dir_all(out).expect("create output directory");
    let csv_path = out.join(format!("{}.csv", result.id));
    std::fs::write(&csv_path, output::to_csv(result)).expect("write csv");
    let json_path = out.join(format!("{}.json", result.id));
    let mut f = std::fs::File::create(&json_path).expect("create json");
    serde_json::to_writer_pretty(&mut f, result).expect("serialize result");
    f.write_all(b"\n").expect("finish json");
}

/// `experiments scenarios [--dump]`: list or dump the named presets.
fn scenarios_command(args: &Args) -> i32 {
    let ctx = ExperimentContext {
        quick: args.quick,
        seed: args.seed,
    };
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("results/scenarios"));
    if args.dump {
        std::fs::create_dir_all(&out).expect("create scenario directory");
    }
    for entry in runner::registry() {
        let scenario = (entry.preset)(&ctx);
        if args.dump {
            let path = out.join(format!("{}.json", scenario.name));
            std::fs::write(&path, scenario.to_json_pretty() + "\n").expect("write scenario");
            println!("wrote {}", path.display());
        } else {
            println!(
                "{:8} peers={:<7} capacity={:<30} topology={:<38} churn={:?}",
                scenario.name,
                scenario.peers,
                format!("{:?}", scenario.capacity),
                format!("{:?}", scenario.topology),
                scenario.churn,
            );
        }
    }
    0
}

/// `experiments --scenario FILE`: run one scenario file through its
/// experiment kernel.
fn scenario_command(args: &Args, path: &PathBuf) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let scenario = match strat_scenario::Scenario::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            return 2;
        }
    };
    let Some(entry) = runner::find(&scenario.experiment) else {
        eprintln!(
            "error: scenario `{}` binds to unknown experiment `{}` (try --list)",
            scenario.name, scenario.experiment
        );
        return 2;
    };
    // The scenario's own seed drives every stream; ctx carries the profile.
    let ctx = ExperimentContext {
        quick: args.quick,
        seed: scenario.seed,
    };
    println!(
        "scenario `{}` -> experiment `{}` (seed {})",
        scenario.name, scenario.experiment, scenario.seed
    );
    let start = Instant::now();
    let result = match (entry.try_run_scenario)(&ctx, &scenario) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            return 2;
        }
    };
    print_result(&result, args.plot);
    println!("  ({:.2}s)", start.elapsed().as_secs_f64());
    if let Some(out) = &args.out {
        write_outputs(out, &result);
    }
    let failures = result.checks.iter().filter(|c| !c.passed).count();
    if failures > 0 {
        eprintln!("{failures} shape check(s) FAILED");
        return 1;
    }
    println!("all shape checks passed");
    0
}

fn main() {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.ids.first().map(String::as_str) == Some("scenarios") {
        args.ids.remove(0);
        if !args.ids.is_empty() {
            eprintln!("error: `scenarios` takes no experiment ids");
            std::process::exit(2);
        }
        std::process::exit(scenarios_command(&args));
    }
    if let Some(path) = args.scenario.clone() {
        if !args.ids.is_empty() {
            eprintln!("error: --scenario cannot be combined with experiment ids");
            std::process::exit(2);
        }
        std::process::exit(scenario_command(&args, &path));
    }
    let registry = runner::registry();
    if args.list {
        for entry in &registry {
            println!("{:8} {}", entry.id, entry.description);
        }
        return;
    }
    let selected: Vec<_> = if args.ids.is_empty() {
        registry
    } else {
        args.ids
            .iter()
            .map(|id| {
                runner::find(id).unwrap_or_else(|| {
                    eprintln!("error: unknown experiment id `{id}` (try --list)");
                    std::process::exit(2);
                })
            })
            .collect()
    };

    let out = args.out.clone().unwrap_or_else(|| PathBuf::from("results"));
    let ctx = ExperimentContext {
        quick: args.quick,
        seed: args.seed,
    };
    let wall = Instant::now();
    // Fan the independent experiments out across worker threads; results
    // come back in registry order regardless of the job count.
    let results = runner::run_parallel(&selected, &ctx, args.jobs);
    let wall_elapsed = wall.elapsed();
    let mut failures = 0usize;
    let mut summary = Vec::new();
    for (result, seconds) in results {
        print_result(&result, args.plot);
        println!("  ({seconds:.2}s)");
        write_outputs(&out, &result);
        failures += result.checks.iter().filter(|c| !c.passed).count();
        summary.push((
            result.id.clone(),
            result.checks.len(),
            result.checks.iter().filter(|c| c.passed).count(),
            seconds,
        ));
    }

    println!("\n==== summary ====");
    for (id, total, passed, seconds) in &summary {
        println!("{id:8} {passed}/{total} checks passed ({seconds:.2}s)");
    }
    println!(
        "total wall clock: {wall_elapsed:.2?} across {} experiment(s) with {} job(s)",
        summary.len(),
        args.jobs
    );
    if failures > 0 {
        eprintln!("{failures} shape check(s) FAILED");
        std::process::exit(1);
    }
    println!("all shape checks passed");
}
