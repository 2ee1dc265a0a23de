//! `swarmbench`: the end-to-end benchmark of the swarm simulator.
//!
//! Four closed-loop workloads drive the library through its public API:
//! each round, step or experiment starts only after the previous one has
//! finished, on at most `available_parallelism` worker threads. See
//! `README.md` beside this package for why each workload exists, its size,
//! and which per-layer metric should move which end-to-end metric.
//!
//! ```text
//! cargo run --release --manifest-path swarmbench/Cargo.toml -- \
//!     --workload flash --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` repeats the workload for `--seconds` and prints the
//! end-to-end metrics. `--trace 1` runs one instance untraced, under a
//! counting observer, at one thread (flash, churn) and span-traced, checks
//! that every variant reproduces the untraced output fingerprint, writes
//! the spans to `swarmbench/out/`, and prints the per-layer metrics. The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` (correctness checks) and `metrics`.

mod churn;
mod flash;
mod paper;
mod report;
mod trace;
mod universe;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use strat_bittorrent::{NullObserver, RunObserver};

use report::{median, peak_rss_mb, percentile, Checks};
use trace::{Counting, Counts, Tracer};

/// Span run id of the span-traced pass.
pub const SPANS: u32 = 1;
/// Span run id of the one-thread pass.
pub const ONE_THREAD: u32 = 2;

/// What one solve of an instance measured.
pub struct Solve {
    pub wall_s: f64,
    /// Latency of every round, step or experiment, in order.
    pub step_ms: Vec<f64>,
    /// Work done: peer-rounds on the simulation workloads, experiments on
    /// `paper`.
    pub work: f64,
}

/// A benchmark workload: builds instances from the run seed, solves them
/// through the library's public calls, and checks their output.
pub trait Workload {
    type Instance;
    /// Measured repetitions per untraced run: at least the first, at most
    /// the second, as many as fit in `--seconds` in between.
    const REPS: (usize, usize);
    /// The percentile reported as `step_ms_tail`. The minimum repetitions
    /// leave at least ten samples beyond it.
    const TAIL_PCT: f64;
    /// Whether the engines emit observer events (false for `paper`, whose
    /// experiments own their observers).
    const OBSERVED: bool;
    /// Whether the traced run repeats the instance at one thread.
    const SINGLE_THREAD_CHECK: bool;

    fn warm_up(&self) {}
    /// Builds repetition `rep`'s instance; returns it with the seconds the
    /// library's constructors took.
    fn build(&self, rep: u64, tr: &mut Tracer) -> (Self::Instance, f64);
    fn solve<O: RunObserver + Clone>(
        &self,
        inst: &mut Self::Instance,
        threads: usize,
        obs: &O,
        tr: &mut Tracer,
    ) -> Solve;
    fn check(&self, inst: &Self::Instance, checks: &mut Checks);
    fn fingerprint(&self, inst: &Self::Instance) -> u64;
    fn layers(&self, run: &TracedRun<Self::Instance>, out: &mut Layers);
}

/// Everything the traced run hands a workload to derive its layers from.
pub struct TracedRun<'a, I> {
    pub tracer: &'a Tracer,
    /// The span-traced instance and its solve.
    pub inst: &'a I,
    pub solve: &'a Solve,
    /// Events the counting observer saw in its own solve.
    pub counts: Counts,
}

/// Per-layer metrics (name, unit), in `BENCHMARK.json` order. A layer a
/// workload does not reach reports 0.
fn layer_metrics() -> Vec<(String, &'static str)> {
    let fixed = |names: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        names.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut all = fixed(&[
        ("swarm.build_s", "s"),
        ("swarm.round_busy_s", "s"),
        ("swarm.ns_per_peer_round", "ns"),
        ("swarm.rounds", "count"),
        ("swarm.transfers", "count"),
        ("swarm.kbit", "kbit"),
        ("swarm.unchokes", "count"),
        ("swarm.optimistic_unchokes", "count"),
        ("swarm.pieces_converted", "count"),
        ("swarm.completions", "count"),
        ("swarm.useful_ratio", "ratio"),
        ("swarm.par_speedup", "ratio"),
        ("session.membership_busy_s", "s"),
        ("session.us_per_membership_event", "us"),
        ("session.round_pass_busy_s", "s"),
        ("session.arrivals", "count"),
        ("session.departures", "count"),
        ("session.completions", "count"),
        ("session.compactions", "count"),
        ("session.compact_round_ms", "ms"),
        ("faults.crashes", "count"),
        ("faults.repaired_edges", "count"),
        ("universe.build_s", "s"),
        ("universe.step_busy_s", "s"),
        ("universe.ns_per_replica_round", "ns"),
        ("universe.members", "count"),
        ("universe.cross_joins", "count"),
        ("universe.member_departures", "count"),
        ("universe.replica_departures", "count"),
        ("universe.completions", "count"),
    ]);
    for entry in strat_sim::runner::registry() {
        all.push((format!("paper.{}_s", entry.id), "s"));
    }
    all.extend(fixed(&[
        ("paper.core_s", "s"),
        ("paper.analytic_s", "s"),
        ("paper.bittorrent_s", "s"),
        ("paper.checks", "count"),
        ("paper.checks_failed", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]));
    all
}

/// The per-layer metric values of one traced run.
pub struct Layers(Vec<(String, &'static str, f64)>);

impl Layers {
    fn new() -> Self {
        Self(
            layer_metrics()
                .into_iter()
                .map(|(n, u)| (n, u, 0.0))
                .collect(),
        )
    }

    fn slot(&mut self, name: &str) -> &mut f64 {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, _, v)) => v,
            None => panic!("unknown per-layer metric {name}"),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        *self.slot(name) = value;
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.slot(name) += value;
    }

    /// The swarm layer's event counts, and the share of transferred kbit
    /// that became whole pieces (base: `swarm.kbit`).
    pub fn swarm_counts(&mut self, c: &Counts, piece_kbit: f64) {
        self.set("swarm.transfers", c.transfers as f64);
        self.set("swarm.kbit", c.kbit);
        self.set("swarm.unchokes", c.unchokes as f64);
        self.set("swarm.optimistic_unchokes", c.optimistic_unchokes as f64);
        self.set("swarm.pieces_converted", c.pieces_converted as f64);
        self.set("swarm.completions", c.completions as f64);
        if c.kbit > 0.0 {
            self.set(
                "swarm.useful_ratio",
                c.pieces_converted as f64 * piece_kbit / c.kbit,
            );
        }
    }
}

/// One printed metric: name, value, unit.
type Metric = (String, f64, &'static str);

/// End-to-end metrics (name, unit), in `BENCHMARK.json` order.
/// `throughput_per_s` is peer-rounds per second on the simulation
/// workloads and experiments per second on `paper`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The untraced run: repeats fresh instances until `seconds` are spent and
/// reports the end-to-end metrics.
fn measure<W: Workload>(w: &W, seconds: f64, threads: usize) -> (Vec<Metric>, Checks) {
    let mut checks = Checks::default();
    let mut tr = Tracer::off();
    w.warm_up();
    let (min, max) = W::REPS;
    let start = Instant::now();
    let (mut setup, mut wall, mut rate, mut steps) = (vec![], vec![], vec![], vec![]);
    // Peak memory of one solve in a fresh process. Later repetitions
    // only add allocator fragmentation, which varies from run to run.
    let mut peak_mb = 0.0;
    let mut rep = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let fits = rep > 0 && elapsed + elapsed / rep as f64 <= seconds;
        if rep >= max || (rep >= min && !fits) {
            break;
        }
        let (mut inst, setup_s) = w.build(rep as u64, &mut tr);
        let solve = w.solve(&mut inst, threads, &NullObserver, &mut tr);
        w.check(&inst, &mut checks);
        if rep == 0 {
            peak_mb = peak_rss_mb();
        }
        setup.push(setup_s);
        wall.push(solve.wall_s);
        rate.push(solve.work / solve.wall_s);
        eprintln!(
            "repetition {rep}: setup {setup_s:.4} s, wall {:.4} s",
            solve.wall_s
        );
        steps.extend(solve.step_ms);
        rep += 1;
    }
    // At least five set-up samples, so `setup_s` is a median of several.
    while setup.len() < 5 {
        setup.push(w.build(setup.len() as u64, &mut tr).1);
    }
    let beyond = steps.len() - (W::TAIL_PCT / 100.0 * steps.len() as f64).ceil() as usize;
    eprintln!(
        "{rep} repetitions; step_ms_tail is p{} of {} steps ({beyond} beyond it)",
        W::TAIL_PCT,
        steps.len()
    );
    let values = [
        median(&setup),
        median(&wall),
        median(&rate),
        percentile(&steps, 50.0),
        percentile(&steps, W::TAIL_PCT),
        peak_mb,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name.to_string(), value, unit))
        .collect();
    (metrics, checks)
}

/// The traced run: one instance solved untraced, under the counting
/// observer, at one thread and span-traced; every variant must reproduce
/// the untraced output fingerprint.
fn traced<W: Workload>(w: &W, threads: usize, spans_path: &Path) -> (Vec<Metric>, Checks) {
    let mut checks = Checks::default();
    let mut off = Tracer::off();
    w.warm_up();

    // The counting pass goes first, so the untraced reference that
    // `trace.overhead_ratio` divides by does not pay the cold start.
    let counting = Counting::default();
    let counted = W::OBSERVED.then(|| {
        let (mut inst, _) = w.build(0, &mut off);
        w.solve(&mut inst, threads, &counting, &mut off);
        w.fingerprint(&inst)
    });

    let (mut inst, _) = w.build(0, &mut off);
    let untraced = w.solve(&mut inst, threads, &NullObserver, &mut off);
    w.check(&inst, &mut checks);
    let reference = w.fingerprint(&inst);
    drop(inst);

    if let Some(fingerprint) = counted {
        checks.check(
            "counting-observer run reproduces the untraced fingerprint",
            fingerprint == reference,
            "observers must be pure taps",
        );
    }

    let mut tr = Tracer::on(ONE_THREAD);
    if W::SINGLE_THREAD_CHECK {
        let (fingerprint, _) = tr.span("rep", |tr| {
            let (mut inst, _) = w.build(0, tr);
            w.solve(&mut inst, 1, &NullObserver, tr);
            w.fingerprint(&inst)
        });
        checks.check(
            "one-thread run reproduces the multi-thread fingerprint",
            fingerprint == reference,
            format!("1 vs {threads} threads"),
        );
    }

    tr.set_run(SPANS);
    let ((inst, solve), _) = tr.span("rep", |tr| {
        let (mut inst, _) = w.build(0, tr);
        let solve = w.solve(&mut inst, threads, &NullObserver, tr);
        (inst, solve)
    });
    checks.check(
        "span-traced run reproduces the untraced fingerprint",
        w.fingerprint(&inst) == reference,
        "spans sit outside the program",
    );

    let mut layers = Layers::new();
    w.layers(
        &TracedRun {
            tracer: &tr,
            inst: &inst,
            solve: &solve,
            counts: counting.totals(),
        },
        &mut layers,
    );
    layers.set("trace.overhead_ratio", solve.wall_s / untraced.wall_s);
    if let Err(e) = tr.write_jsonl(spans_path) {
        eprintln!("could not write spans to {}: {e}", spans_path.display());
    }
    (
        layers.0.into_iter().map(|(n, u, v)| (n, v, u)).collect(),
        checks,
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    paper_seed: Option<u64>,
}

const USAGE: &str = "usage: swarmbench --workload flash|churn|universe|paper --seed N \
                     --seconds S --trace 0|1 [--paper-seed N]";

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut paper_seed) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))?),
            "--paper-seed" => paper_seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        paper_seed,
    })
}

fn run<W: Workload>(w: &W, args: &Args, threads: usize) -> (Vec<Metric>, Checks) {
    if args.trace {
        let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        traced(w, threads, &spans)
    } else {
        measure(w, args.seconds, threads)
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("swarmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let seed = args.seed;
    let (metrics, mut checks) = match args.workload.as_str() {
        "flash" => run(&flash::Flash { seed }, &args, threads),
        "churn" => run(&churn::Churn { seed }, &args, threads),
        "universe" => run(&universe::UniverseBench { seed }, &args, threads),
        "paper" => {
            let pool = &paper::SEED_POOL;
            let paper_seed = args
                .paper_seed
                .unwrap_or(pool[(seed % pool.len() as u64) as usize]);
            eprintln!("paper: experiment seed {paper_seed}");
            run(&paper::Paper::new(paper_seed), &args, threads)
        }
        other => {
            eprintln!("swarmbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for (name, value, _) in &metrics {
        checks.check(
            &format!("metric {name} is finite"),
            value.is_finite(),
            value,
        );
    }
    eprintln!(
        "{} workload, {threads} threads, {} of {} checks failed (check_fail_ratio {})",
        args.workload,
        checks.failed,
        checks.attempted,
        checks.failed as f64 / checks.attempted as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            eprintln!("  {name} = {value} {unit}");
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of one `BENCHMARK.json` metric list.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let json = serde_json::from_str_value(&text).expect("BENCHMARK.json parses");
        let field = |m: &serde_json::Value, key: &str| {
            m.get(key)
                .and_then(|v| v.as_str())
                .unwrap_or_default()
                .to_string()
        };
        json.get(list)
            .and_then(|v| v.as_array())
            .expect("metric list present")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn per_layer_metrics_match_benchmark_json() {
        let printed: Vec<(String, String)> = layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(printed, declared("per_layer"));
    }

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let printed: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(printed, declared("end_to_end"));
    }

    #[test]
    fn parse_requires_every_flag() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse(args("--workload flash --seed 3 --seconds 10 --trace 1").into_iter());
        assert!(ok.is_ok_and(|a| a.trace && a.seed == 3));
        assert!(parse(args("--workload flash --seed 3 --seconds 10").into_iter()).is_err());
        assert!(
            parse(args("--workload flash --seed x --seconds 1 --trace 0").into_iter()).is_err()
        );
        assert!(
            parse(args("--workload flash --seed 1 --seconds 1 --trace 2").into_iter()).is_err()
        );
    }
}
