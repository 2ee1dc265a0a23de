//! `paper`: the quick experiment registry (all 25 entries, one at a time,
//! in process) with every shape check evaluated — the run a user makes to
//! reproduce the paper, and the only workload that exercises the matching
//! core, the analytic crate and the event core.
//!
//! Set-up builds the 25 scenario presets; a pass runs every experiment's
//! kernel on its preset, which is exactly `ExperimentEntry::run`.

use std::time::Instant;

use strat_bittorrent::RunObserver;
use strat_scenario::Scenario;
use strat_sim::runner::{registry, ExperimentContext, ExperimentEntry, ExperimentResult};

use crate::report::{median, Checks, Fingerprint};
use crate::trace::Tracer;
use crate::{Layers, Solve, TracedRun, Workload, SPANS};

/// Experiment seeds whose quick-profile shape checks all pass (145 of
/// 145). The shape checks are seed-sensitive (table1's super-exponential
/// growth check fails at most seeds), so `--seed` picks from this pool
/// and every run's baseline is zero failed checks. 2007 is the harness
/// default. Seed 42 is also clean and kept out of the pool as the
/// held-out seed (`--paper-seed 42`), for confirming a claim on a seed
/// not used while the change was written.
pub const SEED_POOL: [u64; 11] = [2007, 3, 7, 12, 13, 16, 18, 19, 20, 22, 23];
/// Preset builds timed per set-up sample.
const PRESET_BUILDS: usize = 51;

pub struct Paper {
    pub ctx: ExperimentContext,
}

impl Paper {
    pub fn new(seed: u64) -> Self {
        Self {
            ctx: ExperimentContext { quick: true, seed },
        }
    }
}

pub struct Instance {
    presets: Vec<(ExperimentEntry, Scenario)>,
    results: Vec<ExperimentResult>,
}

/// Which crate's layer an experiment mainly exercises.
fn group(id: &str) -> &'static str {
    match id {
        _ if id.starts_with("bt") => "paper.bittorrent_s",
        "fig7" | "fig8" | "fig9" | "fig10" | "fig11" | "fluid" => "paper.analytic_s",
        _ => "paper.core_s",
    }
}

impl Workload for Paper {
    type Instance = Instance;
    /// p95 of n passes leaves 1.25·n experiments beyond it: every run of
    /// btchurn (the slowest) and a few of fig9 (the next), so the tail
    /// stays on fig9 for any pass count; at n ≥ 8 that is ≥ 10 samples.
    const REPS: (usize, usize) = (8, 14);
    const TAIL_PCT: f64 = 95.0;
    const OBSERVED: bool = false;
    const SINGLE_THREAD_CHECK: bool = false;

    /// One untimed pass, so lazily grown buffers and page faults do not
    /// land in the first measured pass.
    fn warm_up(&self) {
        for entry in registry() {
            let _ = (entry.run)(&self.ctx);
        }
    }

    /// Building the presets takes tens of microseconds, so one build is
    /// timed `PRESET_BUILDS` times and the median reported.
    fn build(&self, _rep: u64, tr: &mut Tracer) -> (Instance, f64) {
        let mut times = Vec::with_capacity(PRESET_BUILDS);
        let mut presets = Vec::new();
        for _ in 0..PRESET_BUILDS {
            let (built, s) = tr.span("paper.presets", |_| {
                registry()
                    .into_iter()
                    .map(|entry| {
                        let scenario = (entry.preset)(&self.ctx);
                        (entry, scenario)
                    })
                    .collect()
            });
            presets = built;
            times.push(s);
        }
        let inst = Instance {
            presets,
            results: Vec::new(),
        };
        (inst, median(&times))
    }

    fn solve<O: RunObserver + Clone>(
        &self,
        inst: &mut Instance,
        _threads: usize,
        _obs: &O,
        tr: &mut Tracer,
    ) -> Solve {
        let start = Instant::now();
        let mut step_ms = Vec::new();
        inst.results.clear();
        for (entry, scenario) in &inst.presets {
            let (result, s) = tr.span(&format!("paper.{}", entry.id), |_| {
                (entry.run_scenario)(&self.ctx, scenario)
            });
            inst.results.push(result);
            step_ms.push(s * 1e3);
        }
        Solve {
            wall_s: start.elapsed().as_secs_f64(),
            work: step_ms.len() as f64,
            step_ms,
        }
    }

    fn check(&self, inst: &Instance, checks: &mut Checks) {
        for result in &inst.results {
            for c in &result.checks {
                checks.check(
                    &format!("paper: {} {}", result.id, c.name),
                    c.passed,
                    &c.detail,
                );
            }
        }
    }

    fn fingerprint(&self, inst: &Instance) -> u64 {
        let mut f = Fingerprint::default();
        for result in &inst.results {
            for row in &result.rows {
                for &x in row {
                    f.f64(x);
                }
            }
            for c in &result.checks {
                f.u64(u64::from(c.passed));
            }
        }
        f.finish()
    }

    fn layers(&self, run: &TracedRun<Instance>, out: &mut Layers) {
        let tr = run.tracer;
        for (entry, _) in &run.inst.presets {
            let s = tr.self_s(SPANS, &format!("paper.{}", entry.id));
            out.set(&format!("paper.{}_s", entry.id), s);
            out.add(group(entry.id), s);
        }
        let checks = run.inst.results.iter().flat_map(|r| &r.checks);
        out.set("paper.checks", checks.clone().count() as f64);
        out.set(
            "paper.checks_failed",
            checks.filter(|c| !c.passed).count() as f64,
        );
    }
}
