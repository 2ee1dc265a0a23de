//! Experiment runner scaffolding: results, shape checks, registry.

use serde::Serialize;

/// Shared knobs for every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ExperimentContext {
    /// Reduced sizes/realizations for CI-speed runs.
    pub quick: bool,
    /// Base RNG seed (experiments derive their own streams).
    pub seed: u64,
}

impl Default for ExperimentContext {
    fn default() -> Self {
        Self {
            quick: false,
            seed: 2007,
        }
    }
}

/// A machine-checked "shape criterion": the qualitative property of a paper
/// figure/table that the reproduction must exhibit.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Check {
    /// Short name of the criterion.
    pub name: String,
    /// Whether the measured data satisfied it.
    pub passed: bool,
    /// Measured values backing the verdict.
    pub detail: String,
}

impl Check {
    /// Builds a check result.
    pub fn new(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            passed,
            detail: detail.into(),
        }
    }
}

/// The output of one experiment: a column-labeled numeric table plus the
/// shape checks and free-form notes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExperimentResult {
    /// Experiment id (`fig1`, `table1`, …) as used in DESIGN.md.
    pub id: String,
    /// Human title (paper artifact).
    pub title: String,
    /// Parameter summary.
    pub params: String,
    /// Column headers of `rows`.
    pub columns: Vec<String>,
    /// Numeric data rows.
    pub rows: Vec<Vec<f64>>,
    /// Shape criteria verdicts.
    pub checks: Vec<Check>,
    /// Additional commentary (paper-vs-measured notes).
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Creates an empty result shell.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        params: impl Into<String>,
        columns: Vec<String>,
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            params: params.into(),
            columns,
            rows: Vec::new(),
            checks: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width disagrees with the column count.
    pub fn push_row(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Appends a shape check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check::new(name, passed, detail));
    }

    /// Appends a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Whether every shape check passed.
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// An experiment entry point.
pub type ExperimentFn = fn(&ExperimentContext) -> ExperimentResult;

/// The named declarative scenario of a paper figure.
pub type PresetFn = fn(&ExperimentContext) -> strat_scenario::Scenario;

/// A measurement kernel driven by an explicit scenario; a scenario the
/// kernel cannot build is a typed error.
pub type ScenarioRunFn = fn(
    &ExperimentContext,
    &strat_scenario::Scenario,
) -> Result<ExperimentResult, strat_scenario::ScenarioError>;

/// One registry entry. Every entry point validates its scenario
/// ([`Scenario::validate`](strat_scenario::Scenario::validate)) before the
/// kernel runs, so no kernel reads an unchecked parameter.
#[derive(Clone, Copy)]
pub struct ExperimentEntry {
    /// Experiment id.
    pub id: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Entry point on the entry's own preset (`run_scenario ∘ preset`).
    pub run: ExperimentFn,
    /// The figure's named scenario preset.
    pub preset: PresetFn,
    /// The measurement kernel for an arbitrary (e.g. file-loaded) scenario.
    pub try_run_scenario: ScenarioRunFn,
    /// [`try_run_scenario`](Self::try_run_scenario) for a scenario known
    /// to build (a preset, or a preset's JSON round trip); panics with
    /// the build error otherwise.
    pub run_scenario: fn(&ExperimentContext, &strat_scenario::Scenario) -> ExperimentResult,
}

/// Runs `kernel` on `scenario` once the scenario validates.
fn validated(
    ctx: &ExperimentContext,
    scenario: &strat_scenario::Scenario,
    kernel: ScenarioRunFn,
) -> Result<ExperimentResult, strat_scenario::ScenarioError> {
    scenario.validate()?;
    kernel(ctx, scenario)
}

macro_rules! entry {
    ($id:literal, $module:ident, $description:literal) => {
        ExperimentEntry {
            id: $id,
            description: $description,
            run: |ctx| {
                validated(
                    ctx,
                    &crate::experiments::$module::preset(ctx),
                    crate::experiments::$module::run_scenario,
                )
                .unwrap_or_else(|e| panic!("{} preset: {e}", $id))
            },
            preset: crate::experiments::$module::preset,
            try_run_scenario: |ctx, scenario| {
                validated(ctx, scenario, crate::experiments::$module::run_scenario)
            },
            run_scenario: |ctx, scenario| {
                validated(ctx, scenario, crate::experiments::$module::run_scenario)
                    .unwrap_or_else(|e| panic!("{} scenario: {e}", $id))
            },
        }
    };
}

/// All experiments, in paper order.
#[must_use]
pub fn registry() -> Vec<ExperimentEntry> {
    vec![
        entry!(
            "fig1",
            fig1,
            "Convergence from the empty configuration (Figure 1)"
        ),
        entry!(
            "fig2",
            fig2,
            "Peer-removal perturbation and reconvergence (Figure 2)"
        ),
        entry!("fig3", fig3, "Disorder under continuous churn (Figure 3)"),
        entry!(
            "fig45",
            fig45,
            "Clusters of constant b-matching; one extra connection (Figures 4-5)"
        ),
        entry!(
            "table1",
            table1,
            "Clustering and stratification on complete graphs (Table 1)"
        ),
        entry!(
            "fig6",
            fig6,
            "Phase transition in sigma for N(6, sigma^2) capacities (Figure 6)"
        ),
        entry!(
            "fig7",
            fig7,
            "Exact vs independent-model error for n = 3 (Figure 7)"
        ),
        entry!(
            "fig8",
            fig8,
            "Mate distributions of peers 200/2500/4800, n = 5000 (Figure 8)"
        ),
        entry!(
            "fig9",
            fig9,
            "Algorithm 3 vs Monte-Carlo simulation, 2-matching (Figure 9)"
        ),
        entry!(
            "fig10",
            fig10,
            "Upstream bandwidth CDF, Saroiu-style synthetic (Figure 10)"
        ),
        entry!(
            "fig11",
            fig11,
            "Expected D/U ratio vs upload bandwidth per slot (Figure 11)"
        ),
        entry!(
            "bt1",
            bt1,
            "BitTorrent swarm stratification and share ratios (section 6 claims)"
        ),
        entry!(
            "btflash",
            btflash,
            "Flash crowd: completion wave of a cold 10k-leecher swarm (parallel rounds)"
        ),
        entry!(
            "btfree",
            btfree,
            "Free-rider share sweep over the BehaviorMix (TFT incentive structure)"
        ),
        entry!(
            "btchurn",
            btchurn,
            "Open swarm: arrival x seed-leave sweep vs the fluid model (session subsystem)"
        ),
        entry!(
            "btevent",
            btevent,
            "Event engine: speed-heterogeneity sweep vs the multi-class fluid model (event core)"
        ),
        entry!(
            "btfault",
            btfault,
            "Fault plane: crash/loss/outage/partition degradation and recovery (fault subsystem)"
        ),
        entry!(
            "btcluster",
            btcluster,
            "TFT unchokes cluster by bandwidth class, Legout et al. (observer layer)"
        ),
        entry!(
            "btoverlay",
            btoverlay,
            "Peer-list cap shapes the live overlay, Al-Hamra et al. (observer layer)"
        ),
        entry!(
            "btmulti",
            btmulti,
            "Multi-swarm universe: shared population vs per-torrent fluid oracle (universe subsystem)"
        ),
        entry!(
            "ext1",
            ext1,
            "Combined utilities: rank stratification vs latency clustering (section 7)"
        ),
        entry!(
            "ext2",
            ext2,
            "Gossip-estimated ranks: stratification robustness (section 1 ref [8])"
        ),
        entry!(
            "latstrat",
            latstrat,
            "Latency-cluster formation vs rank stratification on the generic engine (section 7)"
        ),
        entry!(
            "fluid",
            fluid,
            "Fluid-limit convergence n*D(1,.) -> d*exp(-beta*d) (Conjecture 1)"
        ),
        entry!(
            "mmo",
            mmo,
            "Mean Max Offset closed form and 3b/4 limit (section 4.2)"
        ),
    ]
}

/// Looks up an experiment by id.
#[must_use]
pub fn find(id: &str) -> Option<ExperimentEntry> {
    registry().into_iter().find(|e| e.id == id)
}

/// Runs `entries` across up to `jobs` threads, returning results (paired
/// with per-experiment wall-clock seconds) in input order.
///
/// Independent experiment runs are the outermost embarrassingly-parallel
/// layer of the harness. Every experiment derives its RNG streams from
/// `ctx.seed` alone (see `experiments::common::rng`), so results are
/// identical for any `jobs` — the `strat_par` determinism contract.
#[must_use]
pub fn run_parallel(
    entries: &[ExperimentEntry],
    ctx: &ExperimentContext,
    jobs: usize,
) -> Vec<(ExperimentResult, f64)> {
    strat_par::par_map(entries, jobs, |_, entry| {
        let start = std::time::Instant::now();
        let result = (entry.run)(ctx);
        (result, start.elapsed().as_secs_f64())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_findable() {
        let reg = registry();
        let mut ids: Vec<&str> = reg.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate experiment ids");
        assert!(find("fig1").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn result_row_width_checked() {
        let mut r = ExperimentResult::new("x", "t", "p", vec!["a".into(), "b".into()]);
        r.push_row(vec![1.0, 2.0]);
        assert_eq!(r.rows.len(), 1);
        assert!(r.all_passed());
        r.check("c", false, "d");
        assert!(!r.all_passed());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn bad_row_panics() {
        let mut r = ExperimentResult::new("x", "t", "p", vec!["a".into()]);
        r.push_row(vec![1.0, 2.0]);
    }

    #[test]
    fn run_parallel_is_deterministic_and_ordered() {
        // Two cheap experiments, quick profile: parallel execution must
        // return the same results as sequential, in registry order.
        let ctx = ExperimentContext {
            quick: true,
            seed: 5,
        };
        let entries: Vec<ExperimentEntry> = ["mmo", "fig7"]
            .iter()
            .map(|id| find(id).expect("registered"))
            .collect();
        let sequential: Vec<ExperimentResult> = entries.iter().map(|e| (e.run)(&ctx)).collect();
        for jobs in [1usize, 2, 8] {
            let parallel = run_parallel(&entries, &ctx, jobs);
            assert_eq!(parallel.len(), sequential.len());
            for ((got, _), want) in parallel.iter().zip(&sequential) {
                assert_eq!(got, want, "jobs = {jobs}");
            }
        }
    }
}
