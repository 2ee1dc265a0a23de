//! LATSTRAT (paper §7 / Legout et al., cs/0703107): cluster formation
//! under latency preferences vs rank stratification, at dynamics scale.
//!
//! The paper's §7 extension and the clustering results of Legout et al.
//! observe that *distance-based* preferences make peers stratify into
//! spatial **clusters** rather than rank strata. Until the engine
//! unification this comparison only existed as a static fixpoint study
//! (`ext1`, full-scan sweeps at n ≤ 600); this kernel runs the **same
//! initiative process** — random scheduler, best-mate scans, incremental
//! thresholds and dirty sets — on both preference systems through the
//! scenario layer's generic-engine path, and records the full convergence
//! profile:
//!
//! * the **disorder trajectory** of each arm (distance to its memoized
//!   instant stable configuration, in the metric native to each arm);
//! * the mean **mate latency distance** and mean **mate rank offset** per
//!   base unit, measured in a shared latency embedding;
//! * the number of collaboration **clusters** (non-singleton components of
//!   the matching) as they crystallize.
//!
//! Expected shape: the latency arm's mates end up *spatially* local (small
//! distances, rank-blind), the ranked arm's mates end up *rank*-local
//! (small offsets, distance-blind), and both disorder trajectories
//! collapse towards 0 — the generic engine converges like the ranked one.

use strat_core::Dynamics;
use strat_graph::components::Components;
use strat_scenario::{
    CapacityModel, PreferenceModel, Scenario, ScenarioError, ScenarioKeys, TopologyModel,
};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// Per-arm, per-base-unit measurements.
#[derive(Clone, Copy, Default)]
struct ArmSample {
    disorder: f64,
    mate_dist: f64,
    rank_offset: f64,
    clusters: f64,
}

fn measure(dynamics: &Dynamics<ScenarioKeys>, positions: &[f64]) -> ArmSample {
    let m = dynamics.matching();
    let mut dist = 0.0f64;
    let mut offset = 0.0f64;
    let mut count = 0.0f64;
    for v in 0..m.node_count() {
        let v_id = strat_graph::NodeId::new(v);
        for &w in m.mates(v_id) {
            dist += (positions[v] - positions[w.index()]).abs();
            offset += (v as f64 - w.index() as f64).abs();
            count += 1.0;
        }
    }
    let clusters = Components::of(&m.to_graph())
        .sizes()
        .iter()
        .filter(|&&s| s >= 2)
        .count();
    ArmSample {
        disorder: dynamics.disorder_general(),
        mate_dist: dist / count.max(1.0),
        rank_offset: offset / count.max(1.0),
        clusters: clusters as f64,
    }
}

/// The LATSTRAT scenario: a 2-matching `G(n, 16)` system under pure
/// latency preferences in a `[0, 1000)` space (the kernel derives the
/// ranked twin itself).
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    let n = if ctx.quick { 240 } else { 1200 };
    Scenario::new("latstrat", n)
        .with_seed(ctx.seed)
        .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 16.0 })
        .with_capacity(CapacityModel::Constant { value: 2.0 })
        .with_preference(PreferenceModel::Latency { span: 1000.0 })
}

/// Runs the latency-clustering comparison on its preset.
#[must_use]
pub fn run(ctx: &ExperimentContext) -> ExperimentResult {
    run_scenario(ctx, &preset(ctx)).expect("the preset is a valid scenario")
}

/// Runs the latency-clustering kernel on an arbitrary base scenario. The
/// scenario's preference model provides the latency arm (a ranked-only
/// scenario falls back to the preset's `[0, 1000)` embedding); the ranked
/// twin swaps in `GlobalRank` on the same topology, capacities and seed.
pub fn run_scenario(
    ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let n = scenario.peers;
    let d = scenario.topology.mean_degree(n);
    let lat_pref = if scenario.preference.is_ranked() {
        PreferenceModel::Latency { span: 1000.0 }
    } else {
        scenario.preference.clone()
    };
    let lat_variant = scenario.clone().with_preference(lat_pref);
    let units = 24usize;
    let settle_cap = 200usize;
    let repetitions = if ctx.quick { 2 } else { 6 };

    let mut result = ExperimentResult::new(
        "latstrat",
        "LATSTRAT: latency-cluster formation vs rank stratification (generic engine)",
        format!(
            "n={n}, d={d}, 2-matching, best-mate initiatives, {repetitions} runs averaged; \
             both arms share topology, capacities and latency embedding"
        ),
        vec![
            "initiatives_per_peer".into(),
            "disorder_latency".into(),
            "disorder_ranked".into(),
            "mate_distance_latency".into(),
            "mate_distance_ranked".into(),
            "rank_offset_latency".into(),
            "rank_offset_ranked".into(),
            "clusters_latency".into(),
            "clusters_ranked".into(),
        ],
    );

    // traces[t] = averaged (latency arm, ranked arm) samples after t units.
    let mut traces = vec![[ArmSample::default(); 2]; units + 1];
    let mut stable_runs = [0usize; 2];
    for rep in 0..repetitions {
        let stream = 0x1a70 + rep as u64;
        // Twin stream re-derives the shared substrate for measurement: the
        // build consumes topology → preference in a documented order, so
        // replaying it yields the exact latency embedding the latency arm
        // was built with (the ranked arm shares the topology draws, hence
        // the graph).
        let mut twin = common::rng(scenario.seed, stream);
        let _ = lat_variant.build_graph(&mut twin)?;
        let positions = lat_variant
            .preference
            .latency_positions(n, &mut twin)
            .expect("latency arm has an embedding");

        // The latency arm builds first; the ranked twin then takes the
        // latency arm's *materialized* capacities as an explicit list, so
        // the arms share capacities exactly even under stochastic capacity
        // models (whose draws would otherwise land at different stream
        // offsets — the latency arm consumes n position draws first). The
        // twin's topology draws come first in its own stream, so the graph
        // is shared too.
        let mut lat_rng = common::rng(scenario.seed, stream);
        let mut lat_dynamics = lat_variant.build_dynamics(&mut lat_rng)?;
        let ranked_variant = scenario
            .clone()
            .with_preference(PreferenceModel::GlobalRank)
            .with_capacity(CapacityModel::Explicit {
                values: lat_dynamics
                    .capacities()
                    .as_slice()
                    .iter()
                    .map(|&b| f64::from(b))
                    .collect(),
            });
        let mut rank_rng = common::rng(scenario.seed, stream);
        let mut ranked_dynamics = ranked_variant.build_dynamics(&mut rank_rng)?;

        for (arm, dynamics, rng) in [
            (0usize, &mut lat_dynamics, &mut lat_rng),
            (1usize, &mut ranked_dynamics, &mut rank_rng),
        ] {
            let sample = measure(dynamics, &positions);
            add(&mut traces[0][arm], sample, repetitions);
            for t in 1..=units {
                dynamics.run_base_unit(rng);
                let sample = measure(dynamics, &positions);
                add(&mut traces[t][arm], sample, repetitions);
            }
            // Convergence epilogue (not part of the recorded trajectory):
            // both engines must reach a stable configuration shortly after
            // the window.
            let mut extra = 0usize;
            while !dynamics.is_stable() && extra < settle_cap {
                dynamics.run_base_unit(rng);
                extra += 1;
            }
            if dynamics.is_stable() {
                stable_runs[arm] += 1;
            }
        }
    }

    for (t, row) in traces.iter().enumerate() {
        result.push_row(vec![
            t as f64,
            row[0].disorder,
            row[1].disorder,
            row[0].mate_dist,
            row[1].mate_dist,
            row[0].rank_offset,
            row[1].rank_offset,
            row[0].clusters,
            row[1].clusters,
        ]);
    }

    let first = &traces[1];
    let last = &traces[units];
    result.check(
        "latency preferences cluster by distance",
        last[0].mate_dist < 0.5 * last[1].mate_dist,
        format!(
            "final mate distance: latency {:.1} vs ranked {:.1}",
            last[0].mate_dist, last[1].mate_dist
        ),
    );
    result.check(
        "rank preferences stratify by rank",
        last[1].rank_offset < 0.5 * last[0].rank_offset,
        format!(
            "final mate rank offset: ranked {:.1} vs latency {:.1}",
            last[1].rank_offset, last[0].rank_offset
        ),
    );
    result.check(
        "disorder collapses on both arms",
        last[0].disorder < 0.25 * first[0].disorder && last[1].disorder < 0.25 * first[1].disorder,
        format!(
            "disorder t=1 → t={units}: latency {:.3} → {:.3}, ranked {:.3} → {:.3}",
            first[0].disorder, last[0].disorder, first[1].disorder, last[1].disorder
        ),
    );
    result.check(
        "both engines reach a stable configuration",
        stable_runs[0] == repetitions && stable_runs[1] == repetitions,
        format!(
            "stable runs: latency {}/{repetitions}, ranked {}/{repetitions}",
            stable_runs[0], stable_runs[1]
        ),
    );
    result.check(
        "collaborations crystallize into many clusters on both arms",
        last[0].clusters > n as f64 / 40.0 && last[1].clusters > n as f64 / 40.0,
        format!(
            "final clusters: latency {:.0}, ranked {:.0} (n = {n})",
            last[0].clusters, last[1].clusters
        ),
    );
    result.note(
        "Paper §7 proposes 'a symmetric ranking such as latency'; Legout et al. \
         (cs/0703107) observe clustering of peers with similar characteristics. Under \
         the unified engine the latency arm runs the very machinery the ranked proofs \
         target — same thresholds, dirty sets and churn support — so the cluster-vs- \
         strata contrast is measured on one initiative process, not two simulators."
            .to_string(),
    );
    Ok(result)
}

fn add(acc: &mut ArmSample, sample: ArmSample, repetitions: usize) {
    let w = 1.0 / repetitions as f64;
    acc.disorder += w * sample.disorder;
    acc.mate_dist += w * sample.mate_dist;
    acc.rank_offset += w * sample.rank_offset;
    acc.clusters += w * sample.clusters;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes_shape_checks() {
        let ctx = ExperimentContext {
            quick: true,
            seed: 43,
        };
        let result = run(&ctx);
        assert_eq!(result.rows.len(), 25);
        assert!(result.all_passed(), "failed checks: {:#?}", result.checks);
        // The two arms genuinely differ from the first base unit on.
        assert!(result.rows[1][3] != result.rows[1][4]);
    }
}
