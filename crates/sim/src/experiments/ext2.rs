//! EXT2 (paper §1, gossip reference): stratification under gossip-estimated
//! ranks.
//!
//! Deployed peers never see the true global ranking — they estimate their
//! standing by sampling peers (Jelasity et al.'s peer sampling service,
//! the paper's reference `[8]`). This experiment runs the entire pipeline on
//! **estimated** rankings and measures how much of the stable structure
//! survives: the disorder of the estimated-stable configuration w.r.t. the
//! true one, and the MMO degradation, as the gossip sample size grows.

use strat_core::{cluster, distance, gossip, stable_configuration, RankedAcceptance};
use strat_scenario::{PreferenceModel, Scenario, ScenarioError};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// The EXT2 scenario: the standard 1-matching system driven by
/// gossip-estimated ranks at the `k = 10` operating point; the kernel
/// sweeps the sample size around it.
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    let n = if ctx.quick { 300 } else { 1000 };
    common::one_matching_scenario("ext2", n, 10.0)
        .with_seed(ctx.seed)
        .with_preference(PreferenceModel::GossipEstimated { sample_size: 10 })
}

/// Runs the gossip-rank-estimation kernel on an arbitrary base scenario;
/// the scenario's gossip sample size anchors the sweep
/// `k × {0.3, 1, 3, 10, 30}`.
pub fn run_scenario(
    ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let n = scenario.peers;
    let d = scenario.topology.mean_degree(n);
    let anchor = match scenario.preference {
        PreferenceModel::GossipEstimated { sample_size } => sample_size,
        _ => 10,
    };
    let sample_sizes: Vec<usize> = [0.3f64, 1.0, 3.0, 10.0, 30.0]
        .into_iter()
        .map(|f| ((anchor as f64 * f).round() as usize).max(1))
        .collect();
    let repetitions = if ctx.quick { 2 } else { 6 };

    let mut result = ExperimentResult::new(
        "ext2",
        "EXT2: stable configuration quality under gossip-estimated ranks",
        format!("n={n}, d={d}, 1-matching, {repetitions} runs averaged"),
        vec![
            "sample_size".into(),
            "rank_distortion".into(),
            "disorder_vs_true_stable".into(),
            "mmo_estimated".into(),
            "mmo_true".into(),
        ],
    );

    let mut rows: Vec<[f64; 5]> = vec![[0.0; 5]; sample_sizes.len()];
    for rep in 0..repetitions {
        let mut rng = common::rng(scenario.seed, 0xe2_00 + rep as u64);
        // The scenario provides the shared substrate (graph + truth +
        // capacities); each k re-estimates ranks from the same stream.
        let graph = scenario.build_graph(&mut rng)?;
        let truth = PreferenceModel::GlobalRank.build_ranking(n, &mut rng);
        let caps = scenario.build_capacities(&mut rng)?;
        let true_acc = RankedAcceptance::new(graph.clone(), truth.clone()).expect("sizes");
        let true_stable = stable_configuration(&true_acc, &caps).expect("sizes");
        let true_mmo = cluster::mean_max_offset(&truth, &true_stable);
        for (k_idx, &k) in sample_sizes.iter().enumerate() {
            let estimated = gossip::estimate_ranking(&truth, k, &mut rng);
            let distortion = gossip::ranking_distortion(&truth, &estimated);
            // Stable configuration the *estimated* system converges to.
            let est_acc = RankedAcceptance::new(graph.clone(), estimated).expect("sizes");
            let est_stable = stable_configuration(&est_acc, &caps).expect("sizes");
            // Quality is judged against the TRUE ranking.
            let disorder = distance::disorder(&truth, &est_stable, &true_stable);
            let mmo = cluster::mean_max_offset(&truth, &est_stable);
            rows[k_idx][0] = k as f64;
            rows[k_idx][1] += distortion / repetitions as f64;
            rows[k_idx][2] += disorder / repetitions as f64;
            rows[k_idx][3] += mmo / repetitions as f64;
            rows[k_idx][4] += true_mmo / repetitions as f64;
        }
    }
    for row in &rows {
        result.push_row(row.to_vec());
    }

    // The estimator's rank noise floor is ~ n/sqrt(k) (binomial counting
    // with replacement), so disorder shrinks like 1/sqrt(k) — compare the
    // ends rather than demanding strict monotony through sampling noise.
    let first = rows.first().expect("rows")[2];
    let last = rows.last().expect("rows")[2];
    result.check(
        "disorder shrinks substantially with sample size",
        last < 0.6 * first,
        format!(
            "disorder across k: {:?}",
            rows.iter()
                .map(|r| (r[2] * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>()
        ),
    );
    result.check(
        "large samples approach the true stable configuration",
        last < 0.25,
        format!(
            "disorder at k={}: {:.4}",
            rows.last().expect("rows")[0],
            last
        ),
    );
    let mmo_ratio = rows[1][3] / rows[1][4];
    result.check(
        format!(
            "stratification survives coarse estimates (MMO within 3x at k={})",
            sample_sizes[1]
        ),
        mmo_ratio < 3.0,
        format!(
            "MMO estimated/true = {mmo_ratio:.2} at k={}",
            sample_sizes[1]
        ),
    );
    result.note(
        "Even k = 10 samples per peer keep collaborations local in true rank: the \
         estimator's error is itself local (a peer's estimated rank concentrates \
         around its true rank), so the global-ranking machinery degrades gracefully — \
         the practical reason gossip-based rank discovery suffices for TFT-like \
         systems."
            .to_string(),
    );
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes_shape_checks() {
        let ctx = ExperimentContext {
            quick: true,
            seed: 37,
        };
        let result = run_scenario(&ctx, &preset(&ctx)).unwrap();
        assert!(result.all_passed(), "failed checks: {:#?}", result.checks);
    }
}
