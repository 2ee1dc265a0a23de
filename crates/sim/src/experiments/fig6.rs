//! Figure 6: influence of σ on the `N(6, σ²)` b-matching problem — the
//! phase transition.
//!
//! Paper observations: as soon as σ is big enough to produce heterogeneous
//! samples (σ ≈ 0.15) the mean cluster size explodes then stays almost
//! constant, while the Mean Max Offset *decreases* through the transition
//! before creeping back up: huge clusters, local collaborations —
//! stratification.

use strat_core::cluster;
use strat_scenario::{CapacityModel, Scenario, ScenarioError};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// The Figure 6 scenario: complete knowledge, `N(6, σ²)` capacities at
/// the post-transition σ = 0.2; the kernel sweeps σ through the phase
/// transition.
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    Scenario::new("fig6", if ctx.quick { 12_000 } else { 40_000 })
        .with_seed(ctx.seed)
        .with_capacity(CapacityModel::RoundedNormal {
            mean: 6.0,
            sigma: 0.2,
        })
}

/// Runs the Figure 6 kernel on an arbitrary base scenario (the scenario's
/// `b̄` anchors the sweep).
pub fn run_scenario(
    ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let b_mean = match scenario.capacity {
        CapacityModel::RoundedNormal { mean, .. } => mean,
        _ => 6.0,
    };
    let sigmas = [
        0.0, 0.05, 0.1, 0.125, 0.15, 0.175, 0.2, 0.25, 0.3, 0.4, 0.5, 0.75, 1.0, 1.5, 2.0,
    ];
    let n = scenario.peers;
    let repetitions = if ctx.quick { 2 } else { 5 };

    let mut result = ExperimentResult::new(
        "fig6",
        "Figure 6: mean cluster size and MMO vs sigma for b ~ N(6, sigma^2)",
        format!("complete acceptance graph, n={n}, {repetitions} repetitions"),
        vec![
            "sigma".into(),
            "mean_cluster_size".into(),
            "mean_max_offset".into(),
        ],
    );

    let ranking = scenario.build_ranking(&mut common::rng(scenario.seed, 0x06));
    for (ci, &sigma) in sigmas.iter().enumerate() {
        let variant = scenario
            .clone()
            .with_capacity(CapacityModel::RoundedNormal {
                mean: b_mean,
                sigma,
            });
        let mut cluster_sum = 0.0;
        let mut mmo_sum = 0.0;
        for rep in 0..repetitions {
            let mut rng = common::rng(scenario.seed, 0x0600 + ((ci as u64) << 8) + rep as u64);
            let m = variant.stable_matching(&mut rng)?;
            let stats = cluster::cluster_stats(&ranking, &m);
            cluster_sum += stats.mean_cluster_size;
            mmo_sum += stats.mmo;
        }
        result.push_row(vec![
            sigma,
            cluster_sum / repetitions as f64,
            mmo_sum / repetitions as f64,
        ]);
    }

    let rows = result.rows.clone();
    let col = move |s: f64, c: usize| {
        rows.iter()
            .find(|r| (r[0] - s).abs() < 1e-12)
            .map(|r| r[c])
            .expect("sigma sampled")
    };
    // n is generally not divisible by 7, so one truncated remainder cluster
    // shifts the sigma = 0 statistics by O(1/n).
    result.check(
        format!("sigma=0 reproduces constant {b_mean}-matching"),
        (col(0.0, 1) - (b_mean + 1.0)).abs() < 0.05
            && (col(0.0, 2) - cluster::mmo_constant_exact(b_mean as u32)).abs() < 0.01,
        format!("cluster {:.3}, MMO {:.4}", col(0.0, 1), col(0.0, 2)),
    );
    result.check(
        "cluster size explodes through sigma ~ 0.15",
        col(0.2, 1) > 20.0 * col(0.05, 1),
        format!(
            "cluster(0.05) {:.1} -> cluster(0.2) {:.1}",
            col(0.05, 1),
            col(0.2, 1)
        ),
    );
    result.check(
        "cluster size roughly plateaus after the transition",
        col(2.0, 1) < 50.0 * col(0.3, 1),
        format!(
            "cluster(0.3) {:.1} vs cluster(2.0) {:.1}",
            col(0.3, 1),
            col(2.0, 1)
        ),
    );
    result.check(
        "MMO decreases through the transition",
        col(0.2, 2) < col(0.0, 2),
        format!("MMO(0) {:.3} -> MMO(0.2) {:.3}", col(0.0, 2), col(0.2, 2)),
    );
    result.note(
        "Paper: 'As soon sigma is big enough to produce heterogeneous samples \
         (sigma ~ 0.15), the average connected component size explodes, then stays \
         almost constant... In contrast, as cluster size explodes, MMO decreases.'"
            .to_string(),
    );
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shows_phase_transition() {
        let ctx = ExperimentContext {
            quick: true,
            seed: 11,
        };
        let result = run_scenario(&ctx, &preset(&ctx)).unwrap();
        assert_eq!(result.rows.len(), 15);
        assert!(result.all_passed(), "failed checks: {:#?}", result.checks);
    }
}
