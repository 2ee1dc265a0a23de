//! Table 1: clustering and stratification properties on complete
//! acceptance graphs.
//!
//! Constant `b₀`-matching vs rounded-normal `N(b̄, 0.2²)`-matching for
//! `b₀, b̄ ∈ 2..=7`: average cluster size and Mean Max Offset (MMO).
//!
//! Paper values (constant): cluster size `b₀+1`, MMO
//! `1.67, 2.5, 3.2, 4, 4.71, 5.5`. Paper values (normal, σ = 0.2): cluster
//! sizes `6, 20, 78, 350, 1800, 11000` (growing roughly factorially) and
//! MMO `1.33, 2.10, 2.52, 3.21, 3.65, 4.31`.

use strat_core::cluster;
use strat_scenario::{CapacityModel, Scenario, ScenarioError};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// Paper Table 1 reference values for the normal column.
pub const PAPER_NORMAL_CLUSTER: [f64; 6] = [6.0, 20.0, 78.0, 350.0, 1800.0, 11000.0];
/// Paper Table 1 reference values for the normal MMO row.
pub const PAPER_NORMAL_MMO: [f64; 6] = [1.33, 2.10, 2.52, 3.21, 3.65, 4.31];

/// The Table 1 scenario: complete knowledge with `N(6, 0.2²)` capacities
/// (the headline normal column); the kernel sweeps `b̄, b₀ ∈ 2..=7` and
/// the matching constant column.
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    Scenario::new("table1", 160_000)
        .with_seed(ctx.seed)
        .with_capacity(CapacityModel::RoundedNormal {
            mean: 6.0,
            sigma: 0.2,
        })
}

/// Runs the Table 1 kernel on an arbitrary base scenario (the scenario's
/// σ anchors the normal column).
pub fn run_scenario(
    ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let sigma = match scenario.capacity {
        CapacityModel::RoundedNormal { sigma, .. } => sigma,
        _ => 0.2,
    };
    let repetitions = if ctx.quick { 4 } else { 6 };

    let mut result = ExperimentResult::new(
        "table1",
        "Table 1: clustering and stratification in a complete knowledge graph",
        format!("sigma={sigma}, {repetitions} repetitions for the normal column"),
        vec![
            "b".into(),
            "const_cluster_size".into(),
            "const_mmo".into(),
            "const_mmo_paper".into(),
            "normal_cluster_size".into(),
            "normal_cluster_paper".into(),
            "normal_mmo".into(),
            "normal_mmo_paper".into(),
        ],
    );

    let paper_const_mmo = [1.67, 2.5, 3.2, 4.0, 4.71, 5.5];
    for (idx, b) in (2u32..=7).enumerate() {
        // Constant column: measured on a large instance (values are exact).
        let n_const = (b as usize + 1) * 2000;
        let const_scenario =
            scenario
                .clone()
                .with_peers(n_const)
                .with_capacity(CapacityModel::Constant {
                    value: f64::from(b),
                });
        let mut const_rng = common::rng(scenario.seed, 0x1000 + u64::from(b));
        let m = const_scenario.stable_matching(&mut const_rng)?;
        let const_stats =
            cluster::cluster_stats(&const_scenario.build_ranking(&mut const_rng)?, &m);

        // Normal column: n must dwarf the expected cluster size.
        // Clusters must dwarf neither n (boundary clipping) nor the sample
        // count (heavy-tailed estimates); x24 the expected size with a
        // floor well above the small-b rows keeps every row in the
        // resolvable regime, and the O(n b alpha) complete-graph path makes
        // even the quick profile a sub-second affair.
        let n_normal = if ctx.quick {
            (PAPER_NORMAL_CLUSTER[idx] as usize * 24).clamp(10_000, 64_000)
        } else {
            (PAPER_NORMAL_CLUSTER[idx] as usize * 24).clamp(10_000, 160_000)
        };
        let normal_scenario =
            scenario
                .clone()
                .with_peers(n_normal)
                .with_capacity(CapacityModel::RoundedNormal {
                    mean: f64::from(b),
                    sigma,
                });
        let ranking = normal_scenario.build_ranking(&mut const_rng)?;
        let mut cluster_sum = 0.0;
        let mut mmo_sum = 0.0;
        for rep in 0..repetitions {
            let mut rng = common::rng(scenario.seed, 0x1000 + (u64::from(b) << 8) + rep as u64);
            let m = normal_scenario.stable_matching(&mut rng)?;
            let stats = cluster::cluster_stats(&ranking, &m);
            cluster_sum += stats.mean_cluster_size;
            mmo_sum += stats.mmo;
        }
        let normal_cluster = cluster_sum / repetitions as f64;
        let normal_mmo = mmo_sum / repetitions as f64;

        result.push_row(vec![
            f64::from(b),
            const_stats.mean_cluster_size,
            const_stats.mmo,
            paper_const_mmo[idx],
            normal_cluster,
            PAPER_NORMAL_CLUSTER[idx],
            normal_mmo,
            PAPER_NORMAL_MMO[idx],
        ]);
    }

    // Shape checks.
    for (row, b) in result.rows.clone().iter().zip(2u32..=7) {
        let idx = (b - 2) as usize;
        result.check(
            format!("b={b}: constant cluster size is b+1"),
            (row[1] - f64::from(b + 1)).abs() < 1e-9,
            format!("measured {:.3}", row[1]),
        );
        result.check(
            format!("b={b}: constant MMO matches closed form"),
            (row[2] - cluster::mmo_constant_exact(b)).abs() < 1e-9
                && (row[2] - row[3]).abs() < 0.01,
            format!("measured {:.3}, paper {:.2}", row[2], row[3]),
        );
        result.check(
            format!("b={b}: normal clusters much larger than constant"),
            row[4] > row[1],
            format!("normal {:.1} vs constant {:.1}", row[4], row[1]),
        );
        result.check(
            format!("b={b}: normal MMO below constant MMO"),
            row[6] < row[2],
            format!("normal {:.3} vs constant {:.3}", row[6], row[2]),
        );
        result.check(
            format!("b={b}: normal MMO within 35% of paper value"),
            (row[6] - PAPER_NORMAL_MMO[idx]).abs() / PAPER_NORMAL_MMO[idx] < 0.35,
            format!("measured {:.3}, paper {:.2}", row[6], PAPER_NORMAL_MMO[idx]),
        );
    }
    // Factorial-ish growth of the normal cluster sizes.
    let growth_ok = result.rows.windows(2).all(|w| w[1][4] / w[0][4] > 2.0);
    result.check(
        "normal cluster size grows super-exponentially in b",
        growth_ok,
        format!(
            "sizes: {:?}",
            result.rows.iter().map(|r| r[4].round()).collect::<Vec<_>>()
        ),
    );
    result.note(
        "Cluster sizes for the normal column are finite-size estimates (the paper's own \
         values are simulation estimates); factorial growth makes the largest entries \
         noisy in both."
            .to_string(),
    );
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_constant_column_exactly() {
        let ctx = ExperimentContext {
            quick: true,
            seed: 7,
        };
        let result = run_scenario(&ctx, &preset(&ctx)).unwrap();
        assert_eq!(result.rows.len(), 6);
        for check in &result.checks {
            if check.name.contains("constant") {
                assert!(check.passed, "{check:?}");
            }
        }
    }
}
