//! MMO closed form (§4.2): `MMO(b₀) = (1/(b₀+1)) Σ max(i, b₀−i) → 3b₀/4`.

use strat_core::{cluster, GlobalRanking};
use strat_scenario::{CapacityModel, Scenario, ScenarioError};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// The MMO scenario: complete knowledge, constant capacities (the sweep's
/// largest `b₀ = 64` point).
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    Scenario::new("mmo", 65 * 64)
        .with_seed(ctx.seed)
        .with_capacity(CapacityModel::Constant { value: 64.0 })
}

/// Runs the MMO kernel on an arbitrary base scenario.
pub fn run_scenario(
    _ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let mut result = ExperimentResult::new(
        "mmo",
        "Mean Max Offset of constant b0-matching: measured, closed form, 3b0/4 limit",
        "complete acceptance graph".to_string(),
        vec![
            "b0".into(),
            "measured".into(),
            "closed_form".into(),
            "limit_3b0_over_4".into(),
            "ratio_to_limit".into(),
        ],
    );

    let mut rng = common::rng(scenario.seed, 0x30);
    for b0 in [2u32, 3, 4, 5, 6, 7, 10, 16, 32, 64] {
        let n = (b0 as usize + 1) * 64;
        let variant = scenario
            .clone()
            .with_peers(n)
            .with_capacity(CapacityModel::Constant {
                value: f64::from(b0),
            });
        let ranking = GlobalRanking::identity(n);
        let m = variant.stable_matching(&mut rng)?;
        let measured = cluster::mean_max_offset(&ranking, &m);
        let exact = cluster::mmo_constant_exact(b0);
        let limit = cluster::mmo_constant_limit(b0);
        result.push_row(vec![
            f64::from(b0),
            measured,
            exact,
            limit,
            measured / limit,
        ]);
    }

    result.check(
        "measured MMO equals the closed form",
        result.rows.iter().all(|r| (r[1] - r[2]).abs() < 1e-9),
        "all b0 values".to_string(),
    );
    let last = result.rows.last().expect("rows present");
    result.check(
        "MMO/(3b0/4) -> 1",
        (last[4] - 1.0).abs() < 0.02,
        format!("ratio at b0={} is {:.4}", last[0], last[4]),
    );
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formula_sweep_passes() {
        let ctx = ExperimentContext::default();
        let result = run_scenario(&ctx, &preset(&ctx)).unwrap();
        assert!(result.all_passed(), "failed checks: {:#?}", result.checks);
    }
}
