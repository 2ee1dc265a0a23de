//! Figure 3: distance to the instant stable state under continuous churn.
//!
//! Paper setup: 1000 peers, 1-matching, 10 neighbours per peer, starting
//! from the empty configuration; churn levels 30/1000, 10/1000, 3/1000,
//! 0.5/1000 and no churn, over 20 base units.
//!
//! Paper observations: as churn increases the system can no longer reach
//! the instant stable configuration, but disorder stays under control and
//! the average disorder is roughly proportional to the churn rate.

use strat_scenario::{ChurnModel, Scenario, ScenarioError};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// The Figure 3 scenario: the `n = 1000`, `d = 10` system at the paper's
/// highest churn level (30/1000); the kernel sweeps the lower levels.
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    common::one_matching_scenario("fig3", 1000, 10.0)
        .with_seed(ctx.seed)
        .with_churn(ChurnModel::Rate { rate: 0.03 })
}

/// Runs the Figure 3 kernel on an arbitrary base scenario; the scenario's
/// churn rate anchors the sweep `rate × {1, 1/3, 1/10, 1/60, 0}`.
pub fn run_scenario(
    ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let n = scenario.peers;
    let d = scenario.topology.mean_degree(n);
    // Churn per initiative step, matching the paper's x/1000 labels. The
    // scenario's churn rate anchors the paper's 30/1000 level; the sweep
    // rescales the whole level ladder with it (scale 1.0 — i.e. exactly
    // the paper's rates — for the preset).
    let top = match scenario.churn {
        ChurnModel::Rate { rate } => rate,
        _ => 0.03,
    };
    let scale = top / 0.03;
    let levels = [30.0f64, 10.0, 3.0, 0.5, 0.0];
    let rates = levels.map(|l| l / 1000.0 * scale);
    let labels: Vec<String> = levels
        .iter()
        .map(|&l| {
            if l == 0.0 {
                "none".to_string()
            } else {
                format!("{}/1000", l * scale)
            }
        })
        .collect();
    let units = 20usize;
    let repetitions = if ctx.quick { 2 } else { 8 };

    let mut result = ExperimentResult::new(
        "fig3",
        "Figure 3: disorder vs time under continuous churn",
        format!("n={n}, d={d}, 1-matching, from C_empty, {repetitions} runs averaged"),
        {
            let mut cols = vec!["initiatives_per_peer".to_string()];
            cols.extend(labels.iter().map(|l| format!("disorder_churn_{l}")));
            cols
        },
    );

    let mut traces = vec![vec![0.0f64; units + 1]; rates.len()];
    for (c, &rate) in rates.iter().enumerate() {
        let variant = scenario.clone().with_churn(if rate == 0.0 {
            ChurnModel::None
        } else {
            ChurnModel::Rate { rate }
        });
        for rep in 0..repetitions {
            let mut rng = common::rng(scenario.seed, 0x0300 + ((c as u64) << 8) + rep as u64);
            let mut churn = variant.build_churn(&mut rng)?;
            traces[c][0] += churn.dynamics().disorder();
            for t in 1..=units {
                churn.run_base_unit(&mut rng);
                traces[c][t] += churn.dynamics().disorder();
            }
        }
        for t in 0..=units {
            traces[c][t] /= repetitions as f64;
        }
    }

    for t in 0..=units {
        let mut row = vec![t as f64];
        row.extend(traces.iter().map(|tr| tr[t]));
        result.push_row(row);
    }

    // Steady-state disorder: mean over the last 5 base units.
    let steady: Vec<f64> = traces
        .iter()
        .map(|tr| tr[units - 4..=units].iter().sum::<f64>() / 5.0)
        .collect();
    result.check(
        "no churn reaches the stable configuration",
        steady[4] < 1e-4,
        format!("steady disorder without churn: {:.6}", steady[4]),
    );
    for w in 0..rates.len() - 1 {
        result.check(
            format!(
                "disorder ordered by churn ({} > {})",
                labels[w],
                labels[w + 1]
            ),
            steady[w] > steady[w + 1],
            format!("{:.5} > {:.5}", steady[w], steady[w + 1]),
        );
    }
    result.check(
        "disorder kept under control at the highest churn",
        steady[0] < 0.5,
        format!("steady disorder at 30/1000: {:.4}", steady[0]),
    );
    // Rough proportionality: steady disorder ratio between 30/1000 and
    // 3/1000 within a factor ~3 of the 10x rate ratio.
    let ratio = steady[0] / steady[2].max(1e-9);
    result.check(
        "average disorder roughly proportional to churn rate",
        ratio > 3.0 && ratio < 30.0,
        format!("steady(30/1000)/steady(3/1000) = {ratio:.2} (rates ratio 10)"),
    );
    result.note(
        "Paper: 'the disorder is kept under control... The average disorder is roughly \
         proportional to the churn rate.'"
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
            seed: 5,
        };
        let result = run_scenario(&ctx, &preset(&ctx)).unwrap();
        assert_eq!(result.rows.len(), 21);
        assert!(result.all_passed(), "failed checks: {:#?}", result.checks);
    }
}
