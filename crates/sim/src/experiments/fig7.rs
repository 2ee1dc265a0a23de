//! Figure 7: where the independence approximation errs — exact vs
//! Algorithm 2 for `n = 3`.
//!
//! Enumerating the 8 graphs on 3 peers yields the exact matching
//! probabilities `D(1,2) = p`, `D(1,3) = p(1−p)`, `D(2,3) = p(1−p)²`;
//! the independent model inflates `D(2,3)` by exactly `p³(1−p)`.

use strat_analytic::{b_matching, exact};
use strat_scenario::{Scenario, ScenarioError, TopologyModel};

use crate::runner::{ExperimentContext, ExperimentResult};

/// The Figure 7 scenario: the 3-peer, 1-matching system whose acceptance
/// edge probability the kernel sweeps.
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    Scenario::new("fig7", 3)
        .with_seed(ctx.seed)
        .with_topology(TopologyModel::ErdosRenyiEdgeProbability { p: 0.5 })
}

/// Runs the Figure 7 kernel on an arbitrary base scenario.
pub fn run_scenario(
    _ctx: &ExperimentContext,
    _scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let mut result = ExperimentResult::new(
        "fig7",
        "Figure 7: exact vs independent-model matching probabilities, n = 3",
        "all 8 graphs enumerated per p".to_string(),
        vec![
            "p".into(),
            "exact_D12".into(),
            "exact_D13".into(),
            "exact_D23".into(),
            "approx_D23".into(),
            "error_D23".into(),
            "predicted_error_p3_1mp".into(),
        ],
    );

    let mut max_residual = 0.0f64;
    for k in 1..=19 {
        let p = k as f64 / 20.0;
        let exact_d = exact::exact_distribution(3, p, 1);
        let approx = b_matching::solve(3, p, 1, &[1]);
        let approx_d23 = approx.choice_row(1, 1).expect("row 1 requested")[2];
        let error = approx_d23 - exact_d[1][2];
        let predicted = p.powi(3) * (1.0 - p);
        max_residual = max_residual.max((error - predicted).abs());
        result.push_row(vec![
            p,
            exact_d[0][1],
            exact_d[0][2],
            exact_d[1][2],
            approx_d23,
            error,
            predicted,
        ]);
    }

    result.check(
        "exact closed forms hold: D(1,2)=p, D(1,3)=p(1-p), D(2,3)=p(1-p)^2",
        result.rows.iter().all(|r| {
            let p = r[0];
            (r[1] - p).abs() < 1e-12
                && (r[2] - p * (1.0 - p)).abs() < 1e-12
                && (r[3] - p * (1.0 - p) * (1.0 - p)).abs() < 1e-12
        }),
        "all 19 p values".to_string(),
    );
    result.check(
        "approximation error is exactly p^3(1-p)",
        max_residual < 1e-12,
        format!("max |error - p^3(1-p)| = {max_residual:.2e}"),
    );
    result.note(
        "Paper Figure 7: 'Approximation error: for n = 3... Algorithm 2 leads to the same \
         except D(2,3) = D_exact(2,3) + p^3(1-p).'"
            .to_string(),
    );
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms_verified() {
        let ctx = ExperimentContext::default();
        let result = run_scenario(&ctx, &preset(&ctx)).unwrap();
        assert!(result.all_passed(), "failed checks: {:#?}", result.checks);
        assert_eq!(result.rows.len(), 19);
    }
}
