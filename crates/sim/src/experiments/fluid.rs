//! Fluid-limit validation (Conjecture 1): `n·D(1, ⌊βn⌋) → d·e^{−βd}`.
//!
//! For several mean degrees `d`, the sup-error between the rescaled
//! Algorithm 2 solution for the best peer and the exponential fluid density
//! must shrink as `n` grows — the paper's scalability argument for
//! stratification.

use strat_analytic::fluid;
use strat_scenario::{Scenario, ScenarioError, TopologyModel};

use crate::runner::{ExperimentContext, ExperimentResult};

/// The fluid-limit scenario: the largest 1-matching system of the sweep
/// at the paper's headline degree `d = 50`; the kernel shrinks `n` and
/// `d` through the convergence ladder.
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    let n = if ctx.quick { 2000 } else { 8000 };
    Scenario::new("fluid", n)
        .with_seed(ctx.seed)
        .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 50.0 })
}

/// Runs the fluid-limit kernel on an arbitrary base scenario (its `n`
/// and `d` cap the sweep).
pub fn run_scenario(
    _ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let d_max = scenario.topology.mean_degree(scenario.peers);
    let ds: Vec<f64> = [5.0f64, 10.0, 20.0, 50.0]
        .into_iter()
        .filter(|&d| d <= d_max)
        .collect();
    let ns: Vec<usize> = [500usize, 2000, 8000]
        .into_iter()
        .filter(|&n| n <= scenario.peers)
        .collect();
    let beta_max = 0.5;

    let mut result = ExperimentResult::new(
        "fluid",
        "Conjecture 1: sup-error of n*D(1,.) against d*exp(-beta*d)",
        format!("beta <= {beta_max}, p = d/n"),
        {
            let mut cols = vec!["n".to_string()];
            cols.extend(ds.iter().map(|d| format!("sup_error_d{d}")));
            cols
        },
    );

    let mut errors = vec![Vec::new(); ds.len()];
    for &n in &ns {
        let mut row = vec![n as f64];
        for (k, &d) in ds.iter().enumerate() {
            let err = fluid::best_peer_fluid_error(n, d, beta_max);
            errors[k].push(err);
            row.push(err);
        }
        result.push_row(row);
    }

    for (k, &d) in ds.iter().enumerate() {
        let first = errors[k][0];
        let last = *errors[k].last().expect("at least one n");
        result.check(
            format!("d={d}: error shrinks with n"),
            last < first,
            format!("{first:.4} -> {last:.4}"),
        );
        result.check(
            format!("d={d}: relative error small at the largest n"),
            last / d < 0.12,
            format!("sup-error/d = {:.4}", last / d),
        );
    }
    result.note(
        "Paper §5.2: 'M_{0,d}(d beta) = d e^{-beta d} d beta' — the mate of the best \
         peer sits an exponential rank fraction below it with rate d; shape depends \
         only on d, never on n."
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
            seed: 29,
        };
        let result = run_scenario(&ctx, &preset(&ctx)).unwrap();
        assert!(result.all_passed(), "failed checks: {:#?}", result.checks);
    }
}
