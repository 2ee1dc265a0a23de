//! Figure 1: convergence towards the stable state from the empty
//! configuration.
//!
//! Paper setup: peers labeled 1..n (label = rank), Erdős–Rényi `G(n, d)`
//! acceptance graphs, 1-matching, best-mate initiatives by a uniformly
//! random peer each step; disorder (distance to the stable configuration)
//! is plotted against *initiatives per peer* (base units) for
//! `(n, d) ∈ {(100, 50), (1000, 10), (1000, 50)}`.
//!
//! Paper observation: disorder quickly decreases; the stable configuration
//! is reached in less than `d` base units.

use strat_scenario::{Scenario, ScenarioError, TopologyModel};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// The Figure 1 scenario: the headline `(n, d) = (1000, 50)` system; the
/// kernel derives the `(n/10, d)` and `(n, d/5)` companion curves.
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    common::one_matching_scenario("fig1", 1000, 50.0).with_seed(ctx.seed)
}

/// Runs the Figure 1 reproduction on its preset.
#[must_use]
pub fn run(ctx: &ExperimentContext) -> ExperimentResult {
    run_scenario(ctx, &preset(ctx)).expect("the preset is a valid scenario")
}

/// Runs the Figure 1 kernel on an arbitrary base scenario.
pub fn run_scenario(
    ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let n = common::min_peers("fig1", scenario, 10)?;
    let d = scenario.topology.mean_degree(n);
    let configs: &[(usize, f64)] = &[(n / 10, d), (n, d / 5.0), (n, d)];
    let units = 40usize;
    let repetitions = if ctx.quick { 2 } else { 8 };

    let mut result = ExperimentResult::new(
        "fig1",
        "Figure 1: convergence from C_empty (disorder vs initiatives per peer)",
        format!("1-matching, best-mate initiatives, {repetitions} runs averaged"),
        {
            let mut cols = vec!["initiatives_per_peer".to_string()];
            cols.extend(configs.iter().map(|(n, d)| format!("disorder_n{n}_d{d}")));
            cols
        },
    );

    // traces[c][t] = mean disorder of config c after t base units.
    let mut traces = vec![vec![0.0f64; units + 1]; configs.len()];
    for (c, &(n, d)) in configs.iter().enumerate() {
        let variant = scenario
            .clone()
            .with_peers(n)
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d });
        for rep in 0..repetitions {
            let mut rng = common::rng(scenario.seed, (c as u64) << 8 | rep as u64);
            let mut dynamics = variant.build_dynamics(&mut rng)?;
            traces[c][0] += dynamics.disorder();
            for t in 1..=units {
                dynamics.run_base_unit(&mut rng);
                traces[c][t] += dynamics.disorder();
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

    // Shape criteria from the paper's text.
    for (c, &(n, d)) in configs.iter().enumerate() {
        let at_d = traces[c][(d as usize).min(units)];
        result.check(
            format!("n={n},d={d}: stable reached in < d base units"),
            at_d < 0.01,
            format!("disorder at t=d is {at_d:.5}"),
        );
        result.check(
            format!("n={n},d={d}: disorder decreases"),
            traces[c][units] < traces[c][0] * 0.05,
            format!("start {:.3}, end {:.5}", traces[c][0], traces[c][units]),
        );
    }
    // Convergence time scales with d (the paper's "< d base units" bound is
    // tight in d): at t = 5, the d = 10 system is already near-stable while
    // the d = 50 systems are still converging — exactly the ordering of the
    // paper's Figure 1 curves.
    let d10_at5 = traces[1][5];
    let d50_at5 = traces[2][5];
    result.check(
        "convergence time grows with d",
        d50_at5 > d10_at5,
        format!("disorder@5: d=50 {d50_at5:.4} > d=10 {d10_at5:.4}"),
    );
    // The two d = 50 curves (n = 100 vs n = 1000) behave alike: convergence
    // is governed by d, not by n.
    let gap = (traces[0][10] - traces[2][10]).abs();
    result.check(
        "convergence governed by d, not n",
        gap < 0.25,
        format!("|disorder@10(n=100) - disorder@10(n=1000)| = {gap:.4} at d=50"),
    );
    result.note(
        "Paper: 'In all simulations, the disorder quickly decreases, and the stable \
         configuration is reached in less than nd initiatives (that is d base units).'"
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
            seed: 1,
        };
        let result = run(&ctx);
        assert_eq!(result.rows.len(), 41);
        assert!(result.all_passed(), "failed checks: {:#?}", result.checks);
        // Disorder starts near 1 (C_empty vs near-perfect matching).
        assert!(result.rows[0][1] > 0.5);
    }
}
