//! Figure 2: atomic alteration — remove one peer from the stable state and
//! watch reconvergence.
//!
//! Paper setup: 1000 peers, 1-matching, 10 neighbours per peer. Starting
//! from the stable configuration, remove peer 1 / 100 / 300 / 600 (1-based)
//! and track disorder towards the *new* stable configuration.
//!
//! Paper observations: convergence takes less than `d` base units, disorder
//! stays small, and — the domino effect — removing a good peer generally
//! induces more disorder than removing a bad one.

use strat_graph::NodeId;
use strat_scenario::{Scenario, ScenarioError};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// The Figure 2 scenario: the paper's `n = 1000`, `d = 10` system.
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    common::one_matching_scenario("fig2", 1000, 10.0).with_seed(ctx.seed)
}

/// Runs the Figure 2 kernel on an arbitrary base scenario.
pub fn run_scenario(
    ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let n = common::min_peers("fig2", scenario, 10)?;
    let d = scenario.topology.mean_degree(n);
    // Paper's removed peers are the 1-based labels 1/100/300/600; ours are
    // 0-based ranks, scaled to the scenario's population.
    let removals = [0usize, n / 10 - 1, 3 * n / 10 - 1, 6 * n / 10 - 1];
    let units = 10usize;
    let repetitions = if ctx.quick { 3 } else { 30 };

    let mut result = ExperimentResult::new(
        "fig2",
        "Figure 2: disorder after removing one peer from the stable state",
        format!("n={n}, d={d}, 1-matching, best-mate initiatives, {repetitions} runs averaged"),
        {
            let mut cols = vec!["initiatives_per_peer".to_string()];
            cols.extend(
                removals
                    .iter()
                    .map(|r| format!("disorder_remove_peer{}", r + 1)),
            );
            cols
        },
    );

    let mut traces = vec![vec![0.0f64; units + 1]; removals.len()];
    let mut peak = vec![0.0f64; removals.len()];
    for (c, &removed) in removals.iter().enumerate() {
        for rep in 0..repetitions {
            let mut rng = common::rng(scenario.seed, 0x0200 + ((c as u64) << 8) + rep as u64);
            // Jump straight to the stable configuration (Algorithm 1), then
            // perturb.
            let mut dynamics = scenario.build_dynamics_at_stable(&mut rng)?;
            dynamics.remove_peer(NodeId::new(removed));
            let d0 = dynamics.disorder();
            traces[c][0] += d0;
            peak[c] = peak[c].max(d0);
            for t in 1..=units {
                dynamics.run_base_unit(&mut rng);
                let dis = dynamics.disorder();
                traces[c][t] += dis;
                peak[c] = peak[c].max(dis);
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

    for (c, &removed) in removals.iter().enumerate() {
        result.check(
            format!("peer {}: disorder stays small", removed + 1),
            peak[c] < 0.05,
            format!("peak disorder {:.5}", peak[c]),
        );
        result.check(
            format!("peer {}: reconverges within d base units", removed + 1),
            traces[c][units] < 0.002,
            format!("disorder at t={units} is {:.6}", traces[c][units]),
        );
    }
    // Domino effect: integrated disorder decreases with the removed peer's
    // rank (better peers hurt more).
    let integrated: Vec<f64> = traces.iter().map(|tr| tr.iter().sum::<f64>()).collect();
    result.check(
        "domino effect: removing better peers causes more disorder",
        integrated[0] > integrated[3],
        format!(
            "integrated disorder: peer1 {:.4} vs peer600 {:.4}",
            integrated[0], integrated[3]
        ),
    );
    result.note(
        "Paper: 'due to a domino effect, removing a good peer generally induces more \
         disorder than removing a bad peer.'"
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
            seed: 3,
        };
        let result = run_scenario(&ctx, &preset(&ctx)).unwrap();
        assert_eq!(result.rows.len(), 11);
        assert!(result.all_passed(), "failed checks: {:#?}", result.checks);
    }
}
