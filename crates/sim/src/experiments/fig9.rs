//! Figure 9: validation of the independent `b₀`-matching model
//! (Algorithm 3) against brute-force simulation.
//!
//! Paper setup: 2-matching, `n = 5000`, `p = 1 %` (≈ 50 neighbours per
//! peer), observing peer 3000's first and second choice distributions,
//! centred at rank 3000. The paper drew 10⁶ Erdős–Rényi realizations
//! ("simulations requiring several weeks"); the full profile draws the
//! same 10⁶ at the same size, and quick mode 1500 on a reduced instance.
//! Each realization draws only the observed peer's stable mates with the
//! lazy greedy sampler of [`monte_carlo`], which is exact in distribution
//! without building the graph.

use strat_analytic::{b_matching, monte_carlo};
use strat_scenario::{CapacityModel, Scenario, ScenarioError, TopologyModel};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// The Figure 9 scenario: the independent 2-matching system Algorithm 3
/// is validated on (quick profiles shrink `n` in the same `d` regime).
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    let (n, p) = if ctx.quick {
        (600, 0.05) // d = 30, same regime, CI-sized
    } else {
        (5000, 0.01)
    };
    Scenario::new("fig9", n)
        .with_seed(ctx.seed)
        .with_topology(TopologyModel::ErdosRenyiEdgeProbability { p })
        .with_capacity(CapacityModel::Constant { value: 2.0 })
}

/// Runs the Figure 9 kernel on an arbitrary base scenario.
pub fn run_scenario(
    ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let n = common::min_peers("fig9", scenario, 12)?;
    let p = common::edge_probability("fig9", scenario, n)?;
    let realizations = if ctx.quick { 1500u64 } else { 1_000_000 };
    let b0 = match scenario.capacity {
        CapacityModel::Constant { value } => value as u32,
        _ => 2,
    };
    let peer = n * 3000 / 5000 - 1; // paper's peer 3000, scaled & 0-based
    let window = n / 6; // plot/report window around the peer

    let analytic = b_matching::solve(n, p, b0, &[peer]);
    let cfg = monte_carlo::MonteCarloConfig {
        n,
        p,
        b0,
        realizations,
        seed: scenario.seed ^ 0x9,
        threads: strat_par::default_threads(),
    };
    let empirical = monte_carlo::estimate_choice_distribution(&cfg, peer);

    let mut result = ExperimentResult::new(
        "fig9",
        "Figure 9: first/second choice distributions, simulation vs Algorithm 3",
        format!(
            "2-matching, n={n}, p={p}, peer {}, {realizations} realizations",
            peer + 1
        ),
        vec![
            "rank_offset".into(),
            "first_choice_simulated".into(),
            "second_choice_simulated".into(),
            "first_choice_estimated".into(),
            "second_choice_estimated".into(),
        ],
    );

    let emp1 = empirical.row(1);
    let emp2 = empirical.row(2);
    let ana1 = analytic.choice_row(peer, 1).expect("requested row");
    let ana2 = analytic.choice_row(peer, 2).expect("requested row");
    let lo = peer.saturating_sub(window);
    let hi = (peer + window).min(n - 1);
    for j in lo..=hi {
        result.push_row(vec![
            j as f64 - peer as f64,
            emp1[j],
            emp2[j],
            ana1[j],
            ana2[j],
        ]);
    }

    // Agreement criteria: L1 distance between empirical and analytic rows.
    let l1_first = monte_carlo::l1_distance(&emp1, ana1);
    let l1_second = monte_carlo::l1_distance(&emp2, ana2);
    // Statistical noise floor: L1 of a multinomial estimate with N samples
    // over k effective support points is ~ sqrt(k/N). Mate offsets carry
    // meaningful mass over ~ +/- 4n/d ranks, i.e. k ~ 8/p.
    let k_eff = 8.0 / p;
    let noise = (k_eff / realizations as f64).sqrt();
    let gate = (3.0 * noise).clamp(0.10, 1.2);
    result.check(
        "first-choice distribution matches Algorithm 3",
        l1_first < gate,
        format!("L1 = {l1_first:.4} (gate {gate:.3})"),
    );
    result.check(
        "second-choice distribution matches Algorithm 3",
        l1_second < gate,
        format!("L1 = {l1_second:.4} (gate {gate:.3})"),
    );
    // First choices outrank second choices on both sides.
    let mean_rank = |row: &[f64]| {
        let mass: f64 = row.iter().sum();
        row.iter()
            .enumerate()
            .map(|(j, d)| j as f64 * d)
            .sum::<f64>()
            / mass
    };
    result.check(
        "first choice outranks second choice (both methods)",
        mean_rank(&emp1) < mean_rank(&emp2) && mean_rank(ana1) < mean_rank(ana2),
        format!(
            "simulated means {:.0}/{:.0}, estimated {:.0}/{:.0}",
            mean_rank(&emp1),
            mean_rank(&emp2),
            mean_rank(ana1),
            mean_rank(ana2)
        ),
    );
    result.note(format!(
        "Choice masses — simulated: {:.4}/{:.4}, estimated: {:.4}/{:.4}",
        empirical.choice_mass(1),
        empirical.choice_mass(2),
        analytic.choice_mass(peer, 1),
        analytic.choice_mass(peer, 2),
    ));
    result.note(
        "Paper ran 10^6 realizations over several weeks; the lazy greedy sampler draws the \
         same per-realization mates in distribution without building the graph, with error \
         bars scaled by sqrt(10^6/realizations)."
            .to_string(),
    );
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_validates_algorithm3() {
        let ctx = ExperimentContext {
            quick: true,
            seed: 17,
        };
        let result = run_scenario(&ctx, &preset(&ctx)).unwrap();
        assert!(result.all_passed(), "failed checks: {:#?}", result.checks);
    }

    #[test]
    fn zero_edge_probability_is_a_typed_error() {
        let ctx = ExperimentContext {
            quick: true,
            seed: 13,
        };
        let scenario = preset(&ctx).with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 0.0 });
        scenario.validate().expect("the scenario validates");
        match run_scenario(&ctx, &scenario) {
            Err(ScenarioError::InvalidParameter { what, .. }) => assert_eq!(what, "topology"),
            other => panic!("expected a typed error, got {:?}", other.map(|r| r.id)),
        }
    }
}
