//! Figure 8: the three regimes of the mate distribution
//! (`n = 5000`, `p = 0.5 %`, independent 1-matching).
//!
//! * Peer 200 (well ranked): mates concentrate just below its own rank,
//!   with an almost geometric right tail;
//! * Peer 2500 (central): symmetric distribution that simply *shifts* with
//!   the peer's rank — the finite-horizon / stratification property;
//! * Peer 4800 (poorly ranked): the shifted distribution is cut at the
//!   bottom; the missing mass is the probability of staying unmatched. The
//!   worst peer is matched in exactly half of the cases.

use strat_analytic::b_matching;
use strat_scenario::{Scenario, ScenarioError, TopologyModel};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// The Figure 8 scenario: the independent 1-matching system at `d = 25`
/// (quick profiles shrink `n` and rescale `p` to keep `d` fixed).
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    let n = if ctx.quick { 2000 } else { 5000 };
    let p = if ctx.quick {
        0.005 * 5000.0 / 2000.0
    } else {
        0.005
    }; // keep d = 25
    Scenario::new("fig8", n)
        .with_seed(ctx.seed)
        .with_topology(TopologyModel::ErdosRenyiEdgeProbability { p })
}

/// Runs the Figure 8 kernel on an arbitrary base scenario.
pub fn run_scenario(
    _ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let n = common::min_peers("fig8", scenario, 25)?;
    let p = common::edge_probability("fig8", scenario, n)?;
    // Paper peers 200 / 2500 / 4800 (1-based) scaled to n, plus a second
    // central peer for the shift-invariance check.
    let peers = [n * 200 / 5000 - 1, n * 2500 / 5000 - 1, n * 4800 / 5000 - 1];
    let worst = n - 1;
    let mid2 = n * 3500 / 5000;
    let mut request = peers.to_vec();
    request.push(mid2);
    // Independent 1-matching: Algorithm 3 at b₀ = 1 is Algorithm 2.
    let sol = b_matching::solve(n, p, 1, &request);
    let unmatched = |i| (1.0 - sol.choice_mass(i, 1)).max(0.0);

    let mut result = ExperimentResult::new(
        "fig8",
        "Figure 8: mate distribution D(i, .) for a top, middle and bottom peer",
        format!(
            "independent 1-matching, n={n}, p={p:.4} (d = {:.1})",
            p * (n as f64 - 1.0)
        ),
        vec![
            "rank_j".into(),
            format!("D_peer{}", peers[0] + 1),
            format!("D_peer{}", peers[1] + 1),
            format!("D_peer{}", peers[2] + 1),
        ],
    );

    let rows: Vec<&[f64]> = peers
        .iter()
        .map(|&i| sol.choice_row(i, 1).expect("row requested"))
        .collect();
    for j in 0..n {
        result.push_row(vec![(j + 1) as f64, rows[0][j], rows[1][j], rows[2][j]]);
    }

    // Shape criteria.
    let mean_rank = |row: &[f64]| {
        let mass: f64 = row.iter().sum();
        row.iter()
            .enumerate()
            .map(|(j, d)| j as f64 * d)
            .sum::<f64>()
            / mass
    };
    let mid = peers[1];
    let mid_mean = mean_rank(rows[1]);
    result.check(
        "central peer's distribution is centred on its own rank",
        (mid_mean - mid as f64).abs() < n as f64 * 0.01,
        format!("mean mate rank {:.1} vs own rank {}", mid_mean, mid),
    );
    // Symmetry of the central distribution: mass within +/- w balanced.
    let w = n / 25;
    let left: f64 = rows[1][mid - w..mid].iter().sum();
    let right: f64 = rows[1][mid + 1..=mid + w].iter().sum();
    result.check(
        "central distribution is symmetric",
        (left - right).abs() / (left + right) < 0.1,
        format!("mass left {left:.3} vs right {right:.3}"),
    );
    // Shift invariance: D(mid, mid+k) ~ D(mid', mid'+k) for mid' in the
    // 25%-80% band.
    let row2 = sol.choice_row(mid2, 1).expect("row requested");
    let max_shift_err = (1..w)
        .map(|k| {
            let a = rows[1][mid + k] - row2[mid2 + k];
            let b = rows[1][mid - k] - row2[mid2 - k];
            a.abs().max(b.abs())
        })
        .fold(0.0f64, f64::max);
    result.check(
        "distribution shifts with rank (finite-horizon property)",
        max_shift_err < 1e-4,
        format!("max |D(mid, mid+k) - D(mid', mid'+k)| = {max_shift_err:.2e}"),
    );
    // Top peer: mass concentrated above (below-rank mates) and geometric-ish
    // right part.
    let top = peers[0];
    let above: f64 = rows[0][top + 1..].iter().sum();
    let below: f64 = rows[0][..top].iter().sum();
    result.check(
        "top peer mostly mates below its rank",
        above > below,
        format!("mass below-rank {above:.3} vs above-rank {below:.3}"),
    );
    // Bottom peer: truncated distribution leaves unmatched probability.
    let unmatched_bottom = unmatched(peers[2]);
    result.check(
        "bottom peer has visible unmatched probability",
        unmatched_bottom > 0.001,
        format!("P(unmatched) = {unmatched_bottom:.4}"),
    );
    let unmatched_worst = unmatched(worst);
    result.check(
        "worst peer is matched in half of the cases",
        (unmatched_worst - 0.5).abs() < 0.05,
        format!("P(unmatched, worst) = {unmatched_worst:.4}"),
    );
    result.note(
        "Paper §5.3: 'the distribution simply shifts with the rank of the peer (for top \
         25% to top 80% peers)... A particular case for the worst peer is that it will \
         be matched exactly in half of the cases.'"
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
            seed: 13,
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
