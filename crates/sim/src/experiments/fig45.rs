//! Figures 4 and 5: the structure of constant b-matching on a complete
//! acceptance graph, and the effect of a single extra connection.
//!
//! Figure 4: with `b₀ = 2` and total knowledge, the collaboration graph is
//! a sequence of disjoint `(b₀+1)`-cliques of consecutive ranks.
//! Figure 5: granting one extra connection to peer 1 chains the clusters
//! into a single connected component.

use strat_core::{cluster, GlobalRanking};
use strat_graph::{components::Components, NodeId};
use strat_scenario::{CapacityModel, Scenario, ScenarioError};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// The Figures 4–5 scenario: 9 peers, complete knowledge, constant
/// `b₀ = 2`; the kernel grants peer 1 its extra connection for Figure 5.
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    Scenario::new("fig45", 9)
        .with_seed(ctx.seed)
        .with_capacity(CapacityModel::Constant { value: 2.0 })
}

/// Runs the Figures 4–5 kernel on an arbitrary base scenario.
pub fn run_scenario(
    _ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let b0 = match scenario.capacity {
        CapacityModel::Constant { value } => value as u32,
        _ => 2,
    };
    // 3k+3 peers as in the paper's drawing; one (b0+1)-clique at least.
    let n = common::min_peers("fig45", scenario, b0 as usize + 1)?;
    let ranking = GlobalRanking::identity(n);

    let mut result = ExperimentResult::new(
        "fig45",
        "Figures 4-5: clusters of constant b-matching; one extra connection",
        format!("complete acceptance graph, n={n}, b0={b0}"),
        vec![
            "peer".into(),
            "component_fig4".into(),
            "degree_fig4".into(),
            "component_fig5".into(),
            "degree_fig5".into(),
        ],
    );

    // Figure 4: constant b0-matching.
    let mut rng = common::rng(scenario.seed, 0x45);
    let m4 = scenario.stable_matching(&mut rng)?;
    let comps4 = Components::of(&m4.to_graph());

    // Figure 5: same but peer 1 (rank 0) gets one extra slot.
    let mut caps5: Vec<f64> = vec![f64::from(b0); n];
    caps5[0] += 1.0;
    let fig5 = scenario
        .clone()
        .with_capacity(CapacityModel::Explicit { values: caps5 });
    let m5 = fig5.stable_matching(&mut rng)?;
    let comps5 = Components::of(&m5.to_graph());

    for p in 0..n {
        let v = NodeId::new(p);
        result.push_row(vec![
            (p + 1) as f64, // paper's 1-based label
            comps4.component_of(v) as f64,
            m4.degree(v) as f64,
            comps5.component_of(v) as f64,
            m5.degree(v) as f64,
        ]);
    }

    let stats4 = cluster::cluster_stats(&ranking, &m4);
    result.check(
        "fig4: disjoint (b0+1)-cliques",
        comps4.sizes() == [3, 3, 3] && (0..n).all(|p| m4.degree(NodeId::new(p)) == b0 as usize),
        format!("component sizes {:?}", comps4.sizes()),
    );
    result.check(
        "fig4: clusters are consecutive ranks",
        (0..n).all(|p| {
            comps4.component_of(NodeId::new(p)) == comps4.component_of(NodeId::new(3 * (p / 3)))
        }),
        "peers {1,2,3}, {4,5,6}, {7,8,9} cluster together".to_string(),
    );
    result.check(
        "fig5: one extra connection connects the graph",
        comps5.is_connected(),
        format!("component sizes {:?}", comps5.sizes()),
    );
    result.note(format!(
        "fig4 stats: mean cluster size {:.2}, MMO {:.3} (closed form {:.3})",
        stats4.mean_cluster_size,
        stats4.mmo,
        cluster::mmo_constant_exact(b0)
    ));
    result.note(
        "Paper §4.1: 'it is impossible for a 1-regular graph to be connected, and the \
         cycle is the unique 2-regular connected graph. It follows that it is better to \
         set b0 >= 3' — the basic argument for BitTorrent's 4 default slots."
            .to_string(),
    );
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_matches_paper_drawings() {
        let ctx = ExperimentContext::default();
        let result = run_scenario(&ctx, &preset(&ctx)).unwrap();
        assert!(result.all_passed(), "failed checks: {:#?}", result.checks);
        assert_eq!(result.rows.len(), 9);
    }
}
