//! EXT1 (paper §7 future work): combining utility functions —
//! bandwidth-rank stratification vs latency clustering.
//!
//! The conclusion of the paper observes that strong stratification is bad
//! for streaming (large collaboration-graph diameter → large play-out
//! delay) and proposes *combining* utilities, e.g. a second collaboration
//! type "depending on a symmetric ranking such as latency". This
//! experiment quantifies the trade-off on one instance:
//!
//! * **pure rank** preferences → minimal rank offsets, latency-blind mates;
//! * **pure latency** preferences → minimal mate distance, rank-blind;
//! * **banded rank × latency** (lexicographic) → intermediate on both axes,
//!   tunable by the class width.

use strat_core::prefs::{
    BandedRankPrefs, GlobalPrefs, LatencyPrefs, LexicographicPrefs, PreferenceSystem,
};
use strat_core::{
    Capacities, Dynamics, GlobalRanking, InitiativeStrategy, Matching, PrefAcceptance,
};
use strat_graph::{Graph, NodeId};
use strat_scenario::{CapacityModel, PreferenceModel, Scenario, ScenarioError, TopologyModel};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

struct Measured {
    mean_rank_offset: f64,
    mean_latency: f64,
    matched_edges: usize,
}

/// Mean rank offset and mean latency over every (peer, mate) pair. Each
/// row is summed in ascending mate id, so the value depends only on the
/// mate sets, not on how the configuration stores its rows.
fn measure(matching: &Matching, ranking: &GlobalRanking, latency: &LatencyPrefs) -> Measured {
    let mut offset = 0.0f64;
    let mut dist = 0.0f64;
    let mut count = 0.0f64;
    let mut row = Vec::new();
    for v in 0..matching.node_count() {
        let v_id = NodeId::new(v);
        row.clear();
        row.extend_from_slice(matching.mates(v_id));
        row.sort_unstable();
        for &w in &row {
            offset += ranking.offset(v_id, w) as f64;
            dist += latency.distance(v_id, w);
            count += 1.0;
        }
    }
    Measured {
        mean_rank_offset: offset / count.max(1.0),
        mean_latency: dist / count.max(1.0),
        matched_edges: matching.edge_count(),
    }
}

/// The round-robin best-mate fixpoint from `C∅` under `prefs`.
fn settle<P: PreferenceSystem>(
    graph: &Graph,
    prefs: &P,
    caps: &Capacities,
) -> Result<Matching, ScenarioError> {
    let mut dynamics = Dynamics::new(
        PrefAcceptance::build(graph, prefs),
        caps.clone(),
        InitiativeStrategy::BestMate,
    )?;
    dynamics.settle()?;
    Ok(dynamics.into_parts().0)
}

/// The EXT1 scenario: the §7 combined utility — banded rank classes of
/// width `n/20` refined by latency over a `[0, 1000)` space; the kernel
/// sweeps the class width between the pure-rank and pure-latency poles.
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    let n = if ctx.quick { 200 } else { 600 };
    Scenario::new("ext1", n)
        .with_seed(ctx.seed)
        .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 24.0 })
        .with_capacity(CapacityModel::Constant { value: 3.0 })
        .with_preference(PreferenceModel::BandedRankLatency {
            class_width: n / 20,
            span: 1000.0,
        })
}

/// Runs the combined-utilities kernel on an arbitrary base scenario.
pub fn run_scenario(
    _ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let n = scenario.peers;
    let d = scenario.topology.mean_degree(n);
    let mut rng = common::rng(scenario.seed, 0xe1);
    // Scenario build order: topology, then preference (the latency
    // embedding all preference variants share), then capacities.
    let graph = scenario.build_graph(&mut rng)?;
    let ranking = GlobalRanking::identity(n);
    // Latency positions uncorrelated with rank.
    let positions = scenario
        .preference
        .latency_positions(n, &mut rng)
        .ok_or_else(|| ScenarioError::InvalidParameter {
            what: "preference",
            reason: "ext1 needs a latency-flavoured preference model".to_string(),
        })?;
    let latency = LatencyPrefs::new(positions);
    let caps: Capacities = scenario.build_capacities(&mut rng)?;
    let b0 = caps.of(NodeId::new(0));

    let mut result = ExperimentResult::new(
        "ext1",
        "EXT1 (section 7): rank stratification vs latency clustering trade-off",
        format!("n={n}, d={d}, b0={b0}; latency uniform in [0,1000), independent of rank"),
        vec![
            "class_width".into(),
            "mean_rank_offset".into(),
            "mean_latency".into(),
            "matched_edges".into(),
        ],
    );

    // Pure rank (class width 1 ≡ exact global ranking).
    let pure_rank = measure(
        &settle(&graph, &GlobalPrefs::new(ranking.clone()), &caps)?,
        &ranking,
        &latency,
    );
    result.push_row(vec![
        1.0,
        pure_rank.mean_rank_offset,
        pure_rank.mean_latency,
        pure_rank.matched_edges as f64,
    ]);

    // Banded rank with latency refinement, coarser and coarser.
    let mut banded_results = Vec::new();
    for width in [n / 50, n / 20, n / 8, n / 4] {
        let prefs = LexicographicPrefs::new(
            BandedRankPrefs::new(ranking.clone(), width.max(2)),
            latency.clone(),
        );
        let measured = measure(&settle(&graph, &prefs, &caps)?, &ranking, &latency);
        result.push_row(vec![
            width as f64,
            measured.mean_rank_offset,
            measured.mean_latency,
            measured.matched_edges as f64,
        ]);
        banded_results.push(measured);
    }

    // Pure latency (class width n ≡ one class; rank ignored).
    let pure_latency = measure(&settle(&graph, &latency, &caps)?, &ranking, &latency);
    result.push_row(vec![
        n as f64,
        pure_latency.mean_rank_offset,
        pure_latency.mean_latency,
        pure_latency.matched_edges as f64,
    ]);

    result.check(
        "pure rank minimizes rank offsets",
        pure_rank.mean_rank_offset < pure_latency.mean_rank_offset,
        format!(
            "rank-prefs offset {:.1} < latency-prefs offset {:.1}",
            pure_rank.mean_rank_offset, pure_latency.mean_rank_offset
        ),
    );
    result.check(
        "pure latency minimizes mate distance",
        pure_latency.mean_latency < pure_rank.mean_latency,
        format!(
            "latency-prefs distance {:.1} < rank-prefs distance {:.1}",
            pure_latency.mean_latency, pure_rank.mean_latency
        ),
    );
    let mid = &banded_results[1]; // width = n/20
    result.check(
        "combined utility interpolates both axes",
        mid.mean_rank_offset < pure_latency.mean_rank_offset
            && mid.mean_latency < pure_rank.mean_latency,
        format!(
            "banded(n/20): offset {:.1} (< {:.1}), latency {:.1} (< {:.1})",
            mid.mean_rank_offset,
            pure_latency.mean_rank_offset,
            mid.mean_latency,
            pure_rank.mean_latency
        ),
    );
    let coarser_helps_latency = banded_results
        .windows(2)
        .all(|w| w[1].mean_latency <= w[0].mean_latency * 1.25);
    result.check(
        "coarser classes trade rank fidelity for latency (monotone-ish)",
        coarser_helps_latency,
        format!(
            "latency across widths: {:?}",
            banded_results
                .iter()
                .map(|m| m.mean_latency.round())
                .collect::<Vec<_>>()
        ),
    );
    result.note(
        "Paper §7: 'a strong stratification, needed to give peers incentive to \
         collaborate, produce a collaboration graph with large diameter (large play out \
         delay). In many cases, combining different utility function will be necessary.'"
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
            seed: 31,
        };
        let result = run_scenario(&ctx, &preset(&ctx)).unwrap();
        assert!(result.all_passed(), "failed checks: {:#?}", result.checks);
        assert_eq!(result.rows.len(), 6);
    }
}
