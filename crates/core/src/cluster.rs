//! Cluster and stratification statistics (§4).
//!
//! The *collaboration graph* of a configuration is analyzed through two
//! statistics:
//!
//! * **cluster sizes** — connected components; constant `b₀`-matching on a
//!   complete acceptance graph shatters into `(b₀+1)`-cliques (Figure 4),
//!   while variable capacities merge them into huge components (Figure 6);
//! * **Mean Max Offset (MMO)** — the mean over peers of the ranking offset
//!   to their *furthest* collaboration-graph neighbour. Small MMO while
//!   clusters are huge is precisely the stratification phenomenon. (The
//!   paper uses "Mean Max Offset" and "Max Mean Offset" interchangeably for
//!   this same quantity; we keep MMO.)

use serde::Serialize;
use strat_graph::components::Components;

use crate::{GlobalRanking, Matching};

/// Summary statistics of the collaboration graph of a configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterStats {
    /// Number of connected components (isolated peers count as singletons).
    pub component_count: usize,
    /// Mean component size `n / component_count`.
    pub mean_cluster_size: f64,
    /// Mean size of the component of a uniformly random *peer*
    /// (`Σ sᵢ² / n`); emphasizes giant components.
    pub mean_cluster_size_by_peer: f64,
    /// Size of the largest component.
    pub giant_size: usize,
    /// Mean Max Offset: mean over mated peers of `max |rank(p) − rank(q)|`
    /// over their direct mates `q`.
    pub mmo: f64,
}

/// Computes [`ClusterStats`] for a configuration.
///
/// # Examples
///
/// ```
/// use strat_core::{cluster, stable_configuration_complete, Capacities, GlobalRanking};
///
/// // Constant 2-matching on 9 peers: three 3-cliques (Figure 4).
/// let ranking = GlobalRanking::identity(9);
/// let caps = Capacities::constant(9, 2);
/// let m = stable_configuration_complete(&ranking, &caps)?;
/// let stats = cluster::cluster_stats(&ranking, &m);
/// assert_eq!(stats.component_count, 3);
/// assert_eq!(stats.mean_cluster_size, 3.0);
/// // MMO of 2-matching cliques: (2+1+2)/3 = 5/3.
/// assert!((stats.mmo - 5.0 / 3.0).abs() < 1e-12);
/// # Ok::<(), strat_core::ModelError>(())
/// ```
#[must_use]
pub fn cluster_stats(ranking: &GlobalRanking, matching: &Matching) -> ClusterStats {
    let n = matching.node_count();
    let mut uf = matching.to_union_find();
    let comps = Components::from_union_find(&mut uf);
    let mean_by_peer = if n == 0 {
        0.0
    } else {
        comps.sizes().iter().map(|&s| (s * s) as f64).sum::<f64>() / n as f64
    };
    ClusterStats {
        component_count: comps.count(),
        mean_cluster_size: comps.mean_size(),
        mean_cluster_size_by_peer: mean_by_peer,
        giant_size: comps.giant_size(),
        mmo: mean_max_offset(ranking, matching),
    }
}

/// Mean Max Offset of a configuration: mean over peers with at least one
/// mate of the maximum rank offset to a mate. Returns 0 if nobody is mated.
#[must_use]
pub fn mean_max_offset(ranking: &GlobalRanking, matching: &Matching) -> f64 {
    let mut total = 0.0;
    let mut mated = 0usize;
    for v in ranking.nodes_best_first() {
        let mate_ranks = matching.mate_ranks(v);
        if mate_ranks.is_empty() {
            continue;
        }
        // Mates are sorted best-first with ranks cached alongside; the max
        // offset is attained at the first or last mate.
        let v_rank = ranking.rank_of(v);
        let first = v_rank.offset(mate_ranks[0]);
        let last = v_rank.offset(*mate_ranks.last().expect("nonempty"));
        total += first.max(last) as f64;
        mated += 1;
    }
    if mated == 0 {
        0.0
    } else {
        total / mated as f64
    }
}

/// Exact MMO of constant `b₀`-matching on a complete acceptance graph,
/// where every cluster is a `(b₀+1)`-clique of consecutive ranks:
/// `MMO(b₀) = (1/(b₀+1)) Σᵢ max(i, b₀ − i)` for positions `i = 0..=b₀`.
///
/// The paper spells the sum `(b₀ + (b₀−1) + … + ⌈b₀/2⌉ + … + b₀)/(b₀+1)`.
///
/// # Examples
///
/// ```
/// let mmo = strat_core::cluster::mmo_constant_exact(2);
/// assert!((mmo - 5.0 / 3.0).abs() < 1e-12); // paper Table 1: 1.67
/// ```
#[must_use]
pub fn mmo_constant_exact(b0: u32) -> f64 {
    if b0 == 0 {
        return 0.0;
    }
    let b0 = b0 as u64;
    let sum: u64 = (0..=b0).map(|i| i.max(b0 - i)).sum();
    sum as f64 / (b0 + 1) as f64
}

/// Asymptotic MMO of constant `b₀`-matching: `3b₀/4` (§4.2).
#[must_use]
pub fn mmo_constant_limit(b0: u32) -> f64 {
    0.75 * f64::from(b0)
}

#[cfg(test)]
mod tests {
    use strat_graph::NodeId;

    use crate::{stable_configuration_complete, Capacities};

    use super::*;

    #[test]
    fn mmo_constant_matches_paper_table1() {
        // Table 1, constant b0-matching row "Max Mean Offset".
        let expected = [
            (2u32, 1.67),
            (3, 2.5),
            (4, 3.2),
            (5, 4.0),
            (6, 4.71),
            (7, 5.5),
        ];
        for (b0, want) in expected {
            let got = mmo_constant_exact(b0);
            assert!((got - want).abs() < 0.01, "b0={b0}: got {got}, want {want}");
        }
    }

    #[test]
    fn mmo_converges_to_three_quarters_b0() {
        for b0 in [64u32, 256, 1024] {
            let ratio = mmo_constant_exact(b0) / mmo_constant_limit(b0);
            assert!(
                (ratio - 1.0).abs() < 2.0 / f64::from(b0),
                "b0={b0}: ratio {ratio}"
            );
        }
    }

    #[test]
    fn measured_mmo_matches_closed_form() {
        for b0 in 2u32..=7 {
            let n = (b0 as usize + 1) * 100; // whole clusters only
            let ranking = GlobalRanking::identity(n);
            let caps = Capacities::constant(n, b0);
            let m = stable_configuration_complete(&ranking, &caps).unwrap();
            let measured = mean_max_offset(&ranking, &m);
            let exact = mmo_constant_exact(b0);
            assert!(
                (measured - exact).abs() < 1e-9,
                "b0={b0}: {measured} vs {exact}"
            );
        }
    }

    #[test]
    fn cluster_stats_on_clique_decomposition() {
        let ranking = GlobalRanking::identity(12);
        let caps = Capacities::constant(12, 3);
        let m = stable_configuration_complete(&ranking, &caps).unwrap();
        let stats = cluster_stats(&ranking, &m);
        assert_eq!(stats.component_count, 3);
        assert_eq!(stats.giant_size, 4);
        assert_eq!(stats.mean_cluster_size, 4.0);
        assert_eq!(stats.mean_cluster_size_by_peer, 4.0);
    }

    #[test]
    fn empty_matching_stats() {
        let ranking = GlobalRanking::identity(5);
        let stats = cluster_stats(&ranking, &Matching::new(5));
        assert_eq!(stats.component_count, 5);
        assert_eq!(stats.giant_size, 1);
        assert_eq!(stats.mmo, 0.0);
    }

    #[test]
    fn mmo_ignores_unmated_peers() {
        let ranking = GlobalRanking::identity(5);
        let caps = Capacities::constant(5, 1);
        let mut m = Matching::new(5);
        m.connect(&ranking, &caps, NodeId::new(0), NodeId::new(4))
            .unwrap();
        // Only peers 0 and 4 are mated; both have offset 4.
        assert_eq!(mean_max_offset(&ranking, &m), 4.0);
    }

    #[test]
    fn mmo_zero_capacity() {
        assert_eq!(mmo_constant_exact(0), 0.0);
        assert_eq!(mmo_constant_limit(0), 0.0);
    }

    #[test]
    fn by_peer_mean_emphasizes_giants() {
        // Two pairs and two singletons: sizes 2, 2, 1, 1 over n = 6.
        let ranking = GlobalRanking::identity(6);
        let caps = Capacities::constant(6, 1);
        let mut m = Matching::new(6);
        m.connect(&ranking, &caps, NodeId::new(0), NodeId::new(1))
            .unwrap();
        m.connect(&ranking, &caps, NodeId::new(2), NodeId::new(3))
            .unwrap();
        let stats = cluster_stats(&ranking, &m);
        assert_eq!(stats.component_count, 4);
        assert_eq!(stats.mean_cluster_size, 1.5);
        assert!((stats.mean_cluster_size_by_peer - (4.0 + 4.0 + 1.0 + 1.0) / 6.0).abs() < 1e-12);
    }
}
