//! Differential properties of the generalized-preference path:
//! [`Dynamics::settle`] over a [`PrefAcceptance`] key table (the dirty-set
//! driver) must be observationally identical to the retained full-scan
//! implementation `reference::best_mate_dynamics` — the same mate set per
//! peer, the same step count, and the same acyclicity-failure (revisit)
//! configuration — across latency, banded, lexicographic,
//! gossip-estimated and explicit preference systems.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use strat_core::prefs::{
    odd_cycle_instance, BandedRankPrefs, ExplicitPrefs, GlobalPrefs, LatencyPrefs,
    LexicographicPrefs, PreferenceSystem,
};
use strat_core::reference::{self, RefPrefMatching, RefPrefOutcome};
use strat_core::{
    gossip, Capacities, Dynamics, GlobalRanking, InitiativeStrategy, Matching, ModelError,
    PrefAcceptance,
};
use strat_graph::{Graph, NodeId};

/// Raw instance material: `(n, edge list, positions, capacities)`.
type RawInstance = (usize, Vec<(usize, usize)>, Vec<u32>, Vec<u32>);

fn instance(max_n: usize) -> impl Strategy<Value = RawInstance> {
    (3..max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..(5 * n));
        // Integer position material keeps latency ties exercising the
        // deterministic id tie-break.
        let positions = proptest::collection::vec(0u32..64, n);
        let caps = proptest::collection::vec(0u32..4, n);
        (Just(n), edges, positions, caps)
    })
}

fn build_graph(n: usize, raw_edges: &[(usize, usize)]) -> Graph {
    let mut builder = Graph::builder(n);
    for &(u, v) in raw_edges {
        if u != v {
            builder
                .add_edge(NodeId::new(u), NodeId::new(v))
                .expect("endpoints in range");
        }
    }
    builder.build()
}

/// Settles `Dynamics` from `C∅`: the configuration it stops at (stable or
/// revisited), the active-initiative count, and whether it settled.
fn settle<P: PreferenceSystem>(
    graph: &Graph,
    prefs: &P,
    caps: &Capacities,
) -> (Matching, u64, bool) {
    let mut dynamics = Dynamics::new(
        PrefAcceptance::build(graph, prefs),
        caps.clone(),
        InitiativeStrategy::BestMate,
    )
    .expect("sizes agree");
    let settled = match dynamics.settle() {
        Ok(steps) => {
            assert_eq!(steps, dynamics.active_initiative_count());
            true
        }
        Err(e) => {
            assert_eq!(e, ModelError::NoStableConfiguration);
            false
        }
    };
    let steps = dynamics.active_initiative_count();
    (dynamics.matching().clone(), steps, settled)
}

/// Both implementations must agree outcome-for-outcome: stable vs
/// oscillating, identical mate sets per peer at the stable or revisited
/// configuration, identical step counts.
fn assert_identical<P: PreferenceSystem>(graph: &Graph, prefs: &P, caps: &Capacities) {
    let (fast, fast_steps, settled) = settle(graph, prefs, caps);
    match reference::best_mate_dynamics(graph, prefs, caps) {
        RefPrefOutcome::Stable { at, steps } => {
            assert!(settled, "reference settled, Dynamics oscillated");
            assert_eq!(fast_steps, steps, "settled after different step counts");
            assert_mate_sets_equal(&fast, &at);
        }
        RefPrefOutcome::Oscillating { at, steps } => {
            assert!(!settled, "reference oscillated, Dynamics settled");
            assert_eq!(
                fast_steps, steps,
                "oscillation detected after different step counts"
            );
            assert_mate_sets_equal(&fast, &at);
        }
    }
}

/// Mate-set equality per peer (the two configurations store their rows in
/// different orders).
fn assert_mate_sets_equal(a: &Matching, b: &RefPrefMatching) {
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.edge_count(), b.edge_count());
    for v in 0..a.node_count() {
        let v = NodeId::new(v);
        let mut fast = a.mates(v).to_vec();
        let mut slow = b.mates(v).to_vec();
        fast.sort_unstable();
        slow.sort_unstable();
        assert_eq!(fast, slow, "peer {v}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn latency_systems_agree((n, edges, positions, caps) in instance(40)) {
        let graph = build_graph(n, &edges);
        let prefs = LatencyPrefs::new(positions.iter().map(|&p| f64::from(p)).collect());
        let caps = Capacities::from_values(caps);
        assert_identical(&graph, &prefs, &caps);
    }

    #[test]
    fn banded_lexicographic_systems_agree(
        (n, edges, positions, caps) in instance(40),
        class_width in 1usize..8,
    ) {
        let graph = build_graph(n, &edges);
        let prefs = LexicographicPrefs::new(
            BandedRankPrefs::new(GlobalRanking::identity(n), class_width),
            LatencyPrefs::new(positions.iter().map(|&p| f64::from(p)).collect()),
        );
        let caps = Capacities::from_values(caps);
        assert_identical(&graph, &prefs, &caps);
    }

    #[test]
    fn gossip_estimated_systems_agree(
        (n, edges, _, caps) in instance(40),
        seed in 0u64..1000,
        sample_size in 1usize..20,
    ) {
        let graph = build_graph(n, &edges);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let estimated =
            gossip::estimate_ranking(&GlobalRanking::identity(n), sample_size, &mut rng);
        let prefs = GlobalPrefs::new(estimated);
        let caps = Capacities::from_values(caps);
        assert_identical(&graph, &prefs, &caps);
    }

    #[test]
    fn explicit_systems_agree_including_oscillations(
        (n, edges, orders_seed, caps) in instance(16),
    ) {
        // Explicit per-peer orders, each an independent shuffle keyed by
        // the peer's seed material, with capacities 1 or 2: this is the
        // class where odd preference cycles actually occur, so both the
        // stable and the oscillating arm get exercised (structured orders
        // and zero capacities almost never form one).
        let graph = build_graph(n, &edges);
        let orders: Vec<Vec<NodeId>> = (0..n)
            .map(|p| {
                let mut order: Vec<NodeId> = (0..n).filter(|&q| q != p).map(NodeId::new).collect();
                let key = u64::from(orders_seed[p]) << 8 | p as u64;
                order.shuffle(&mut ChaCha8Rng::seed_from_u64(key));
                order
            })
            .collect();
        let prefs = ExplicitPrefs::new(orders);
        let caps = Capacities::from_values(caps.iter().map(|&c| 1 + c % 2).collect());
        assert_identical(&graph, &prefs, &caps);
    }
}

#[test]
fn odd_cycle_oscillation_reports_agree() {
    let (graph, prefs) = odd_cycle_instance();
    let caps = Capacities::constant(3, 1);
    let (fast, fast_steps, settled) = settle(&graph, &prefs, &caps);
    assert!(!settled, "Dynamics::settle missed the odd cycle");
    let RefPrefOutcome::Oscillating { at, steps } =
        reference::best_mate_dynamics(&graph, &prefs, &caps)
    else {
        panic!("reference path missed the odd cycle");
    };
    assert!(steps > 0);
    assert_eq!(fast_steps, steps);
    assert_mate_sets_equal(&fast, &at);
}
