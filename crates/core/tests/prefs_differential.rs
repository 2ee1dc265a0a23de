//! Differential properties of the generalized-preference path: the
//! dirty-set driver behind `prefs::best_mate_dynamics` (and
//! `Dynamics<PrefAcceptance>`) must be observationally identical to the
//! retained full-scan implementation `reference::best_mate_dynamics` — same stable
//! configurations (mate-set equality), same step counts, and the same
//! acyclicity-failure (oscillation) reports — across latency, banded,
//! lexicographic, gossip-estimated and explicit preference systems.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use strat_core::prefs::{
    best_mate_dynamics, odd_cycle_instance, BandedRankPrefs, ExplicitPrefs, GlobalPrefs,
    LatencyPrefs, LexicographicPrefs, PrefDynamicsOutcome, PrefMatching, PreferenceSystem,
};
use strat_core::{gossip, reference, Capacities, GlobalRanking};
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

/// Both implementations must agree outcome-for-outcome: stable vs
/// oscillating, identical mate rows (the engine path replays its events
/// into the same `PrefMatching` representation), identical step counts.
fn assert_identical<P: PreferenceSystem>(graph: &Graph, prefs: &P, caps: &Capacities) {
    let fast = best_mate_dynamics(graph, prefs, caps);
    let slow = reference::best_mate_dynamics(graph, prefs, caps);
    match (&fast, &slow) {
        (PrefDynamicsOutcome::Stable(a), PrefDynamicsOutcome::Stable(b)) => {
            assert_rows_equal(a, b);
        }
        (
            PrefDynamicsOutcome::Oscillating { at: a, steps: sa },
            PrefDynamicsOutcome::Oscillating { at: b, steps: sb },
        ) => {
            assert_eq!(sa, sb, "oscillation detected after different step counts");
            assert_rows_equal(a, b);
        }
        _ => panic!("outcome kind diverged: {fast:?} vs {slow:?}"),
    }
}

/// Row-exact equality (not just set equality): the engine path rebuilds
/// the reference's exact vector layout, which is what keeps downstream
/// float accumulations (ext1 golden rows) bit-identical.
fn assert_rows_equal(a: &PrefMatching, b: &PrefMatching) {
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.edge_count(), b.edge_count());
    for v in 0..a.node_count() {
        let v = NodeId::new(v);
        assert_eq!(a.mates(v), b.mates(v), "peer {v}");
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
        // Explicit per-peer orders derived from hashing material: this is
        // the class where odd preference cycles actually occur, so both
        // the stable and the oscillating arm get exercised.
        let graph = build_graph(n, &edges);
        let orders: Vec<Vec<NodeId>> = (0..n)
            .map(|p| {
                let mut order: Vec<NodeId> = (0..n).filter(|&q| q != p).map(NodeId::new).collect();
                let key = orders_seed[p % orders_seed.len()] as usize;
                let len = order.len().max(1);
                order.rotate_left(key % len);
                if key % 2 == 1 {
                    order.reverse();
                }
                order
            })
            .collect();
        let prefs = ExplicitPrefs::new(orders);
        let caps = Capacities::from_values(caps);
        assert_identical(&graph, &prefs, &caps);
    }
}

#[test]
fn odd_cycle_oscillation_reports_agree() {
    let (graph, prefs) = odd_cycle_instance();
    let caps = Capacities::constant(3, 1);
    let fast = best_mate_dynamics(&graph, &prefs, &caps);
    let slow = reference::best_mate_dynamics(&graph, &prefs, &caps);
    let PrefDynamicsOutcome::Oscillating { at: a, steps: sa } = fast else {
        panic!("engine path missed the odd cycle");
    };
    let PrefDynamicsOutcome::Oscillating { at: b, steps: sb } = slow else {
        panic!("reference path missed the odd cycle");
    };
    assert_eq!(sa, sb);
    assert_rows_equal(&a, &b);
}
