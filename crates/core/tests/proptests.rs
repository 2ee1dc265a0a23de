//! Property-based tests for the core stable-matching model.
//!
//! These encode the paper's theorems as machine-checked properties:
//! existence + stability of Algorithm 1's output, uniqueness of the stable
//! configuration (any active-initiative sequence converges to it), and the
//! axioms of the disorder metric.

#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use strat_core::{
    blocking, distance, stable_configuration, stable_configuration_complete, Capacities, Dynamics,
    GlobalRanking, InitiativeStrategy, Matching, RankedAcceptance,
};
use strat_graph::{generators, Graph, NodeId};

/// Raw instance material: `(n, edge list, rank permutation, capacities)`.
type RawInstance = (usize, Vec<(usize, usize)>, Vec<usize>, Vec<u32>);

/// Strategy: a random model instance (graph + ranking + capacities).
fn instance(max_n: usize) -> impl Strategy<Value = RawInstance> {
    (2..max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..(4 * n));
        let perm = Just((0..n).collect::<Vec<_>>()).prop_shuffle();
        let caps = proptest::collection::vec(0u32..5, n);
        (Just(n), edges, perm, caps)
    })
}

fn build_instance(
    n: usize,
    raw_edges: &[(usize, usize)],
    perm: &[usize],
    caps: &[u32],
) -> (RankedAcceptance, Capacities) {
    let mut builder = Graph::builder(n);
    for &(u, v) in raw_edges {
        if u != v {
            builder
                .add_edge(NodeId::new(u), NodeId::new(v))
                .expect("valid endpoints");
        }
    }
    let ranking = GlobalRanking::from_permutation(perm.iter().map(|&i| NodeId::new(i)).collect())
        .expect("permutation strategy yields bijections");
    let acc = RankedAcceptance::new(builder.build(), ranking).expect("sizes match");
    (acc, Capacities::from_values(caps.to_vec()))
}

proptest! {
    /// Algorithm 1 always produces a valid, stable configuration
    /// (existence half of the Tan-based §3 theorem).
    #[test]
    fn algorithm1_output_is_stable((n, edges, perm, caps) in instance(40)) {
        let (acc, caps) = build_instance(n, &edges, &perm, &caps);
        let m = stable_configuration(&acc, &caps).expect("sizes match");
        prop_assert!(m.check_invariants(acc.ranking(), &caps));
        prop_assert!(
            blocking::is_stable(&acc, &caps, &m),
            "blocking pair: {:?}",
            blocking::first_blocking_pair(&acc, &caps, &m)
        );
    }

    /// Uniqueness (Theorem 1): any sequence of active initiatives — here a
    /// random-scheduler best-mate run from the empty configuration — ends in
    /// exactly the configuration Algorithm 1 computes.
    #[test]
    fn initiative_dynamics_reach_algorithm1_fixpoint(
        (n, edges, perm, caps) in instance(24),
        seed in any::<u64>(),
    ) {
        let (acc, caps) = build_instance(n, &edges, &perm, &caps);
        let reference = stable_configuration(&acc, &caps).expect("sizes match");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut dynamics =
            Dynamics::new(acc, caps, InitiativeStrategy::BestMate).expect("sizes match");
        // Theorem 1 guarantees termination; bound the scheduler generously.
        for _ in 0..20_000 {
            dynamics.step(&mut rng);
        }
        prop_assert!(dynamics.is_stable(), "dynamics not settled after bound");
        prop_assert_eq!(dynamics.matching(), &reference);
    }

    /// Every single initiative preserves the matching invariants, active or
    /// not, for each of the three strategies.
    #[test]
    fn initiatives_preserve_invariants(
        (n, edges, perm, caps) in instance(24),
        seed in any::<u64>(),
        strategy_idx in 0usize..3,
    ) {
        let strategy = [
            InitiativeStrategy::BestMate,
            InitiativeStrategy::Decremental,
            InitiativeStrategy::Random,
        ][strategy_idx];
        let (acc, caps) = build_instance(n, &edges, &perm, &caps);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut dynamics = Dynamics::new(acc, caps, strategy).expect("sizes match");
        for _ in 0..200 {
            dynamics.step(&mut rng);
            prop_assert!(dynamics
                .matching()
                .check_invariants(dynamics.keys().ranking(), dynamics.capacities()));
        }
    }

    /// The complete-graph specialization agrees with the generic algorithm.
    #[test]
    fn complete_specialization_matches(
        n in 1usize..40,
        perm_seed in any::<u64>(),
        caps in proptest::collection::vec(0u32..6, 40),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(perm_seed);
        let ranking = GlobalRanking::random(n, &mut rng);
        let caps = Capacities::from_values(caps[..n].to_vec());
        let acc = RankedAcceptance::new(generators::complete(n), ranking.clone())
            .expect("sizes match");
        let generic = stable_configuration(&acc, &caps).expect("sizes match");
        let fast = stable_configuration_complete(&ranking, &caps).expect("sizes match");
        prop_assert_eq!(generic, fast);
    }

    /// Disorder metric axioms: identity, symmetry, and the [0, 1] range for
    /// 1-matchings, plus the exact normalization against C∅.
    #[test]
    fn disorder_metric_axioms(
        n in 2usize..30,
        pairs_seed in any::<u64>(),
    ) {
        let ranking = GlobalRanking::identity(n);
        let caps = Capacities::constant(n, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(pairs_seed);
        // Two random partial 1-matchings via random stable problems.
        let mk = |rng: &mut ChaCha8Rng| {
            let g = generators::erdos_renyi(n, 0.4, rng);
            let acc = RankedAcceptance::new(g, ranking.clone()).expect("sizes match");
            stable_configuration(&acc, &caps).expect("sizes match")
        };
        let a = mk(&mut rng);
        let b = mk(&mut rng);
        let empty = Matching::new(n);

        prop_assert_eq!(distance::disorder(&ranking, &a, &a), 0.0);
        prop_assert_eq!(
            distance::disorder(&ranking, &a, &b),
            distance::disorder(&ranking, &b, &a)
        );
        // The paper's normalization calibrates perfect-vs-empty to 1; the
        // distance between two arbitrary partial matchings can slightly
        // exceed 1 (e.g. n = 3, {(0,1)} vs {(0,2)} gives 7/6) but is always
        // below 2.
        let d = distance::disorder(&ranking, &a, &b);
        prop_assert!((0.0..2.0).contains(&d));
        prop_assert!(distance::disorder(&ranking, &a, &empty) <= 1.0 + 1e-12);
        // Triangle inequality through the empty configuration.
        let da = distance::disorder(&ranking, &a, &empty);
        let db = distance::disorder(&ranking, &b, &empty);
        prop_assert!(d <= da + db + 1e-12);
    }

    /// Peer removal never leaves dangling references and reconvergence
    /// reaches the masked stable configuration.
    #[test]
    fn removal_reconverges_to_masked_stable(
        (n, edges, perm, caps) in instance(20),
        removed in 0usize..20,
        seed in any::<u64>(),
    ) {
        let removed = removed % n;
        let (acc, caps) = build_instance(n, &edges, &perm, &caps);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut dynamics = Dynamics::new(acc, caps, InitiativeStrategy::BestMate)
            .expect("sizes match");
        for _ in 0..5_000 {
            dynamics.step(&mut rng);
        }
        dynamics.remove_peer(NodeId::new(removed));
        for _ in 0..5_000 {
            dynamics.step(&mut rng);
        }
        prop_assert!(dynamics.is_stable());
        prop_assert_eq!(dynamics.matching(), &dynamics.instant_stable());
        prop_assert_eq!(dynamics.matching().degree(NodeId::new(removed)), 0);
    }
}
