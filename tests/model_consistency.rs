//! Cross-crate integration: the dynamics engine, Algorithm 1, and the
//! analytic solvers must all tell the same story.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stratification::analytic::{b_matching, monte_carlo};
use stratification::core::{
    blocking, cluster, stable_configuration, Capacities, Dynamics, GlobalRanking,
    InitiativeStrategy, RankedAcceptance,
};
use stratification::graph::{generators, NodeId};

/// All three initiative strategies converge to Algorithm 1's fixpoint on
/// the same instance (Theorem 1 uniqueness, cross-strategy).
#[test]
fn all_strategies_share_the_fixpoint() {
    let n = 120;
    let mut graph_rng = ChaCha8Rng::seed_from_u64(77);
    let graph = generators::erdos_renyi_mean_degree(n, 12.0, &mut graph_rng);
    let acc = RankedAcceptance::new(graph, GlobalRanking::identity(n)).unwrap();
    let caps = Capacities::constant(n, 2);
    let reference = stable_configuration(&acc, &caps).unwrap();

    for strategy in [
        InitiativeStrategy::BestMate,
        InitiativeStrategy::Decremental,
        InitiativeStrategy::Random,
    ] {
        let mut rng = ChaCha8Rng::seed_from_u64(88);
        let mut dynamics = Dynamics::new(acc.clone(), caps.clone(), strategy).unwrap();
        for _ in 0..4000 {
            dynamics.run_base_unit(&mut rng);
            if dynamics.is_stable() {
                break;
            }
        }
        assert!(dynamics.is_stable(), "{strategy:?} did not converge");
        assert_eq!(
            dynamics.matching(),
            &reference,
            "{strategy:?} found another fixpoint"
        );
    }
}

/// The empirical mate-rank distribution produced by the *dynamics engine*
/// (not Algorithm 1) across graph realizations matches Algorithm 2 — the
/// analytic model describes what the protocol dynamics actually do.
#[test]
fn dynamics_ensemble_matches_algorithm2() {
    let n = 150;
    let p = 0.08;
    let peer = 75usize;
    let realizations = 1500;
    let mut counts = vec![0u64; n];
    let mut unmatched = 0u64;
    let mut rng = ChaCha8Rng::seed_from_u64(5150);
    for _ in 0..realizations {
        let graph = generators::erdos_renyi(n, p, &mut rng);
        let acc = RankedAcceptance::new(graph, GlobalRanking::identity(n)).unwrap();
        let caps = Capacities::constant(n, 1);
        let mut dynamics = Dynamics::new(acc, caps, InitiativeStrategy::BestMate).unwrap();
        // Run dynamics rather than calling Algorithm 1.
        for _ in 0..200 {
            dynamics.run_base_unit(&mut rng);
            if dynamics.is_stable() {
                break;
            }
        }
        assert!(dynamics.is_stable());
        match dynamics.matching().mate_of(NodeId::new(peer)) {
            Some(mate) => counts[mate.index()] += 1,
            None => unmatched += 1,
        }
    }
    let empirical: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 / realizations as f64)
        .collect();
    // Algorithm 2 is Algorithm 3 at b₀ = 1.
    let analytic = b_matching::solve(n, p, 1, &[peer]);
    let l1 = monte_carlo::l1_distance(&empirical, analytic.choice_row(peer, 1).unwrap());
    assert!(l1 < 0.35, "dynamics-ensemble vs Algorithm 2: L1 = {l1}");
    let unmatched_rate = unmatched as f64 / realizations as f64;
    let predicted = 1.0 - analytic.choice_mass(peer, 1);
    assert!(
        (unmatched_rate - predicted).abs() < 0.05,
        "unmatched rate {unmatched_rate} vs predicted {predicted}"
    );
}

/// Monte Carlo over Algorithm 1 agrees with Algorithm 3 per choice —
/// the Figure 9 validation as an integration test.
#[test]
fn monte_carlo_validates_algorithm3() {
    let cfg = monte_carlo::MonteCarloConfig {
        n: 200,
        p: 0.06,
        b0: 2,
        realizations: 3000,
        seed: 99,
        threads: 8,
    };
    let peer = 120;
    let hist = monte_carlo::estimate_choice_distribution(&cfg, peer);
    let analytic = b_matching::solve(cfg.n, cfg.p, cfg.b0, &[peer]);
    for c in 1..=2u32 {
        let l1 = monte_carlo::l1_distance(&hist.row(c), analytic.choice_row(peer, c).unwrap());
        assert!(l1 < 0.3, "choice {c}: L1 = {l1}");
        assert!(
            (hist.choice_mass(c) - analytic.choice_mass(peer, c)).abs() < 0.05,
            "choice {c} mass"
        );
    }
}

/// Stratification end-to-end: the stable configuration of a large random
/// instance has small MMO relative to n, with the n/d scaling of §5.
#[test]
fn stratification_offsets_scale_with_n_over_d() {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let mut mmo_for = |n: usize, d: f64| {
        let graph = generators::erdos_renyi_mean_degree(n, d, &mut rng);
        let acc = RankedAcceptance::new(graph, GlobalRanking::identity(n)).unwrap();
        let caps = Capacities::constant(n, 1);
        let m = stable_configuration(&acc, &caps).unwrap();
        assert!(blocking::is_stable(&acc, &caps, &m));
        cluster::mean_max_offset(acc.ranking(), &m)
    };
    // Offsets are ~ n/d: doubling n doubles MMO; doubling d halves it.
    let base = mmo_for(1000, 10.0);
    let double_n = mmo_for(2000, 10.0);
    let double_d = mmo_for(1000, 20.0);
    assert!(
        (double_n / base - 2.0).abs() < 0.7,
        "n-scaling: {base} -> {double_n}"
    );
    assert!(
        (double_d / base - 0.5).abs() < 0.3,
        "d-scaling: {base} -> {double_d}"
    );
    // And stratification itself: MMO is a tiny fraction of n.
    assert!(base < 1000.0 / 10.0 * 3.0, "MMO {base} not ~ n/d");
}

/// Churn robustness at integration scale: disorder bounded, and removing
/// churn lets the system land exactly on the stable configuration.
#[test]
fn churned_system_recovers_once_churn_stops() {
    use stratification::core::ChurnProcess;
    let n = 400;
    let mut rng = ChaCha8Rng::seed_from_u64(404);
    let graph = generators::erdos_renyi_mean_degree(n, 10.0, &mut rng);
    let acc = RankedAcceptance::new(graph, GlobalRanking::identity(n)).unwrap();
    let caps = Capacities::constant(n, 1);
    let dynamics = Dynamics::new(acc, caps, InitiativeStrategy::BestMate).unwrap();
    let mut churn = ChurnProcess::new(dynamics, 0.02);
    for _ in 0..15 {
        churn.run_base_unit(&mut rng);
    }
    let during = churn.dynamics().disorder();
    assert!(during < 0.6, "disorder under churn: {during}");
    // Stop churning; reconverge.
    let mut dynamics = churn.dynamics().clone();
    for _ in 0..100 {
        dynamics.run_base_unit(&mut rng);
        if dynamics.is_stable() {
            break;
        }
    }
    assert!(dynamics.is_stable());
    assert_eq!(dynamics.matching(), &dynamics.instant_stable());
}
