//! Property-based tests for the swarm simulator: conservation laws and
//! protocol invariants under arbitrary configurations.

#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use strat_bittorrent::{metrics, EventEngine, EventTiming, Swarm, SwarmConfig};

fn swarm_params() -> impl Strategy<Value = (usize, usize, usize, f64, bool, u64)> {
    (
        4usize..40,    // leechers
        1usize..3,     // seeds
        8usize..64,    // pieces
        0.0f64..0.9,   // initial completion
        any::<bool>(), // fluid content
        any::<u64>(),  // seed
    )
}

fn build(
    leechers: usize,
    seeds: usize,
    pieces: usize,
    completion: f64,
    fluid: bool,
    seed: u64,
) -> Swarm {
    let config = SwarmConfig::builder()
        .leechers(leechers)
        .seeds(seeds)
        .piece_count(pieces)
        .piece_size_kbit(150.0)
        .initial_completion(completion)
        .mean_neighbors(8.0)
        .fluid_content(fluid)
        .seed(seed)
        .build();
    let uploads: Vec<f64> = (0..leechers + seeds)
        .map(|i| 50.0 + 37.0 * (i as f64 + 1.0))
        .collect();
    Swarm::new(config, &uploads)
}

/// The unchoke structure of `swarm` after a round that rechoked against
/// `before`'s state (see `unchoke_structure`).
fn check_unchokes(swarm: &Swarm, before: &Swarm, fluid: bool) {
    let interested = |q: usize, p: usize| {
        if fluid {
            q != p && !before.peer(q).is_original_seed()
        } else {
            before
                .peer(q)
                .pieces()
                .is_interested_in(before.peer(p).pieces())
        }
    };
    for p in 0..swarm.peer_count() {
        let tft = swarm.tft_unchoked(p);
        prop_assert!(tft.len() <= swarm.config().tft_slots);
        if let Some(o) = swarm.optimistic_unchoked(p) {
            prop_assert!(!tft.contains(&o));
            prop_assert!(o != p);
            prop_assert!(swarm.neighbors(p).any(|v| v == o));
            prop_assert!(interested(o, p), "optimistic {} not interested in {}", o, p);
        }
        for &q in &tft {
            prop_assert!(q != p);
            prop_assert!(swarm.neighbors(p).any(|v| v == q));
        }
    }
    for (a, b) in metrics::reciprocal_tft_pairs(swarm) {
        prop_assert!(a < b);
        prop_assert!(swarm.tft_unchoked(a).contains(&b));
        prop_assert!(swarm.tft_unchoked(b).contains(&a));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Traffic is conserved and capacities respected for any configuration.
    #[test]
    fn conservation_and_capacity(
        (leechers, seeds, pieces, completion, fluid, seed) in swarm_params(),
        rounds in 1u64..20,
    ) {
        let mut swarm = build(leechers, seeds, pieces, completion, fluid, seed);
        let n = swarm.peer_count();
        swarm.run_rounds(rounds);
        let up: f64 = (0..n).map(|p| swarm.peer(p).total_uploaded()).sum();
        let down: f64 = (0..n).map(|p| swarm.peer(p).total_downloaded()).sum();
        prop_assert!((up - down).abs() < 1e-6 * up.max(1.0), "up {} vs down {}", up, down);
        // TFT sub-accounting is itself conserved and bounded by totals.
        let tft_up: f64 = (0..n).map(|p| swarm.peer(p).tft_uploaded()).sum();
        let tft_down: f64 = (0..n).map(|p| swarm.peer(p).tft_downloaded()).sum();
        prop_assert!((tft_up - tft_down).abs() < 1e-6 * up.max(1.0));
        prop_assert!(tft_up <= up + 1e-9);
        // Per-round capacity: total upload <= capacity * time.
        for p in 0..n {
            let cap = swarm.peer(p).upload_kbps()
                * swarm.config().round_seconds
                * rounds as f64;
            prop_assert!(swarm.peer(p).total_uploaded() <= cap + 1e-6);
        }
    }

    /// Piece holdings only grow, availability stays consistent, and seeds
    /// never download (piece mode).
    #[test]
    fn piece_invariants(
        (leechers, seeds, pieces, completion, _fluid, seed) in swarm_params(),
    ) {
        let mut swarm = build(leechers, seeds, pieces, completion, false, seed);
        let n = swarm.peer_count();
        let mut prev: Vec<usize> = (0..n).map(|p| swarm.peer(p).pieces().count()).collect();
        for _ in 0..10 {
            swarm.round();
            for p in 0..n {
                let now = swarm.peer(p).pieces().count();
                prop_assert!(now >= prev[p], "peer {} lost pieces", p);
                prev[p] = now;
            }
        }
        for i in 0..pieces {
            let holders =
                (0..n).filter(|&p| swarm.peer(p).pieces().contains(i)).count() as u32;
            prop_assert_eq!(holders, swarm.availability()[i], "piece {}", i);
        }
        for p in leechers..n {
            prop_assert_eq!(swarm.peer(p).total_downloaded(), 0.0);
        }
    }

    /// Unchoke structure: slot bounds hold, the optimistic pick is a
    /// neighbour outside the TFT set that was interested in its sender
    /// when the rechoke ran, and reciprocal pairs are mutual — every
    /// round, in both content modes, on the serial round, the indexed
    /// round and the event core (piece mode only).
    #[test]
    fn unchoke_structure(
        (leechers, seeds, pieces, completion, fluid, seed) in swarm_params(),
    ) {
        for engine in ["serial", "indexed", "event"] {
            if engine == "event" && fluid {
                continue;
            }
            let mut swarm = build(leechers, seeds, pieces, completion, fluid, seed);
            let timing = EventTiming::synchronous_limit(swarm.config().round_seconds);
            let mut event =
                (engine == "event").then(|| EventEngine::new(swarm.clone(), timing, None));
            for _ in 0..8 {
                // Every engine rechokes against the state the round starts
                // from (the event core's ticks fire after the previous
                // interval's transfers have landed).
                let before = event.as_ref().map_or(&swarm, EventEngine::swarm).clone();
                match (engine, event.as_mut()) {
                    ("serial", _) => swarm.round(),
                    ("indexed", _) => swarm.run_rounds_parallel(1, 2),
                    (_, Some(ev)) => ev.run_sync_rounds(1),
                    (_, None) => unreachable!("the event engine is built for \"event\""),
                }
                let swarm = event.as_ref().map_or(&swarm, EventEngine::swarm);
                check_unchokes(swarm, &before, fluid);
            }
        }
    }

    /// Determinism: identical configurations yield identical trajectories.
    #[test]
    fn determinism(
        (leechers, seeds, pieces, completion, fluid, seed) in swarm_params(),
    ) {
        let run = |rounds: u64| {
            let mut swarm = build(leechers, seeds, pieces, completion, fluid, seed);
            swarm.run_rounds(rounds);
            (0..swarm.peer_count())
                .map(|p| (swarm.peer(p).total_downloaded(), swarm.peer(p).pieces().count()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(6), run(6));
    }
}
