//! Differential and property tests for the open-membership session layer.
//!
//! * **Zero-churn bit-identity** — a [`Session`] whose arrival and
//!   departure processes are inert must be bit-identical to the closed
//!   engine: [`Swarm::run_rounds`] for the serial semantics and
//!   [`Swarm::run_rounds_parallel`] at 1, 2, 3 and 8 threads for the
//!   indexed semantics. The session consumes only its own
//!   `(seed, round, event)` streams, so this pins that the membership
//!   layer adds *nothing* to the closed rounds.
//! * **Join → immediate leave round-trips** — admitting peers, wiring
//!   them, and departing them again restores the overlay edge sets and
//!   piece availability exactly, with every structural invariant intact
//!   (proptests over random swarms and churn interleavings).

#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use strat_bittorrent::session::{ArrivalProcess, DepartureRules, Session, SessionConfig};
use strat_bittorrent::{EventEngine, EventTiming, PeerBehavior, PieceSet, Swarm, SwarmConfig};

/// Everything externally observable about one peer (exact equality).
type PeerState = (f64, f64, f64, f64, Option<u64>, Vec<usize>);

/// Everything externally observable about a swarm (exact equality).
fn full_state(swarm: &Swarm) -> (Vec<PeerState>, Vec<u32>) {
    let states = (0..swarm.peer_count())
        .map(|p| {
            let peer = swarm.peer(p);
            (
                peer.total_uploaded(),
                peer.total_downloaded(),
                peer.tft_uploaded(),
                peer.tft_downloaded(),
                peer.completed_round(),
                (0..swarm.config().piece_count)
                    .filter(|&i| peer.pieces().contains(i))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    (states, swarm.availability().to_vec())
}

fn build_swarm(leechers: usize, seeds: usize, seed: u64) -> Swarm {
    let n = leechers + seeds;
    let config = SwarmConfig::builder()
        .leechers(leechers)
        .seeds(seeds)
        .piece_count(48)
        .piece_size_kbit(180.0)
        .initial_completion(0.35)
        .mean_neighbors(9.0)
        .seed(seed)
        .build();
    let uploads: Vec<f64> = (0..n).map(|i| 120.0 + 31.0 * i as f64).collect();
    Swarm::new(config, &uploads)
}

/// Both membership engines wrap a swarm that already has a departed
/// slot: the session's tracker pool, the event core's, and the reuse
/// capacity of the free-listed slot all come from the arena's one
/// ledger, which stays consistent round after round of arrivals.
#[test]
fn engines_wrap_a_swarm_with_a_departed_slot() {
    let departed = || {
        let mut swarm = build_swarm(20, 2, 61);
        swarm.depart(3);
        swarm
    };
    let churn = SessionConfig {
        arrival: ArrivalProcess::Poisson { rate: 2.0 },
        arrival_upload_kbps: 320.0,
        target_degree: 6,
        session_seed: 0xdead,
        ..SessionConfig::default()
    };
    let mut session = Session::new(departed(), churn.clone());
    for _ in 0..10 {
        session.run_rounds_parallel(1, 2);
        session.swarm().validate_consistency();
    }
    assert!(
        session.swarm().is_present(3),
        "the departed slot was never reused"
    );
    let mut engine = EventEngine::new(departed(), EventTiming::synchronous_limit(1.0), Some(churn));
    for _ in 0..10 {
        engine.run_sync_rounds(1);
        engine.swarm().validate_consistency();
    }
    assert!(
        engine.swarm().is_present(3),
        "the departed slot was never reused"
    );
}

#[test]
fn zero_churn_session_matches_serial_engine() {
    for seed in [5u64, 77, 901] {
        let rounds = 18;
        let mut closed = build_swarm(21, 2, seed);
        closed.run_rounds(rounds);

        let mut session = Session::new(build_swarm(21, 2, seed), SessionConfig::default());
        session.run_rounds(rounds);

        assert_eq!(
            full_state(session.swarm()),
            full_state(&closed),
            "seed {seed}"
        );
        assert_eq!(session.stats().arrivals, 0);
        assert_eq!(session.stats().departures, 0);
        // Completion recording is observational only.
        assert_eq!(
            session.stats().completions as usize,
            closed.completed(),
            "seed {seed}"
        );
    }
}

#[test]
fn zero_churn_session_matches_parallel_engine_at_every_thread_count() {
    let rounds = 15;
    for threads in [1usize, 2, 3, 8] {
        let mut closed = build_swarm(23, 2, 42);
        closed.run_rounds_parallel(rounds, threads);

        let mut session = Session::new(build_swarm(23, 2, 42), SessionConfig::default());
        session.run_rounds_parallel(rounds, threads);

        assert_eq!(
            full_state(session.swarm()),
            full_state(&closed),
            "threads {threads}"
        );
    }
}

#[test]
fn zero_churn_parallel_session_matches_serial_indexed_oracle() {
    // The session's parallel path steps one round per call; the closed
    // engine batches. Both must agree with each other and across thread
    // counts (the strat-par contract, through the session layer).
    let baseline = {
        let mut session = Session::new(build_swarm(19, 2, 7), SessionConfig::default());
        session.run_rounds_parallel(12, 1);
        full_state(session.swarm())
    };
    for threads in [2usize, 3, 8] {
        let mut session = Session::new(build_swarm(19, 2, 7), SessionConfig::default());
        session.run_rounds_parallel(12, threads);
        assert_eq!(full_state(session.swarm()), baseline, "threads {threads}");
    }
}

/// Canonical edge-set view of the overlay: sorted `(min, max)` pairs.
fn edge_set(swarm: &Swarm) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for p in 0..swarm.peer_count() {
        if !swarm.is_present(p) {
            continue;
        }
        for q in swarm.neighbors(p) {
            if p < q {
                edges.push((p, q));
            }
        }
    }
    edges.sort_unstable();
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Join → immediate leave restores overlay and availability exactly.
    #[test]
    fn join_leave_roundtrip_restores_invariants(
        leechers in 6usize..24,
        seeds in 1usize..3,
        seed in any::<u64>(),
        warmup in 0u64..6,
        joins in 1usize..8,
        density_seed in any::<u64>(),
    ) {
        let mut swarm = build_swarm(leechers, seeds, seed);
        swarm.reserve_overlay_slack(6);
        swarm.run_rounds(warmup);
        let edges_before = edge_set(&swarm);
        let avail_before = swarm.availability().to_vec();
        let pop_before = swarm.population();

        // Admit `joins` peers (some with pieces), wire them, then depart
        // them all again.
        let mut slots = Vec::new();
        for j in 0..joins {
            let mut pieces = PieceSet::new(swarm.config().piece_count);
            let density =
                (density_seed.rotate_left(j as u32 * 7) % 1000) as f64 / 1000.0;
            for i in 0..swarm.config().piece_count {
                if (i as f64 * 0.618).fract() < density {
                    pieces.insert(i);
                }
            }
            let slot = swarm.arrive(250.0 + j as f64, PeerBehavior::Compliant, pieces);
            for q in 0..swarm.peer_count().min(5 + j) {
                let _ = swarm.connect_peers(slot, q);
            }
            swarm.check_invariants();
            slots.push(slot);
        }
        swarm.validate_consistency();
        for &slot in slots.iter().rev() {
            swarm.depart(slot);
            swarm.check_invariants();
        }
        swarm.validate_consistency();

        prop_assert_eq!(edge_set(&swarm), edges_before);
        prop_assert_eq!(swarm.availability(), &avail_before[..]);
        prop_assert_eq!(swarm.population(), pop_before);
    }

    /// Random churn interleavings keep every structural invariant intact
    /// and the engine simulable.
    #[test]
    fn churn_interleavings_preserve_invariants(
        leechers in 8usize..20,
        seed in any::<u64>(),
        rate in 0.5f64..4.0,
        seed_leave in 0.05f64..0.6,
        abort in 0.0f64..0.1,
        rounds in 3u64..14,
        parallel in any::<bool>(),
    ) {
        let swarm = build_swarm(leechers, 2, seed);
        let mut session = Session::new(
            swarm,
            SessionConfig {
                arrival: ArrivalProcess::Poisson { rate },
                departure: DepartureRules {
                    leave_on_completion: 0.5,
                    seed_leave_prob: seed_leave,
                    abort_prob: abort,
                    seed_exodus_round: Some(rounds / 2),
                },
                arrival_upload_kbps: 320.0,
                target_degree: 7,
                session_seed: seed ^ 0xc0de,
                ..SessionConfig::default()
            },
        );
        for _ in 0..rounds {
            if parallel {
                session.run_rounds_parallel(1, 3);
            } else {
                session.run_rounds(1);
            }
            // After every round's churn-event batch (debug builds only).
            session.swarm().check_invariants();
        }
        session.swarm().validate_consistency();
        // Conservation still holds over the present+departed bookkeeping:
        // every recorded completion has a consistent timeline.
        for &(arrived, completed) in &session.stats().completion_records {
            prop_assert!(completed >= arrived);
            prop_assert!(completed <= session.round_count());
        }
        prop_assert_eq!(
            session.population().total() as i64,
            (leechers + 2) as i64 + session.stats().arrivals as i64
                - session.stats().departures as i64
        );
    }
}
