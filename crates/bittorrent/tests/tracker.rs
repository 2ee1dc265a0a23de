//! Tracker requests, driven through their public caller
//! [`Session::join_with`]: a join draws its pieces and makes exactly one
//! tracker request from the caller's stream, so every wiring property of
//! the shared tracker module shows on the joined peer's row.
//!
//! * a request never wires a peer to itself and never adds a duplicate
//!   edge;
//! * it stops at the target degree (and, uncapped, reaches it when
//!   candidates are plentiful);
//! * under a peer-list cap `c` it adds at most `min(c, target)` edges;
//! * while a partition is active it offers no cross-half candidate.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use strat_bittorrent::session::{Session, SessionConfig};
use strat_bittorrent::{FaultPlan, FaultWindow, NullObserver, PeerId, Swarm, SwarmConfig};

/// A 40-peer session with join slack, wiring `target` neighbours per
/// request under `cap`.
fn session(seed: u64, target: usize, cap: Option<usize>, faults: FaultPlan) -> Session {
    let config = SwarmConfig::builder()
        .leechers(38)
        .seeds(2)
        .piece_count(16)
        .mean_neighbors(4.0)
        .seed(seed)
        .build();
    let mut session = Session::with_faults(
        Swarm::new(config, &[300.0; 40]),
        SessionConfig {
            target_degree: target,
            peer_list_cap: cap,
            ..SessionConfig::default()
        },
        faults,
    );
    session.reserve_join_slack();
    session
}

/// Joins one empty peer and returns its slot.
fn join(session: &mut Session, seed: u64) -> PeerId {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let id = session.join_with(300.0, 0.0, &mut rng, &NullObserver);
    session.resolve(id).expect("the joined peer is present")
}

/// One join per `(seed, cap, target)`; `check` sees the session, the
/// joined slot, the cap and the target.
fn each_join(mut check: impl FnMut(&Session, PeerId, Option<usize>, usize)) {
    for seed in 0..12u64 {
        for cap in [None, Some(1), Some(3), Some(8), Some(100)] {
            for target in [1usize, 5, 12] {
                let mut session = session(seed, target, cap, FaultPlan::none());
                let slot = join(&mut session, seed);
                session.swarm().validate_consistency();
                check(&session, slot, cap, target);
            }
        }
    }
}

#[test]
fn a_request_never_wires_a_peer_to_itself() {
    each_join(|session, slot, _, _| {
        assert!(session.swarm().neighbors(slot).all(|q| q != slot));
    });
}

#[test]
fn a_request_never_adds_a_duplicate_edge() {
    each_join(|session, slot, _, _| {
        let mut nbrs: Vec<PeerId> = session.swarm().neighbors(slot).collect();
        nbrs.sort_unstable();
        nbrs.dedup();
        assert_eq!(nbrs.len(), session.swarm().degree(slot));
    });
}

#[test]
fn a_request_stops_at_target() {
    each_join(|session, slot, cap, target| {
        let degree = session.swarm().degree(slot);
        assert!(degree <= target, "degree {degree} past target {target}");
        if cap.is_none() {
            // 40 candidates and a budget of 12·target + 24 draws fill
            // every one of these targets.
            assert_eq!(degree, target);
        }
    });
}

#[test]
fn a_capped_request_adds_at_most_min_cap_target() {
    each_join(|session, slot, cap, target| {
        if let Some(cap) = cap {
            let degree = session.swarm().degree(slot);
            assert!(
                degree <= cap.min(target),
                "cap {cap} target {target}: {degree} edges"
            );
        }
    });
}

#[test]
fn a_partitioned_request_offers_no_cross_half_candidate() {
    let partition = FaultPlan {
        partitions: vec![FaultWindow {
            start: 0,
            rounds: 4,
        }],
        ..FaultPlan::none()
    };
    for seed in 0..12u64 {
        for cap in [None, Some(6)] {
            let mut session = session(seed, 10, cap, partition.clone());
            let slot = join(&mut session, seed);
            assert!(session.swarm().degree(slot) > 0);
            assert!(session
                .swarm()
                .neighbors(slot)
                .all(|q| !FaultPlan::cross_partition(slot, q)));
        }
    }
}
