//! Differential and property tests for the multi-swarm universe layer.
//!
//! * **1-torrent bit-identity** — a [`Universe`] over a single session
//!   with no capacity classes must be bit-identical to the plain
//!   [`Session`] under full churn, in the serial semantics and in the
//!   indexed parallel semantics at 1, 2 and 8 threads. The universe's
//!   claim/sync/rebalance passes either consume only universe streams
//!   (unused at `T = 1`) or write back bitwise-identical capacities, so
//!   this pins that the sharing layer adds *nothing* to a lone swarm.
//! * **Thread-budget independence** — `Some(t)` fans the sessions'
//!   membership and round passes out across torrents (up to `min(t, T)`
//!   at once, each round on `max(1, t / T)` threads). A 5-torrent
//!   universe must end in the same swarms, statistics and completion
//!   records at every budget from 1 to 16 — uneven worker queues and the
//!   inner-thread split included — and per-torrent observers attached to
//!   the fanned-out passes must change nothing and record what they
//!   record at one thread.
//! * **Capacity conservation** — at every rechoke boundary the sum of a
//!   member's per-torrent upload shares equals its capacity, for random
//!   torrent counts, membership widths and split policies (proptest).

use proptest::prelude::*;
use strat_bittorrent::session::{ArrivalProcess, DepartureRules, Session, SessionConfig};
use strat_bittorrent::universe::{
    derive_seed, CapacitySplit, MembershipModel, Universe, UniverseConfig, UniverseStats,
};
use strat_bittorrent::{NullObserver, Swarm, SwarmConfig, TraceLog, TraceObserver};

/// Everything externally observable about one peer (exact equality).
type PeerState = (bool, f64, f64, f64, f64, f64, Option<u64>, Vec<usize>);

/// Everything externally observable about a swarm (exact equality).
fn full_state(swarm: &Swarm) -> (Vec<PeerState>, Vec<u32>) {
    let states = (0..swarm.peer_count())
        .map(|p| {
            let peer = swarm.peer(p);
            (
                swarm.is_present(p),
                peer.upload_kbps(),
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
        .piece_count(40)
        .piece_size_kbit(160.0)
        .initial_completion(0.3)
        .mean_neighbors(8.0)
        .seed(seed)
        .build();
    let uploads: Vec<f64> = (0..n).map(|i| 140.0 + 23.0 * i as f64).collect();
    Swarm::new(config, &uploads)
}

fn churn_config(seed: u64) -> SessionConfig {
    SessionConfig {
        arrival: ArrivalProcess::Poisson { rate: 2.0 },
        departure: DepartureRules {
            leave_on_completion: 0.45,
            seed_leave_prob: 0.15,
            abort_prob: 0.03,
            seed_exodus_round: None,
        },
        arrival_upload_kbps: 310.0,
        arrival_completion: 0.2,
        target_degree: 7,
        session_seed: seed ^ 0xd1ff,
        ..SessionConfig::default()
    }
}

/// A 1-torrent universe with no capacity classes: the claim pass adopts
/// arrivals without drawing, the sync pass only reads, and the rebalance
/// pass writes each member's session-given capacity back verbatim.
#[test]
fn one_torrent_universe_is_bit_identical_to_session_serial() {
    for seed in [4u64, 68, 913] {
        let rounds = 16;
        let mut session = Session::new(build_swarm(18, 2, seed), churn_config(seed));
        session.run_rounds(rounds);

        let mut universe = Universe::new(
            vec![Session::new(build_swarm(18, 2, seed), churn_config(seed))],
            UniverseConfig::default(),
        );
        universe.run_rounds(rounds, None);

        assert_eq!(
            full_state(universe.session(0).swarm()),
            full_state(session.swarm()),
            "seed {seed}"
        );
        assert_eq!(
            universe.session(0).stats().arrivals,
            session.stats().arrivals,
            "seed {seed}"
        );
        assert_eq!(
            universe.session(0).stats().departures,
            session.stats().departures,
            "seed {seed}"
        );
        assert_eq!(
            universe.session(0).stats().completions,
            session.stats().completions,
            "seed {seed}"
        );
        assert!(session.stats().arrivals > 0, "seed {seed}: inert run");
        assert!(session.stats().departures > 0, "seed {seed}: inert run");
        universe.session(0).swarm().validate_consistency();
    }
}

/// The same bit-identity through the indexed parallel engine at 1, 2 and
/// 8 workers. `Fixed {{ extra }}` is included: at `T = 1` the extra count
/// caps to zero, so the membership model must be inert too.
#[test]
fn one_torrent_universe_is_bit_identical_to_session_parallel() {
    for threads in [1usize, 2, 8] {
        let rounds = 13;
        let mut session = Session::new(build_swarm(20, 2, 55), churn_config(55));
        session.run_rounds_parallel(rounds, threads);

        let mut universe = Universe::new(
            vec![Session::new(build_swarm(20, 2, 55), churn_config(55))],
            UniverseConfig {
                membership: MembershipModel::Fixed { extra: 3 },
                split: CapacitySplit::DemandWeighted,
                ..UniverseConfig::default()
            },
        );
        universe.run_rounds(rounds, Some(threads));

        assert_eq!(
            full_state(universe.session(0).swarm()),
            full_state(session.swarm()),
            "threads {threads}"
        );
        assert_eq!(
            universe.session(0).stats().departures,
            session.stats().departures,
            "threads {threads}"
        );
    }
}

/// A 5-torrent universe with two extra memberships per member, capacity
/// classes, demand-weighted splits and Zipf-like popularity.
fn five_torrent_universe(seed: u64) -> Universe {
    let sessions = (0..5u64)
        .map(|t| {
            Session::new(
                build_swarm(14 + 3 * t as usize, 2, derive_seed(seed, t)),
                SessionConfig {
                    session_seed: derive_seed(seed ^ 0x5e55, t),
                    ..churn_config(seed)
                },
            )
        })
        .collect();
    Universe::new(
        sessions,
        UniverseConfig {
            membership: MembershipModel::Fixed { extra: 2 },
            split: CapacitySplit::DemandWeighted,
            class_upload_kbps: vec![150.0, 400.0, 950.0],
            popularity: vec![1.0, 0.5, 0.33, 0.25, 0.2],
            universe_seed: seed ^ 0x0a11,
        },
    )
}

type UniverseState = (Vec<(Vec<PeerState>, Vec<u32>)>, UniverseStats);

/// Every session's full swarm state plus the universe statistics (which
/// carry the completion records).
fn universe_state(universe: &Universe) -> UniverseState {
    (
        universe
            .sessions()
            .iter()
            .map(|s| full_state(s.swarm()))
            .collect(),
        universe.stats().clone(),
    )
}

#[test]
fn multi_torrent_universe_is_identical_at_every_thread_budget() {
    let rounds = 18;
    let run = |threads: usize| {
        let mut universe = five_torrent_universe(29);
        universe.run_rounds(rounds, Some(threads));
        for session in universe.sessions() {
            session.swarm().validate_consistency();
        }
        universe_state(&universe)
    };
    let baseline = run(1);
    let stats = &baseline.1;
    assert!(
        stats.cross_joins > 0 && stats.member_departures > 0,
        "{stats:?}"
    );
    assert!(
        stats.replica_departures > 0 && stats.completions > 0,
        "{stats:?}"
    );
    // 2 and 3 workers over 5 torrents leave uneven queues; 8 caps the
    // workers at 5; 16 also splits every round across 3 inner threads.
    for threads in [2, 3, 8, 16] {
        assert_eq!(run(threads), baseline, "threads = {threads}");
    }
}

/// One recording observer per torrent. At `Some(1)` and at `Some(4)`
/// over 5 torrents every session round runs on a single thread, so each
/// torrent's log must match event for event, not just in aggregate.
#[test]
fn per_torrent_observers_under_fan_out_are_pure_taps() {
    let rounds = 14;
    let observed = |threads: usize| {
        let mut universe = five_torrent_universe(83);
        let obs: Vec<TraceObserver> = (0..5).map(|_| TraceObserver::new()).collect();
        universe.run_rounds_with(rounds, Some(threads), &obs);
        let logs: Vec<TraceLog> = obs.into_iter().map(TraceObserver::into_log).collect();
        (universe_state(&universe), logs)
    };
    let mut plain = five_torrent_universe(83);
    plain.run_rounds(rounds, Some(4));
    let (state, logs) = observed(4);
    assert_eq!(state, universe_state(&plain), "observers changed the run");
    for (t, log) in logs.iter().enumerate() {
        assert!(
            !log.unchokes.is_empty() && !log.transfers.is_empty() && !log.arrivals.is_empty(),
            "torrent {t} recorded nothing"
        );
    }
    assert!(
        observed(1) == (state, logs),
        "logs differ from the one-thread run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At every rechoke boundary, the sum of a member's per-torrent
    /// upload shares equals its capacity (conservation), every share is
    /// positive, and the swarms stay structurally sound.
    #[test]
    fn capacity_is_conserved_at_every_rechoke(
        torrents in 2usize..5,
        extra in 1usize..4,
        leechers in 6usize..14,
        rate in 0.5f64..2.5,
        seed in any::<u64>(),
        demand_weighted in any::<bool>(),
        classes in any::<bool>(),
        rounds in 4u64..12,
    ) {
        let sessions: Vec<Session> = (0..torrents as u64)
            .map(|t| {
                Session::new(
                    build_swarm(leechers, 2, derive_seed(seed, t)),
                    SessionConfig {
                        arrival: ArrivalProcess::Poisson { rate },
                        session_seed: derive_seed(seed ^ 0x5e55, t),
                        ..churn_config(seed)
                    },
                )
            })
            .collect();
        let mut universe = Universe::new(
            sessions,
            UniverseConfig {
                membership: MembershipModel::Fixed { extra },
                split: if demand_weighted {
                    CapacitySplit::DemandWeighted
                } else {
                    CapacitySplit::EqualShare
                },
                class_upload_kbps: if classes {
                    vec![150.0, 400.0, 950.0]
                } else {
                    Vec::new()
                },
                universe_seed: seed ^ 0x0a11,
                popularity: Vec::new(),
            },
        );
        let obs = vec![NullObserver; torrents];
        for round in 0..rounds {
            universe.step(None, &obs);
            for m in 0..universe.member_count() {
                if !universe.member_is_active(m) {
                    continue;
                }
                let capacity = universe.member_capacity(m);
                let mut total = 0.0;
                for (t, id) in universe.member_replicas(m) {
                    let slot = universe.session(t).resolve(id).expect(
                        "active replicas resolve between universe rounds",
                    );
                    let kbps = universe.session(t).swarm().peer(slot).upload_kbps();
                    prop_assert!(kbps > 0.0, "round {round} member {m}: share {kbps}");
                    total += kbps;
                }
                prop_assert!(
                    (total - capacity).abs() <= 1e-9 * capacity,
                    "round {round} member {m}: shares sum to {total}, capacity {capacity}"
                );
            }
        }
        prop_assert!(universe.stats().cross_joins > 0);
        for t in 0..torrents {
            universe.session(t).swarm().validate_consistency();
        }
    }
}
