//! Differential and property tests for the fault plane.
//!
//! * **Zero-fault bit-identity** — a [`Session`] carrying
//!   [`FaultPlan::none`] must be bit-identical to one built without a
//!   plan, under real churn, serially and at 1/2/8 threads (the PR 5
//!   golden-freeze guarantee: inert plans consume zero randomness).
//! * **Crash surgery** — at the arena level a crash is a
//!   [`Swarm::depart`]: join → crash round-trips restore overlay,
//!   availability and population exactly, and a mid-transfer crash
//!   leaves no dangling credit/rate slots (checked by the slack-slot
//!   invariants of [`Swarm::validate_consistency`]).
//! * **Loss determinism** — transfer-loss schedules derive from
//!   `(fault_seed, round, recipient edge slot)`, so faulted sessions are
//!   bit-identical at any thread count and conserve
//!   `uploaded = downloaded + lost`.
//! * **Outage/backoff and partition/heal** — deferred announces all
//!   admit after the outage; partitions cut the overlay into two
//!   components and repair re-bridges them after the heal.

#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use strat_bittorrent::overlay;
use strat_bittorrent::session::{ArrivalProcess, DepartureRules, Session, SessionConfig};
use strat_bittorrent::{FaultPlan, FaultWindow, PeerBehavior, PieceSet, Swarm, SwarmConfig};

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

fn churn_config(seed: u64) -> SessionConfig {
    SessionConfig {
        arrival: ArrivalProcess::Poisson { rate: 1.5 },
        departure: DepartureRules {
            leave_on_completion: 0.4,
            seed_leave_prob: 0.25,
            abort_prob: 0.01,
            seed_exodus_round: None,
        },
        arrival_upload_kbps: 320.0,
        target_degree: 8,
        session_seed: seed ^ 0xc0de,
        ..SessionConfig::default()
    }
}

#[test]
fn zero_fault_plan_is_bit_identical_under_churn() {
    for seed in [3u64, 88] {
        let rounds = 16;
        let mut plain = Session::new(build_swarm(18, 2, seed), churn_config(seed));
        plain.run_rounds(rounds);
        let mut faulted = Session::with_faults(
            build_swarm(18, 2, seed),
            churn_config(seed),
            FaultPlan::none(),
        );
        faulted.run_rounds(rounds);
        assert_eq!(
            full_state(faulted.swarm()),
            full_state(plain.swarm()),
            "serial, seed {seed}"
        );
        assert_eq!(faulted.stats(), plain.stats(), "serial stats, seed {seed}");

        for threads in [1usize, 2, 8] {
            let mut plain = Session::new(build_swarm(18, 2, seed), churn_config(seed));
            plain.run_rounds_parallel(rounds, threads);
            let mut faulted = Session::with_faults(
                build_swarm(18, 2, seed),
                churn_config(seed),
                FaultPlan::none(),
            );
            faulted.run_rounds_parallel(rounds, threads);
            assert_eq!(
                full_state(faulted.swarm()),
                full_state(plain.swarm()),
                "threads {threads}, seed {seed}"
            );
        }
    }
}

#[test]
fn mid_transfer_crash_leaves_no_dangling_credit_or_rate() {
    // Large pieces: after a few rounds every live edge carries partial
    // credit and rate state — exactly what a crash must not leak.
    let config = SwarmConfig::builder()
        .leechers(14)
        .seeds(2)
        .piece_count(24)
        .piece_size_kbit(5000.0)
        .initial_completion(0.3)
        .mean_neighbors(6.0)
        .seed(77)
        .build();
    let mut swarm = Swarm::new(config, &[400.0; 16]);
    swarm.reserve_overlay_slack(4);
    swarm.run_rounds(5);
    for victim in [0usize, 3, 9] {
        swarm.depart(victim);
        // The slack-slot checks inside prove no stale credit/rate slot
        // survives anywhere in the arena.
        swarm.validate_consistency();
    }
    // The swarm stays simulable and consistent after more rounds.
    swarm.run_rounds(5);
    swarm.validate_consistency();
}

#[test]
fn faulted_sessions_are_thread_count_independent() {
    let plan = FaultPlan {
        crash_prob: 0.02,
        loss_prob: 0.15,
        outages: vec![FaultWindow {
            start: 2,
            rounds: 3,
        }],
        partitions: vec![FaultWindow {
            start: 6,
            rounds: 4,
        }],
        fault_seed: 99,
    };
    let run = |threads: usize| {
        let mut session =
            Session::with_faults(build_swarm(20, 2, 13), churn_config(13), plan.clone());
        session.run_rounds_parallel(18, threads);
        (
            full_state(session.swarm()),
            session.stats().clone(),
            session.swarm().lost_deliveries(),
            session.swarm().lost_kbit(),
        )
    };
    let baseline = run(1);
    assert!(baseline.2 > 0, "loss plan actually drops deliveries");
    assert!(baseline.1.crashes > 0, "crash plan actually crashes peers");
    for threads in [2usize, 8] {
        assert_eq!(run(threads), baseline, "threads {threads}");
    }
}

#[test]
fn transfer_loss_conserves_upload_as_download_plus_lost() {
    let plan = FaultPlan {
        loss_prob: 0.25,
        fault_seed: 5,
        ..FaultPlan::none()
    };
    // Closed population (inert churn) so cumulative totals survive:
    // reused slots would reset the per-peer counters.
    let mut session = Session::with_faults(build_swarm(18, 2, 55), SessionConfig::default(), plan);
    session.run_rounds(12);
    let swarm = session.swarm();
    let up: f64 = (0..swarm.peer_count())
        .map(|p| swarm.peer(p).total_uploaded())
        .sum();
    let down: f64 = (0..swarm.peer_count())
        .map(|p| swarm.peer(p).total_downloaded())
        .sum();
    let lost = swarm.lost_kbit();
    assert!(swarm.lost_deliveries() > 0);
    assert!(lost > 0.0);
    assert!(
        (up - down - lost).abs() < 1e-6 * up.max(1.0),
        "conservation: up {up} != down {down} + lost {lost}"
    );
}

#[test]
fn outage_defers_announces_and_backoff_admits_them_all() {
    let plan = FaultPlan {
        outages: vec![FaultWindow {
            start: 0,
            rounds: 4,
        }],
        fault_seed: 17,
        ..FaultPlan::none()
    };
    let config = SessionConfig {
        arrival: ArrivalProcess::Trace {
            arrivals: vec![(1, 6)],
        },
        arrival_upload_kbps: 320.0,
        target_degree: 6,
        session_seed: 23,
        ..SessionConfig::default()
    };
    let mut session = Session::with_faults(build_swarm(12, 2, 23), config, plan);
    session.run_rounds(3);
    assert_eq!(
        session.stats().deferred_announces,
        6,
        "burst hit the outage"
    );
    assert_eq!(session.stats().arrivals, 0, "nobody admitted while down");
    assert!(session.pending_announces() > 0);
    session.run_rounds(60);
    assert_eq!(
        session.stats().arrivals,
        6,
        "every deferred announce admitted"
    );
    assert_eq!(session.pending_announces(), 0, "queue drained");
    assert!(
        session.stats().announce_retries >= 6,
        "admissions count as retries"
    );
    // Admitted peers got wired.
    let wired = (0..session.swarm().peer_count())
        .filter(|&p| session.swarm().is_present(p) && session.swarm().degree(p) > 0)
        .count();
    assert!(wired >= 14, "arrivals joined the overlay (wired = {wired})");
    session.swarm().check_invariants();
}

#[test]
fn partition_cuts_the_overlay_and_heals_to_full_connectivity() {
    let plan = FaultPlan {
        partitions: vec![FaultWindow {
            start: 3,
            rounds: 5,
        }],
        fault_seed: 41,
        ..FaultPlan::none()
    };
    let config = SessionConfig {
        target_degree: 8,
        session_seed: 7,
        ..SessionConfig::default()
    };
    // Inert churn, active faults: the partition machinery alone drives
    // membership-free overlay surgery.
    let mut session = Session::with_faults(build_swarm(20, 2, 19), config, plan);
    session.run_rounds(4); // rounds 0..=3 → the cut at round 3 happened
    let during = overlay::snapshot(session.swarm());
    assert!(during.components >= 2, "partition splits the overlay");
    // No cross-parity edge survives the cut (repair is half-restricted).
    for (p, q) in edge_set(session.swarm()) {
        assert!(
            !FaultPlan::cross_partition(p, q),
            "cross-partition edge {p}–{q} survived"
        );
    }
    session.swarm().check_invariants();

    // Window [3, 8) heals at round 8; give repair a few rounds.
    let mut recovery = None;
    for _ in 0..12 {
        session.run_rounds(1);
        if session.round_count() >= 8 && overlay::fully_connected(session.swarm()) {
            recovery = Some(session.round_count() - 8);
            break;
        }
    }
    let recovery = recovery.expect("overlay recovers after the heal");
    assert!(recovery <= 4, "recovery took {recovery} rounds");
    assert!(
        session.stats().repaired_edges > 0,
        "repair actually rewired"
    );
    session.swarm().check_invariants();
}

#[test]
fn fully_connected_agrees_with_snapshot_under_crashes_and_partitions() {
    let plan = FaultPlan {
        crash_prob: 0.05,
        partitions: vec![FaultWindow {
            start: 4,
            rounds: 5,
        }],
        fault_seed: 23,
        ..FaultPlan::none()
    };
    let mut session = Session::with_faults(build_swarm(30, 2, 29), churn_config(29), plan);
    let (mut split, mut whole) = (0, 0);
    for _ in 0..24 {
        session.run_rounds(1);
        let snap = overlay::snapshot(session.swarm());
        let expected = snap.largest_component == snap.present;
        assert_eq!(
            overlay::fully_connected(session.swarm()),
            expected,
            "round {}",
            session.round_count()
        );
        if expected {
            whole += 1;
        } else {
            split += 1;
        }
    }
    assert!(session.stats().crashes > 0, "crash pass fired");
    assert!(
        split > 0 && whole > 0,
        "both outcomes exercised ({split} split, {whole} whole)"
    );
}

/// Runs six crash + repair rounds of a capped session with no arrivals
/// or departures, and returns the most edges any one peer's own repair
/// request added. A new edge between `p` and a peer still at target
/// degree after the crash pass can only come from `p`'s request: that
/// peer makes none, since repair only ever raises degrees.
fn widest_repair_request(cap: Option<usize>) -> usize {
    let target = 8;
    let plan = FaultPlan {
        crash_prob: 0.3,
        fault_seed: 5,
        ..FaultPlan::none()
    };
    let config = SessionConfig {
        target_degree: target,
        peer_list_cap: cap,
        ..SessionConfig::default()
    };
    let mut session = Session::with_faults(build_swarm(80, 4, 21), config, plan);
    let n = session.swarm().peer_count();
    let mut widest = 0;
    for _ in 0..6 {
        let before: Vec<Vec<usize>> = (0..n)
            .map(|p| session.swarm().neighbors(p).collect())
            .collect();
        session.run_rounds(1);
        let swarm = session.swarm();
        // Crashes are the only departures, so a neighbour still present
        // survived the crash pass.
        let settled: Vec<bool> = (0..n)
            .map(|q| {
                swarm.is_present(q)
                    && before[q].iter().filter(|&&v| swarm.is_present(v)).count() >= target
            })
            .collect();
        for p in (0..n).filter(|&p| swarm.is_present(p)) {
            let own = swarm
                .neighbors(p)
                .filter(|&q| settled[q] && !before[p].contains(&q))
                .count();
            widest = widest.max(own);
        }
        swarm.check_invariants();
    }
    assert!(session.stats().crashes > 0 && session.stats().repaired_edges > 0);
    widest
}

/// A repair is a tracker request, so the peer-list cap bounds it: no
/// peer's repair request adds more than `min(cap, target)` edges.
#[test]
fn repair_requests_honour_the_peer_list_cap() {
    let cap = 2;
    let widest = widest_repair_request(Some(cap));
    assert!(
        widest <= cap,
        "a capped repair request added {widest} edges"
    );
    // The uncapped twin refills some peer by more than the cap, so the
    // bound above is the cap's doing.
    assert!(widest_repair_request(None) > cap);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Join → crash round-trips restore overlay, availability and
    /// population exactly (the crash-vs-graceful contract at the arena
    /// level), with every invariant checked after each fault event.
    #[test]
    fn join_crash_roundtrip_restores_state(
        leechers in 6usize..20,
        seed in any::<u64>(),
        warmup in 0u64..5,
        joins in 1usize..6,
        density_seed in any::<u64>(),
    ) {
        let mut swarm = build_swarm(leechers, 2, seed);
        swarm.reserve_overlay_slack(6);
        swarm.run_rounds(warmup);
        let edges_before = edge_set(&swarm);
        let avail_before = swarm.availability().to_vec();
        let pop_before = swarm.population();

        let mut slots = Vec::new();
        for j in 0..joins {
            let mut pieces = PieceSet::new(swarm.config().piece_count);
            let density = (density_seed.rotate_left(j as u32 * 7) % 1000) as f64 / 1000.0;
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
        for &slot in slots.iter().rev() {
            swarm.depart(slot);
            swarm.check_invariants();
        }
        swarm.validate_consistency();

        prop_assert_eq!(edge_set(&swarm), edges_before);
        prop_assert_eq!(swarm.availability(), &avail_before[..]);
        prop_assert_eq!(swarm.population(), pop_before);
    }

    /// Random fault plans over churned sessions keep every structural
    /// invariant intact, round after round, and the population ledger
    /// balances (crashes are departures too).
    #[test]
    fn faulted_churn_interleavings_preserve_invariants(
        leechers in 8usize..18,
        seed in any::<u64>(),
        rate in 0.5f64..3.0,
        crash in 0.0f64..0.12,
        loss in 0.0f64..0.4,
        outage_start in 0u64..6,
        outage_len in 1u64..5,
        partition_start in 0u64..8,
        partition_len in 1u64..5,
        rounds in 4u64..14,
        parallel in any::<bool>(),
    ) {
        let plan = FaultPlan {
            crash_prob: crash,
            loss_prob: loss,
            outages: vec![FaultWindow { start: outage_start, rounds: outage_len }],
            partitions: vec![FaultWindow { start: partition_start, rounds: partition_len }],
            fault_seed: seed ^ 0xfa17,
        };
        let mut session = Session::with_faults(
            build_swarm(leechers, 2, seed),
            SessionConfig {
                arrival: ArrivalProcess::Poisson { rate },
                departure: DepartureRules {
                    leave_on_completion: 0.5,
                    seed_leave_prob: 0.2,
                    abort_prob: 0.02,
                    seed_exodus_round: None,
                },
                arrival_upload_kbps: 320.0,
                target_degree: 7,
                session_seed: seed ^ 0xc0de,
                ..SessionConfig::default()
            },
            plan,
        );
        for _ in 0..rounds {
            if parallel {
                session.run_rounds_parallel(1, 3);
            } else {
                session.run_rounds(1);
            }
            // After every churn + fault event batch of the round.
            session.swarm().check_invariants();
        }
        session.swarm().validate_consistency();
        let stats = session.stats();
        prop_assert!(stats.crashes <= stats.departures);
        prop_assert_eq!(
            session.population().total() as i64,
            (leechers + 2) as i64 + stats.arrivals as i64 - stats.departures as i64
        );
        // Deferred announces either became retries still pending or
        // admissions; the queue never leaks.
        prop_assert!(session.pending_announces() as u64 <= stats.deferred_announces);
    }
}
