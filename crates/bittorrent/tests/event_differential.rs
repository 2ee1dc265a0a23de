//! Property tests for the continuous-time event core.
//!
//! * **Synchronous limit** — with homogeneous timing
//!   ([`EventTiming::synchronous_limit`]) the event engine must reproduce
//!   the indexed-stream round engine exactly: per-peer transfer totals
//!   and piece holdings bit-for-bit, and a completion record stream whose
//!   order and per-round counts match the round engine's
//!   `completed_round` stamps, for arbitrary swarm geometry.
//! * **Tie-heavy determinism** — when the rechoke interval, transfer
//!   quantum and announce interval are commensurate (so large batches of
//!   events share exact timestamps) the queue's total order
//!   `(time, kind, a, b, seq)` must still yield one reproducible
//!   history: two identically-seeded engines agree event for event.
//! * **Continuous regime** — a churned three-class engine with exact
//!   (unquantized) crossings, the regime `btevent` runs in, reproduces
//!   pinned counters, completion records and per-peer totals, and never
//!   dispatches a transfer that does not fire.

#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use strat_bittorrent::session::{ArrivalProcess, DepartureRules, SessionConfig};
use strat_bittorrent::{EventEngine, EventTiming, Swarm, SwarmConfig};

fn build(leechers: usize, seeds: usize, pieces: usize, completion: f64, seed: u64) -> Swarm {
    let config = SwarmConfig::builder()
        .leechers(leechers)
        .seeds(seeds)
        .piece_count(pieces)
        .piece_size_kbit(160.0)
        .initial_completion(completion)
        .mean_neighbors(8.0)
        .seed(seed)
        .build();
    let uploads: Vec<f64> = (0..leechers + seeds)
        .map(|i| 90.0 + 41.0 * i as f64)
        .collect();
    Swarm::new(config, &uploads)
}

/// One peer's exact observable state: transfer-total bit patterns,
/// completion stamp, and held piece indices.
type PeerBits = (u64, u64, u64, u64, Option<u64>, Vec<usize>);

/// Exact observable state of a (possibly churned) swarm plus engine
/// accounting, for bitwise run-to-run comparison.
fn engine_fingerprint(engine: &EventEngine) -> Vec<PeerBits> {
    let swarm = engine.swarm();
    (0..swarm.peer_count())
        .map(|p| {
            let peer = swarm.peer(p);
            (
                peer.total_uploaded().to_bits(),
                peer.total_downloaded().to_bits(),
                peer.tft_uploaded().to_bits(),
                peer.tft_downloaded().to_bits(),
                peer.completed_round(),
                (0..swarm.config().piece_count)
                    .filter(|&i| peer.pieces().contains(i))
                    .collect(),
            )
        })
        .collect()
}

/// The event core under a tracker peer-list cap: churn plus periodic
/// announces keep wiring through capped requests, and the arena stays
/// consistent throughout.
#[test]
fn capped_tracker_engine_keeps_arena_invariants() {
    let timing = EventTiming {
        rechoke_interval: 10.0,
        transfer_quantum: None,
        announce_interval: Some(20.0),
        speed_multipliers: vec![1.0, 2.0],
    };
    let churn = SessionConfig {
        arrival: ArrivalProcess::Poisson { rate: 1.5 },
        departure: DepartureRules {
            leave_on_completion: 0.6,
            seed_leave_prob: 0.2,
            seed_exodus_round: None,
            abort_prob: 0.02,
        },
        target_degree: 8,
        peer_list_cap: Some(3),
        ..SessionConfig::default()
    };
    let mut engine = EventEngine::new(build(30, 2, 48, 0.35, 17), timing, Some(churn));
    for _ in 0..8 {
        engine.run_for(50.0);
        engine.swarm().check_invariants();
    }
    let stats = engine.stats();
    assert!(stats.arrivals > 0 && stats.departures > 0 && stats.announces > 0);
    assert!(stats.transfers > 0);
}

/// FNV-1a over the little-endian bytes of `x`.
fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The continuous regime pinned: Poisson churn with completion leaves,
/// seed lingering and aborts, periodic announces and three speed
/// classes, with every crossing at its exact continuous time. The pins
/// were captured from the engine that queued a fresh transfer event per
/// re-plan and dropped the stale one at fire time; the indexed transfer
/// queue must reproduce them exactly.
#[test]
fn continuous_churned_engine_matches_pinned_history() {
    let timing = EventTiming {
        rechoke_interval: 10.0,
        transfer_quantum: None,
        announce_interval: Some(30.0),
        speed_multipliers: vec![0.5, 1.0, 2.0],
    };
    let churn = SessionConfig {
        arrival: ArrivalProcess::Poisson { rate: 2.5 },
        departure: DepartureRules {
            leave_on_completion: 0.3,
            seed_leave_prob: 0.1,
            seed_exodus_round: None,
            abort_prob: 0.01,
        },
        target_degree: 8,
        session_seed: 0xc0de,
        ..SessionConfig::default()
    };
    let mut engine = EventEngine::new(build(30, 2, 48, 0.35, 29), timing, Some(churn));
    engine.run_for(800.0);
    engine.swarm().check_invariants();

    let s = *engine.stats();
    assert_eq!(
        (
            s.arrivals,
            s.departures,
            s.transfers,
            s.rechokes,
            s.announces
        ),
        (197, 209, 11_185, 1_770, 478),
        "per-kind counters"
    );
    // Every transfer dispatch fires, so the dispatches beyond the fired
    // transfers are exactly the departure, arrival, rechoke and announce
    // events the queue popped (stale-generation timers included).
    assert_eq!(s.events - s.transfers, 3_145, "non-transfer dispatches");

    let mut h = 0xcbf2_9ce4_8422_2325;
    for r in engine.completions() {
        fnv(&mut h, u64::from(r.slot));
        fnv(&mut h, u64::from(r.class));
        fnv(&mut h, r.arrival_time.to_bits());
        fnv(&mut h, r.completion_time.to_bits());
        fnv(&mut h, r.completion_round);
    }
    assert_eq!(
        (engine.completions().len(), h),
        (219, 0xb7cd_3578_3858_f0ea),
        "completion records"
    );

    let swarm = engine.swarm();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for p in 0..swarm.peer_count() {
        let peer = swarm.peer(p);
        for x in [
            peer.total_uploaded(),
            peer.total_downloaded(),
            peer.tft_uploaded(),
            peer.tft_downloaded(),
        ] {
            fnv(&mut h, x.to_bits());
        }
    }
    assert_eq!(
        (swarm.peer_count(), engine.present_count(), h),
        (37, 20, 0x7710_be5c_ea0e_7696),
        "per-peer transfer totals"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Homogeneous timing reproduces the indexed round engine exactly,
    /// and the completion record stream is consistent with it: ordered
    /// by round, one record per peer that completes during the run,
    /// stamped with the same round the oracle stamps.
    #[test]
    fn sync_limit_matches_round_indexed(
        leechers in 6usize..36,
        seeds in 1usize..3,
        pieces in 8usize..48,
        completion in 0.0f64..0.8,
        seed in any::<u64>(),
        rounds in 2u64..16,
    ) {
        let init_complete: Vec<bool> = {
            let fresh = build(leechers, seeds, pieces, completion, seed);
            (0..fresh.peer_count())
                .map(|p| fresh.peer(p).pieces().count() == pieces)
                .collect()
        };
        let mut oracle = build(leechers, seeds, pieces, completion, seed);
        let rs = oracle.config().round_seconds;
        let mut engine = EventEngine::new(
            build(leechers, seeds, pieces, completion, seed),
            EventTiming::synchronous_limit(rs),
            None,
        );
        oracle.run_rounds_parallel(rounds, 3);
        engine.run_sync_rounds(rounds);

        let ev = engine.swarm();
        for p in 0..oracle.peer_count() {
            let (a, b) = (oracle.peer(p), ev.peer(p));
            prop_assert_eq!(
                a.completed_round(), b.completed_round(),
                "completion stamp diverged at peer {}", p
            );
            prop_assert_eq!(
                a.total_downloaded().to_bits(), b.total_downloaded().to_bits(),
                "download total diverged at peer {}", p
            );
            prop_assert_eq!(
                a.total_uploaded().to_bits(), b.total_uploaded().to_bits(),
                "upload total diverged at peer {}", p
            );
            for i in 0..pieces {
                prop_assert_eq!(a.pieces().contains(i), b.pieces().contains(i));
            }
        }
        prop_assert_eq!(oracle.availability(), ev.availability());

        // Completion records: one per peer that completed during the
        // run, in non-decreasing round/time order, each stamped with
        // the oracle's round.
        let mut recorded: Vec<u32> = Vec::new();
        let mut prev = (0.0f64, 0u64);
        for rec in engine.completions() {
            prop_assert!(
                (rec.completion_time, rec.completion_round) >= prev,
                "records out of order: {:?} after {:?}",
                (rec.completion_time, rec.completion_round), prev
            );
            prev = (rec.completion_time, rec.completion_round);
            prop_assert_eq!(rec.arrival_time, 0.0, "closed swarm: everyone arrives at t=0");
            prop_assert_eq!(
                oracle.peer(rec.slot as usize).completed_round(),
                Some(rec.completion_round),
                "record round disagrees with oracle stamp for slot {}", rec.slot
            );
            recorded.push(rec.slot);
        }
        let mut expected: Vec<u32> = (0..oracle.peer_count())
            .filter(|&p| !init_complete[p] && oracle.peer(p).completed_round().is_some())
            .map(|p| p as u32)
            .collect();
        recorded.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(recorded, expected, "record slots != oracle completions");
    }

    /// Commensurate intervals put rechokes, transfer quanta, announces
    /// and churn on shared exact timestamps; the queue's deterministic
    /// tie-break must make the whole history reproducible anyway.
    #[test]
    fn tie_heavy_timestamps_are_deterministic(
        leechers in 8usize..28,
        seeds in 1usize..3,
        pieces in 12usize..40,
        completion in 0.1f64..0.6,
        seed in any::<u64>(),
        quantum_idx in 0usize..4,
        announce_mult in 1u32..4,
        mult_idx in 0usize..4,
        rate in 0.3f64..1.5,
    ) {
        // Divisors of the rechoke interval whose quotients are exact in
        // binary, so quantum multiples land exactly on rechoke ticks.
        let quantum_div = [1u32, 2, 4, 5][quantum_idx];
        let multipliers: Vec<f64> = match mult_idx {
            0 => vec![1.0],
            1 => vec![1.0, 1.0],
            2 => vec![0.5, 1.0, 2.0],
            _ => vec![1.0, 2.0],
        };
        let timing = EventTiming {
            rechoke_interval: 10.0,
            transfer_quantum: Some(10.0 / f64::from(quantum_div)),
            announce_interval: Some(10.0 * f64::from(announce_mult)),
            speed_multipliers: multipliers,
        };
        let churn = SessionConfig {
            arrival: ArrivalProcess::Poisson { rate },
            departure: DepartureRules {
                leave_on_completion: 0.3,
                seed_leave_prob: 0.1,
                seed_exodus_round: None,
                abort_prob: 0.02,
            },
            arrival_upload_kbps: 256.0,
            arrival_completion: 0.25,
            target_degree: 7,
            session_seed: seed ^ 0xaa,
            peer_list_cap: None,
            compact_threshold: None,
        };
        let run = || {
            let mut engine = EventEngine::new(
                build(leechers, seeds, pieces, completion, seed),
                timing.clone(),
                Some(churn.clone()),
            );
            // Chunk boundaries on rechoke ticks: the horizon itself is
            // tie-heavy, exercising the boundary flush three times.
            for _ in 0..3 {
                engine.run_for(110.0);
            }
            engine.swarm().check_invariants();
            (
                *engine.stats(),
                engine.completions().to_vec(),
                engine.present_count(),
                engine.clock_seconds().to_bits(),
                engine_fingerprint(&engine),
            )
        };
        let (s1, c1, n1, t1, f1) = run();
        let (s2, c2, n2, t2, f2) = run();
        prop_assert_eq!(s1, s2, "event counters diverged");
        prop_assert_eq!(n1, n2, "present population diverged");
        prop_assert_eq!(t1, t2, "clock diverged");
        prop_assert_eq!(c1.len(), c2.len(), "completion counts diverged");
        for (a, b) in c1.iter().zip(&c2) {
            prop_assert_eq!(a, b, "completion records diverged");
        }
        prop_assert_eq!(f1, f2, "swarm state diverged");
        // Ties genuinely occur: with quantum = interval / k there are at
        // least as many transfer dispatches as rechokes.
        prop_assert!(s1.transfers + s1.rechokes > 0, "degenerate run");
    }
}
