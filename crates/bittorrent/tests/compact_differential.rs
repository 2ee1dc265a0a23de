//! Differential tests for arena compaction
//! ([`Swarm::compact`] / [`SessionConfig::compact_threshold`]).
//!
//! Compaction renames arena slots but preserves every peer's
//! **indexed-stream identity** (`Swarm::stream_of`), so under the
//! indexed round semantics a compacting session must stay bit-identical
//! to its never-compacting twin: same peers (keyed by stream), same
//! transfer totals, same pieces, same overlay (mapped through streams),
//! same stats — at any thread count. These suites pin that equivalence
//! over deterministic churn plans, crash-fault plans, and random
//! interleavings, plus the handle-invalidation contract.
//!
//! Scope of the equivalence (documented on `compact_threshold`): no
//! slot-parity partitions and no transfer loss (both draw randomness
//! keyed by slot/edge position, which compaction renames), and the
//! indexed semantics only (the serial engine draws from one shared
//! stream in slot order).

use proptest::prelude::*;
use strat_bittorrent::faults::FaultPlan;
use strat_bittorrent::session::{ArrivalProcess, DepartureRules, Session, SessionConfig};
use strat_bittorrent::{Swarm, SwarmConfig};

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

fn churny_config(session_seed: u64, compact_threshold: Option<f64>) -> SessionConfig {
    SessionConfig {
        arrival: ArrivalProcess::Poisson { rate: 2.0 },
        departure: DepartureRules {
            leave_on_completion: 0.6,
            seed_leave_prob: 0.3,
            seed_exodus_round: None,
            abort_prob: 0.08,
        },
        arrival_upload_kbps: 320.0,
        arrival_completion: 0.1,
        target_degree: 7,
        session_seed,
        peer_list_cap: None,
        compact_threshold,
    }
}

/// Everything observable about one present peer, keyed by its stream
/// identity — transfer totals, completion, pieces, and the overlay row
/// mapped through stream ids (compaction preserves edge order).
type StreamState = (u64, f64, f64, f64, f64, Option<u64>, Vec<usize>, Vec<u64>);

/// The swarm's observable state as a stream-keyed sorted list, the view
/// both twins must agree on exactly.
fn stream_state(swarm: &Swarm) -> Vec<StreamState> {
    let mut rows: Vec<StreamState> = (0..swarm.peer_count())
        .filter(|&p| swarm.is_present(p))
        .map(|p| {
            let peer = swarm.peer(p);
            (
                swarm.stream_of(p) as u64,
                peer.total_uploaded(),
                peer.total_downloaded(),
                peer.tft_uploaded(),
                peer.tft_downloaded(),
                peer.completed_round(),
                (0..swarm.config().piece_count)
                    .filter(|&i| peer.pieces().contains(i))
                    .collect::<Vec<_>>(),
                swarm
                    .neighbors(p)
                    .map(|q| swarm.stream_of(q) as u64)
                    .collect::<Vec<u64>>(),
            )
        })
        .collect();
    rows.sort_unstable_by_key(|r| r.0);
    rows
}

fn assert_twins_match(compacting: &Session, reference: &Session, ctx: &str) {
    assert_eq!(
        stream_state(compacting.swarm()),
        stream_state(reference.swarm()),
        "{ctx}: stream-keyed state"
    );
    assert_eq!(
        compacting.swarm().availability(),
        reference.swarm().availability(),
        "{ctx}: availability"
    );
    assert_eq!(
        compacting.swarm().population(),
        reference.swarm().population(),
        "{ctx}: population"
    );
    assert_eq!(compacting.stats(), reference.stats(), "{ctx}: stats");
    assert!(
        (compacting.swarm().lost_kbit() - reference.swarm().lost_kbit()).abs() == 0.0,
        "{ctx}: lost kbit"
    );
}

/// The tentpole equivalence: a compacting session's indexed rounds are
/// bit-identical to the never-compacting twin's, round by round, at
/// every thread count — while compactions actually fire.
#[test]
fn compacting_session_matches_uncompacted_twin() {
    for threads in [1usize, 2, 3, 8] {
        for seed in [11u64, 406, 9001] {
            let mut compacting = Session::new(
                build_swarm(22, 2, seed),
                churny_config(seed ^ 0xacc0, Some(0.2)),
            );
            let mut reference =
                Session::new(build_swarm(22, 2, seed), churny_config(seed ^ 0xacc0, None));
            for round in 0..30u64 {
                compacting.run_rounds_parallel(1, threads);
                reference.run_rounds_parallel(1, threads);
                compacting.swarm().check_invariants();
                assert_twins_match(
                    &compacting,
                    &reference,
                    &format!("threads {threads} seed {seed} round {round}"),
                );
            }
            compacting.swarm().validate_consistency();
            assert!(
                compacting.compactions() > 0,
                "threads {threads} seed {seed}: compaction never fired (vacuous twin test)"
            );
            assert_eq!(reference.compactions(), 0);
            assert!(
                compacting.swarm().peer_count() < reference.swarm().peer_count(),
                "threads {threads} seed {seed}: compaction did not shrink the arena"
            );
        }
    }
}

/// Crash faults with overlay repair stay twin-equal too: the crash pass
/// iterates in stream order and the repair pass draws positions into the
/// dense present list, both of which compaction preserves.
#[test]
fn compacting_session_matches_twin_under_crash_faults() {
    let plan = FaultPlan {
        crash_prob: 0.02,
        ..FaultPlan::none()
    };
    for seed in [7u64, 5150] {
        let mut compacting = Session::with_faults(
            build_swarm(24, 2, seed),
            churny_config(seed ^ 0xfa11, Some(0.25)),
            plan.clone(),
        );
        let mut reference = Session::with_faults(
            build_swarm(24, 2, seed),
            churny_config(seed ^ 0xfa11, None),
            plan.clone(),
        );
        for round in 0..26u64 {
            compacting.run_rounds_parallel(1, 3);
            reference.run_rounds_parallel(1, 3);
            compacting.swarm().check_invariants();
            assert_twins_match(
                &compacting,
                &reference,
                &format!("seed {seed} round {round}"),
            );
        }
        assert!(
            compacting.compactions() > 0,
            "seed {seed}: compaction never fired under the crash plan"
        );
        assert!(
            compacting.stats().crashes > 0,
            "seed {seed}: crash plan never crashed anyone"
        );
        compacting.swarm().validate_consistency();
    }
}

/// Compaction invalidates every outstanding handle: a pre-compaction
/// `SessionPeerId` must never resolve afterwards, even when its slot
/// number is occupied again.
#[test]
fn compaction_invalidates_outstanding_handles() {
    let mut session = Session::new(build_swarm(20, 2, 77), churny_config(0x1d5, Some(0.2)));
    session.run_rounds_parallel(2, 2);
    let handles: Vec<_> = (0..session.swarm().peer_count())
        .filter(|&p| session.swarm().is_present(p))
        .map(|p| session.id_of(p))
        .collect();
    let before = session.compactions();
    session.run_rounds_parallel(28, 2);
    assert!(
        session.compactions() > before,
        "compaction never fired; the invalidation check is vacuous"
    );
    for handle in handles {
        assert_eq!(
            session.resolve(handle),
            None,
            "stale pre-compaction handle resolved: {handle:?}"
        );
    }
    // Fresh handles issued after the compaction still work.
    let p = (0..session.swarm().peer_count())
        .find(|&p| session.swarm().is_present(p))
        .expect("somebody is present");
    assert_eq!(session.resolve(session.id_of(p)), Some(p));
}

/// A standalone `Swarm::compact` is the identity on a fully live arena
/// and drops exactly the dead slots otherwise, preserving invariants and
/// the loss total.
#[test]
fn standalone_compact_drops_dead_slots_and_preserves_invariants() {
    let mut swarm = build_swarm(18, 2, 31);
    swarm.reserve_overlay_slack(4);
    swarm.run_rounds_parallel(3, 2);
    // Identity case first.
    let map = swarm.compact();
    assert_eq!(map, (0..20u32).collect::<Vec<u32>>());
    assert_eq!(swarm.peer_count(), 20);
    for p in [2usize, 5, 11, 12, 19] {
        swarm.depart(p);
    }
    let lost_before = swarm.lost_kbit();
    let pop_before = swarm.population();
    let avail_before = swarm.availability().to_vec();
    let map = swarm.compact();
    assert_eq!(swarm.peer_count(), 15);
    assert_eq!(swarm.dead_slots(), 0);
    for (old, &new) in map.iter().enumerate() {
        if [2usize, 5, 11, 12, 19].contains(&old) {
            assert_eq!(new, u32::MAX, "dead slot {old} survived");
        } else {
            assert_eq!(
                swarm.stream_of(new as usize),
                old,
                "stream of old slot {old}"
            );
        }
    }
    assert_eq!(swarm.population(), pop_before);
    assert_eq!(swarm.availability(), &avail_before[..]);
    assert!((swarm.lost_kbit() - lost_before).abs() == 0.0);
    swarm.validate_consistency();
    // The compacted swarm still simulates.
    swarm.run_rounds_parallel(2, 3);
    swarm.validate_consistency();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random churn interleavings: compact-mid-churn is observationally
    /// the no-compact run, at every thread count, with invariants intact
    /// after every round.
    #[test]
    fn compact_mid_churn_matches_no_compact(
        leechers in 10usize..24,
        seed in any::<u64>(),
        rate in 0.5f64..3.5,
        leave in 0.2f64..0.9,
        abort in 0.0f64..0.12,
        threshold in 0.05f64..0.5,
        rounds in 6u64..22,
        threads in 1usize..9,
    ) {
        let mk = |threshold: Option<f64>| {
            Session::new(
                build_swarm(leechers, 2, seed),
                SessionConfig {
                    arrival: ArrivalProcess::Poisson { rate },
                    departure: DepartureRules {
                        leave_on_completion: leave,
                        seed_leave_prob: 0.25,
                        seed_exodus_round: None,
                        abort_prob: abort,
                    },
                    arrival_upload_kbps: 300.0,
                    arrival_completion: 0.15,
                    target_degree: 7,
                    session_seed: seed ^ 0xd1ff,
                    peer_list_cap: None,
                    compact_threshold: threshold,
                },
            )
        };
        let mut compacting = mk(Some(threshold));
        let mut reference = mk(None);
        for _ in 0..rounds {
            compacting.run_rounds_parallel(1, threads);
            reference.run_rounds_parallel(1, threads);
            compacting.swarm().check_invariants();
            prop_assert_eq!(
                stream_state(compacting.swarm()),
                stream_state(reference.swarm())
            );
            prop_assert_eq!(compacting.stats(), reference.stats());
        }
        compacting.swarm().validate_consistency();
        prop_assert_eq!(
            compacting.swarm().availability(),
            reference.swarm().availability()
        );
    }
}
