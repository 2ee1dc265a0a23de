use super::*;
use crate::PieceSet;

fn uniform_uploads(n: usize, kbps: f64) -> Vec<f64> {
    vec![kbps; n]
}

fn small_config(leechers: usize, seeds: usize) -> SwarmConfig {
    SwarmConfig::builder()
        .leechers(leechers)
        .seeds(seeds)
        .piece_count(64)
        .piece_size_kbit(400.0)
        .seed(42)
        .build()
}

#[test]
fn construction_shapes() {
    let cfg = small_config(20, 2);
    let swarm = Swarm::new(cfg, &uniform_uploads(22, 500.0));
    assert_eq!(swarm.peer_count(), 22);
    // Seeds are the last indices and complete.
    assert!(swarm.peer(20).is_original_seed());
    assert!(swarm.peer(21).pieces().is_complete());
    assert!(!swarm.peer(0).is_original_seed());
    // Availability counts all holders.
    assert!(swarm.availability().iter().all(|&a| a >= 2));
    swarm.validate_consistency();
}

#[test]
fn reverse_edges_are_consistent() {
    let cfg = small_config(25, 1);
    let swarm = Swarm::new(cfg, &uniform_uploads(26, 500.0));
    for p in 0..26 {
        for e in swarm.row_off[p]..swarm.row_off[p] + swarm.deg[p] as usize {
            let q = swarm.nbr[e] as usize;
            let er = swarm.rev[e] as usize;
            assert!((swarm.row_off[q]..swarm.row_off[q] + swarm.deg[q] as usize).contains(&er));
            assert_eq!(swarm.nbr[er] as usize, p);
            assert_eq!(swarm.rev[er] as usize, e);
        }
    }
}

#[test]
fn conservation_of_traffic() {
    let cfg = small_config(25, 1);
    let mut swarm = Swarm::new(cfg, &uniform_uploads(26, 400.0));
    swarm.run_rounds(30);
    let up: f64 = (0..26).map(|p| swarm.peer(p).total_uploaded()).sum();
    let down: f64 = (0..26).map(|p| swarm.peer(p).total_downloaded()).sum();
    assert!(up > 0.0);
    assert!((up - down).abs() < 1e-6, "up {up} vs down {down}");
}

#[test]
fn pieces_only_increase_and_availability_consistent() {
    let cfg = small_config(15, 1);
    let mut swarm = Swarm::new(cfg, &uniform_uploads(16, 600.0));
    let mut prev: Vec<usize> = (0..16).map(|p| swarm.peer(p).pieces().count()).collect();
    for _ in 0..25 {
        swarm.round();
        for p in 0..16 {
            let now = swarm.peer(p).pieces().count();
            assert!(now >= prev[p], "peer {p} lost pieces");
            prev[p] = now;
        }
        // Recount availability from scratch.
        for i in 0..swarm.config().piece_count {
            let holders = (0..16)
                .filter(|&p| swarm.peer(p).pieces().contains(i))
                .count() as u32;
            assert_eq!(holders, swarm.availability()[i], "piece {i}");
        }
    }
}

#[test]
fn seeds_never_download() {
    let cfg = small_config(12, 2);
    let mut swarm = Swarm::new(cfg, &uniform_uploads(14, 500.0));
    swarm.run_rounds(20);
    for p in 12..14 {
        assert_eq!(swarm.peer(p).total_downloaded(), 0.0);
        assert!(swarm.peer(p).total_uploaded() > 0.0);
    }
}

#[test]
fn swarm_completes_with_enough_rounds() {
    let cfg = SwarmConfig::builder()
        .leechers(10)
        .seeds(1)
        .piece_count(32)
        .piece_size_kbit(100.0)
        .initial_completion(0.5)
        .seed(3)
        .build();
    let mut swarm = Swarm::new(cfg, &uniform_uploads(11, 1000.0));
    for _ in 0..400 {
        swarm.round();
        if swarm.completed() == 10 {
            break;
        }
    }
    assert_eq!(swarm.completed(), 10, "swarm failed to complete");
    // Completion rounds recorded and within the horizon.
    for p in 0..10 {
        assert!(swarm.peer(p).completed_round().is_some());
    }
    // The incrementally tracked population agrees: everyone seeds now.
    assert_eq!(swarm.population().downloading, 0);
    assert_eq!(swarm.population().seeding, 11);
    assert_eq!(swarm.completed(), 10);
}

#[test]
fn upload_capacity_respected_per_round() {
    let cfg = small_config(20, 1);
    let uploads = uniform_uploads(21, 300.0);
    let mut swarm = Swarm::new(cfg, &uploads);
    for _ in 0..10 {
        let before: Vec<f64> = (0..21).map(|p| swarm.peer(p).total_uploaded()).collect();
        swarm.round();
        for p in 0..21 {
            let sent = swarm.peer(p).total_uploaded() - before[p];
            let cap = uploads[p] * swarm.config().round_seconds;
            assert!(sent <= cap + 1e-9, "peer {p} sent {sent} above cap {cap}");
        }
    }
}

#[test]
fn unchoke_counts_bounded_by_slots() {
    let cfg = small_config(30, 1);
    let mut swarm = Swarm::new(cfg, &uniform_uploads(31, 500.0));
    for _ in 0..15 {
        swarm.round();
        for p in 0..31 {
            assert!(swarm.tft_unchoked(p).len() <= swarm.config().tft_slots);
            // Optimistic target is never also a TFT target.
            if let Some(o) = swarm.optimistic_unchoked(p) {
                assert!(!swarm.tft_unchoked(p).contains(&o));
            }
        }
    }
}

#[test]
fn determinism_for_fixed_seed() {
    let mk = || {
        let cfg = small_config(18, 1);
        let mut swarm = Swarm::new(cfg, &uniform_uploads(19, 450.0));
        swarm.run_rounds(12);
        (0..19)
            .map(|p| swarm.peer(p).total_downloaded())
            .collect::<Vec<_>>()
    };
    assert_eq!(mk(), mk());
}

#[test]
fn parallel_rounds_identical_for_any_thread_count() {
    // The strat-par determinism contract, at the engine level: the
    // indexed semantics must not depend on the worker count.
    for fluid in [false, true] {
        let mk = |threads: usize| {
            let mut cfg = small_config(23, 2);
            cfg.fluid_content = fluid;
            let uploads: Vec<f64> = (0..25).map(|i| 150.0 + 30.0 * i as f64).collect();
            let mut swarm = Swarm::new(cfg, &uploads);
            swarm.run_rounds_parallel(17, threads);
            let state: Vec<(f64, f64, f64, f64, usize)> = (0..25)
                .map(|p| {
                    (
                        swarm.peer(p).total_uploaded(),
                        swarm.peer(p).total_downloaded(),
                        swarm.peer(p).tft_uploaded(),
                        swarm.peer(p).tft_downloaded(),
                        swarm.peer(p).pieces().count(),
                    )
                })
                .collect();
            (state, swarm.availability().to_vec())
        };
        let baseline = mk(1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(
                mk(threads),
                baseline,
                "threads = {threads}, fluid = {fluid}"
            );
        }
    }
}

#[test]
fn parallel_rounds_conserve_traffic() {
    let cfg = small_config(20, 1);
    let mut swarm = Swarm::new(cfg, &uniform_uploads(21, 400.0));
    swarm.run_rounds_parallel(25, 4);
    let up: f64 = (0..21).map(|p| swarm.peer(p).total_uploaded()).sum();
    let down: f64 = (0..21).map(|p| swarm.peer(p).total_downloaded()).sum();
    assert!(up > 0.0);
    assert!((up - down).abs() < 1e-6, "up {up} vs down {down}");
    // Availability stays consistent with the piece sets.
    for i in 0..swarm.config().piece_count {
        let holders = (0..21)
            .filter(|&p| swarm.peer(p).pieces().contains(i))
            .count() as u32;
        assert_eq!(holders, swarm.availability()[i], "piece {i}");
    }
    swarm.validate_consistency();
}

#[test]
fn completed_leechers_keep_seeding_when_configured() {
    let cfg = SwarmConfig::builder()
        .leechers(8)
        .seeds(1)
        .piece_count(16)
        .piece_size_kbit(50.0)
        .initial_completion(0.8)
        .seed_after_completion(true)
        .seed(5)
        .build();
    let mut swarm = Swarm::new(cfg, &uniform_uploads(9, 2000.0));
    swarm.run_rounds(100);
    assert_eq!(swarm.completed(), 8);
    // Completed leechers continued to upload after completing.
    let up: f64 = (0..8).map(|p| swarm.peer(p).total_uploaded()).sum();
    assert!(up > 0.0);
}

#[test]
#[should_panic(expected = "one upload capacity per peer")]
fn wrong_capacity_count_panics() {
    let cfg = small_config(5, 1);
    let _ = Swarm::new(cfg, &uniform_uploads(3, 100.0));
}

#[test]
#[should_panic(expected = "one behavior per peer")]
fn wrong_behavior_count_panics() {
    let cfg = small_config(5, 1);
    let _ = Swarm::with_behaviors(
        cfg,
        &uniform_uploads(6, 100.0),
        &[PeerBehavior::Compliant; 2],
    );
}

#[test]
fn all_compliant_behaviors_match_default_constructor() {
    let mk = |explicit: bool| {
        let cfg = small_config(18, 1);
        let uploads = uniform_uploads(19, 450.0);
        let mut swarm = if explicit {
            Swarm::with_behaviors(cfg, &uploads, &[PeerBehavior::Compliant; 19])
        } else {
            Swarm::new(cfg, &uploads)
        };
        swarm.run_rounds(12);
        (0..19)
            .map(|p| swarm.peer(p).total_downloaded())
            .collect::<Vec<_>>()
    };
    assert_eq!(mk(true), mk(false));
}

#[test]
fn free_riders_upload_nothing_but_still_download() {
    let mut cfg = small_config(20, 2);
    cfg.fluid_content = true;
    // Heterogeneous capacities so TFT ranks carry signal; free riders
    // occupy the last leecher indices (the scenario layer's convention).
    let uploads: Vec<f64> = (0..22).map(|i| 300.0 + 40.0 * i as f64).collect();
    let mut behaviors = vec![PeerBehavior::Compliant; 22];
    behaviors[18] = PeerBehavior::FreeRider;
    behaviors[19] = PeerBehavior::FreeRider;
    let mut swarm = Swarm::with_behaviors(cfg, &uploads, &behaviors);
    swarm.run_rounds(40);
    for p in [18, 19] {
        assert_eq!(
            swarm.peer(p).total_uploaded(),
            0.0,
            "free rider {p} uploaded"
        );
        // Optimistic slots still feed them.
        assert!(swarm.peer(p).total_downloaded() > 0.0);
        assert!(swarm.tft_unchoked(p).is_empty());
        assert!(swarm.optimistic_unchoked(p).is_none());
    }
    // Free riders live off the optimistic economy alone: they download
    // strictly less than the median compliant leecher.
    let mut compliant: Vec<f64> = (0..18).map(|p| swarm.peer(p).total_downloaded()).collect();
    compliant.sort_by(f64::total_cmp);
    let median = compliant[compliant.len() / 2];
    for p in [18, 19] {
        assert!(
            swarm.peer(p).total_downloaded() < median,
            "free rider {p} outperformed the median compliant peer"
        );
    }
}

#[test]
fn altruists_upload_without_reciprocation_signal() {
    let mut cfg = small_config(20, 1);
    cfg.fluid_content = true;
    let mut behaviors = vec![PeerBehavior::Compliant; 21];
    behaviors[3] = PeerBehavior::Altruistic;
    let mut swarm = Swarm::with_behaviors(cfg, &uniform_uploads(21, 500.0), &behaviors);
    swarm.run_rounds(30);
    assert_eq!(swarm.peer(3).behavior(), PeerBehavior::Altruistic);
    // Altruists keep uploading and (being leechers) keep downloading.
    assert!(swarm.peer(3).total_uploaded() > 0.0);
    assert!(swarm.peer(3).total_downloaded() > 0.0);
}

#[test]
fn slack_preserves_rounds_bit_for_bit() {
    // Re-laying out the arena with spare row capacity must not change
    // behaviour: identical seeds and rounds, identical state.
    let run = |slack: usize| {
        let cfg = small_config(20, 2);
        let uploads: Vec<f64> = (0..22).map(|i| 150.0 + 25.0 * i as f64).collect();
        let mut swarm = Swarm::new(cfg, &uploads);
        swarm.reserve_overlay_slack(slack);
        swarm.run_rounds(15);
        (0..22)
            .map(|p| {
                (
                    swarm.peer(p).total_downloaded(),
                    swarm.peer(p).pieces().count(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(0), run(7));
}

#[test]
fn slack_preserves_parallel_rounds_bit_for_bit() {
    let run = |slack: usize| {
        let cfg = small_config(19, 2);
        let uploads: Vec<f64> = (0..21).map(|i| 150.0 + 25.0 * i as f64).collect();
        let mut swarm = Swarm::new(cfg, &uploads);
        swarm.reserve_overlay_slack(slack);
        swarm.run_rounds_parallel(9, 3);
        swarm.run_rounds_parallel(6, 3);
        (0..21)
            .map(|p| {
                (
                    swarm.peer(p).total_downloaded(),
                    swarm.peer(p).pieces().count(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(0), run(5));
}

#[test]
fn depart_then_arrive_reuses_slot_and_keeps_invariants() {
    let cfg = small_config(14, 2);
    let mut swarm = Swarm::new(cfg, &uniform_uploads(16, 500.0));
    swarm.reserve_overlay_slack(6);
    swarm.run_rounds(4);
    let before_pop = swarm.population();
    let departed_complete = swarm.peer(5).pieces().is_complete();
    swarm.depart(5);
    assert!(!swarm.is_present(5));
    assert_eq!(swarm.degree(5), 0);
    swarm.validate_consistency();
    let mid_pop = swarm.population();
    assert_eq!(mid_pop.total() + 1, before_pop.total());
    let _ = departed_complete;

    // The freed slot is reused by the next arrival.
    let slot = swarm.arrive(700.0, PeerBehavior::Compliant, PieceSet::new(64));
    assert_eq!(slot, 5);
    assert!(swarm.is_present(5));
    assert_eq!(swarm.peer(5).upload_kbps(), 700.0);
    assert_eq!(swarm.peer(5).total_downloaded(), 0.0);
    // Wire it to a few present peers and keep simulating.
    for q in [0usize, 1, 2] {
        assert!(swarm.connect_peers(slot, q));
    }
    assert_eq!(swarm.degree(slot), 3);
    swarm.validate_consistency();
    swarm.run_rounds(6);
    swarm.validate_consistency();
    assert!(swarm.peer(slot).total_downloaded() > 0.0);
}

#[test]
fn depart_drops_stale_unchoke_state_of_survivors() {
    // TFT sets store local row positions; a swap-removing departure
    // invalidates them, so the survivors' unchoke state must be
    // cleared rather than left pointing at reshuffled slots.
    let cfg = small_config(16, 2);
    let mut swarm = Swarm::new(cfg, &uniform_uploads(18, 500.0));
    swarm.reserve_overlay_slack(4);
    swarm.run_rounds(6); // populate TFT sets and optimistic slots
    let victim = 3;
    let neighbors: Vec<PeerId> = swarm.neighbors(victim).collect();
    swarm.depart(victim);
    for &q in &neighbors {
        assert!(swarm.tft_unchoked(q).is_empty(), "stale TFT set on {q}");
        assert!(swarm.optimistic_unchoked(q).is_none());
    }
    // Every remaining unchoke reference across the swarm is a live
    // neighbor.
    for p in 0..swarm.peer_count() {
        if !swarm.is_present(p) {
            continue;
        }
        let nbrs: Vec<PeerId> = swarm.neighbors(p).collect();
        for t in swarm.tft_unchoked(p) {
            assert!(nbrs.contains(&t), "peer {p} TFT-unchokes non-neighbor {t}");
        }
    }
    swarm.run_rounds(4); // and the engine keeps simulating cleanly
    swarm.validate_consistency();
}

#[test]
fn arrival_growth_appends_fresh_slots() {
    let cfg = small_config(6, 1);
    let mut swarm = Swarm::new(cfg, &uniform_uploads(7, 500.0));
    swarm.reserve_overlay_slack(4);
    let n0 = swarm.peer_count();
    let p = swarm.arrive(333.0, PeerBehavior::Compliant, PieceSet::new(64));
    assert_eq!(p, n0);
    assert_eq!(swarm.peer_count(), n0 + 1);
    assert!(swarm.row_capacity(p) >= 4);
    assert!(swarm.connect_peers(p, 0));
    swarm.validate_consistency();
    // A complete arrival is an original seed and counts as seeding.
    let seeds_before = swarm.population().seeding;
    let s = swarm.arrive(900.0, PeerBehavior::Compliant, PieceSet::full(64));
    assert!(swarm.peer(s).is_original_seed());
    assert_eq!(swarm.population().seeding, seeds_before + 1);
    swarm.validate_consistency();
}

#[test]
fn connect_rejects_duplicates_and_full_rows() {
    let cfg = small_config(6, 1);
    let mut swarm = Swarm::new(cfg, &uniform_uploads(7, 500.0));
    // No slack: every initial row is exactly full.
    let p = 0;
    if swarm.degree(p) > 0 {
        let q = swarm.neighbors(p).next().unwrap();
        assert!(!swarm.connect_peers(p, q), "duplicate edge accepted");
    }
    assert!(!swarm.connect_peers(p, p), "self edge accepted");
}

#[test]
#[should_panic(expected = "is not present")]
fn double_depart_panics() {
    let cfg = small_config(6, 1);
    let mut swarm = Swarm::new(cfg, &uniform_uploads(7, 500.0));
    swarm.depart(2);
    swarm.depart(2);
}
