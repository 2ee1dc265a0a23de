//! Shared benchmark suite for the stratification workspace.
//!
//! The hot-path groups live here (not in `benches/`) so that both the
//! `cargo bench` harness (`benches/core_algorithms.rs`) and the
//! `BENCH_core.json` exporter (`src/bin/export.rs`) measure **exactly the
//! same kernels**.
//!
//! Speedups are measured, not claimed. Each optimized engine that keeps a
//! seed-faithful reference twin (`strat_core::reference`,
//! `strat_bittorrent::reference`, or the path it replaced) is timed
//! against it in one interleaved `bench_pair` inside the optimized
//! engine's own group, reference as side A and optimized as side B; the
//! exporter's speedup is the median of that pair's per-sample
//! reference/optimized time ratios. One naming rule holds for every pair
//! (`speedup_pair`): the optimized side is the row `<group>/<bench>` and
//! the reference side the row `<group>/<bench>/reference`. Each pair's
//! doc names the differential test that pins its two sides to equal work.
//!
//! Criterion targets under `benches/`:
//!
//! * `core_algorithms` — the groups below plus the analytic solvers, graph
//!   generation and swarm rounds;
//! * `experiments` — one benchmark per paper table/figure (quick profile),
//!   asserting the shape checks still pass;
//! * `ablations` — the DESIGN.md design-decision comparisons (streaming vs
//!   dense Algorithm 2, complete-graph specialization, mate-set structure,
//!   rank-sorted best-mate search).

#![warn(clippy::all)]

use std::time::Duration;

use criterion::{black_box, BenchmarkGroup, BenchmarkId, Criterion};
use rand::{Rng as _, SeedableRng};
use rand_chacha::ChaCha8Rng;
use strat_analytic::monte_carlo::{self, MonteCarloConfig};
use strat_bittorrent::session::{ArrivalProcess, DepartureRules, Session, SessionConfig};
use strat_bittorrent::{
    overlay, reference::RefSwarm, CapacitySplit, EventEngine, EventTiming, FaultPlan,
    MembershipModel, NullObserver, PeerBehavior, PieceSet, Swarm, SwarmConfig, Universe,
    UniverseConfig,
};
use strat_core::prefs::LatencyPrefs;
use strat_core::{
    reference, stable_configuration, stable_configuration_complete, Capacities, Dynamics,
    GlobalRanking, InitiativeStrategy, PrefAcceptance, RankedAcceptance,
};
use strat_graph::{generators, Graph, NodeId};
use strat_scenario::{Scenario, ScenarioKeys, TopologyModel};
use strat_sim::experiments::btchurn;
use strat_sim::runner::ExperimentContext;

/// Standard declarative instance: `G(n, d)` acceptance graph, identity
/// ranking, constant 1-matching (the scenario layer is the only builder
/// the bench harness uses).
#[must_use]
pub fn er_scenario(n: usize, d: f64, seed: u64) -> Scenario {
    Scenario::new("bench", n)
        .with_seed(seed)
        .with_topology(TopologyModel::ErdosRenyiMeanDegree { d })
}

/// Standard instance: `G(n, d)` acceptance graph, identity ranking.
#[must_use]
pub fn er_acceptance(n: usize, d: f64, seed: u64) -> RankedAcceptance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    er_scenario(n, d, seed)
        .build_acceptance(&mut rng)
        .expect("valid scenario")
}

/// Measures `reference` against `optimized` as one interleaved pair:
/// side A is the row `<bench>/reference`, side B the row `<bench>`.
fn speedup_pair<OA, OB>(
    group: &mut BenchmarkGroup<'_>,
    bench: impl Into<String>,
    reference: impl FnMut() -> OA,
    optimized: impl FnMut() -> OB,
) {
    let bench = bench.into();
    group.bench_pair(format!("{bench}/reference"), reference, bench, optimized);
}

/// `stable_configuration` on `G(n, 20)` with `b = 3` at n ∈ {1k, 10k, 100k},
/// each paired with seed-faithful Algorithm 1 (`strat_core::reference`;
/// same matching by `crates/core/tests/differential.rs`
/// `stable_configuration_matches_reference`), plus the complete-graph
/// specialization at {10k, 100k}.
pub fn bench_stable_configuration(c: &mut Criterion) {
    let mut group = c.benchmark_group("stable_configuration");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    for &n in &[1000usize, 10_000, 100_000] {
        let acc = er_acceptance(n, 20.0, 1);
        let ref_acc = reference::RefAcceptance::from_optimized(&acc);
        let caps = Capacities::constant(n, 3);
        speedup_pair(
            &mut group,
            format!("erdos_renyi_d20_b3/{n}"),
            || reference::stable_configuration(black_box(&ref_acc), black_box(&caps)),
            || stable_configuration(black_box(&acc), black_box(&caps)).unwrap(),
        );
    }
    for &n in &[10_000usize, 100_000] {
        let ranking = GlobalRanking::identity(n);
        let caps = Capacities::constant(n, 4);
        group.bench_with_input(BenchmarkId::new("complete_b4", n), &n, |b, _| {
            b.iter(|| {
                stable_configuration_complete(black_box(&ranking), black_box(&caps)).unwrap()
            });
        });
    }
    group.finish();
}

/// Steady-state initiative cost per base unit, n = 1000, d = 10, b = 1:
/// the three scan strategies, each paired with the seed-faithful process
/// (`strat_core::reference::RefDynamics`) on the same acceptance graph
/// and random stream, plus the disorder metric. Both sides of a pair run
/// the same outcome stream (`crates/core/tests/differential.rs`
/// `dynamics_outcome_stream_matches_reference`) and advance in lockstep.
pub fn bench_dynamics(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamics");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    for strategy in [
        InitiativeStrategy::BestMate,
        InitiativeStrategy::Decremental,
        InitiativeStrategy::Random,
    ] {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut dynamics = er_scenario(1000, 10.0, 2)
            .with_strategy(strategy)
            .build_dynamics(&mut rng)
            .expect("valid scenario");
        let ScenarioKeys::Ranked(acc) = dynamics.keys() else {
            unreachable!("a global-ranking scenario")
        };
        let mut slow = reference::RefDynamics::new(
            reference::RefAcceptance::from_optimized(acc),
            dynamics.capacities().clone(),
            strategy,
        );
        let mut slow_rng = rng.clone();
        speedup_pair(
            &mut group,
            format!("{strategy:?}_base_unit_n1000_d10"),
            || black_box(slow.run_base_unit(&mut slow_rng)),
            || black_box(dynamics.run_base_unit(&mut rng)),
        );
    }
    group.bench_function("disorder_n1000_d10", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut dynamics = er_scenario(1000, 10.0, 3)
            .build_dynamics(&mut rng)
            .expect("valid scenario");
        for _ in 0..5 {
            dynamics.run_base_unit(&mut rng);
        }
        b.iter(|| black_box(dynamics.disorder()));
    });
    group.finish();
}

/// The shared generalized-preference instance: `G(n, 20)` acceptance
/// graph, uniform latency embedding in `[0, 1000)`, `b = 3`.
fn latency_instance(n: usize, seed: u64) -> (Graph, LatencyPrefs, Capacities) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = generators::erdos_renyi_mean_degree(n, 20.0, &mut rng);
    let positions: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1000.0)).collect();
    (
        graph,
        LatencyPrefs::new(positions),
        Capacities::constant(n, 3),
    )
}

/// Generalized-preference dynamics on the dirty-set engine, latency
/// instances, each paired with the retained full-scan reference
/// (`strat_core::reference`), which re-scans every neighborhood with live
/// preference comparisons, converged or not (same mate sets and sweep
/// counts by `crates/core/tests/prefs_differential.rs`
/// `latency_systems_agree`):
///
/// * `converge_*` — [`PrefAcceptance::build`] plus [`Dynamics::settle`]
///   from `C∅` to stability (key-table construction is seeded by cached
///   scalar sort keys instead of indirect preference comparisons; early
///   sweeps are all-dirty, so the memo only trims the tail);
/// * `settled_sweep_*` — one round-robin sweep of a **converged** system
///   (the steady-state regime continuing dynamics live in): every peer is
///   provably clean and the sweep degenerates to n flag reads.
pub fn bench_prefs(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefs");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    for &n in &[500usize, 2000] {
        let (graph, prefs, caps) = latency_instance(n, 0x9e1);
        speedup_pair(
            &mut group,
            format!("converge_latency_d20_b3/{n}"),
            || black_box(reference::best_mate_dynamics(&graph, &prefs, &caps)),
            || {
                let keys = PrefAcceptance::build(&graph, &prefs);
                let mut dynamics =
                    Dynamics::new(keys, caps.clone(), InitiativeStrategy::BestMate).expect("sizes");
                black_box(dynamics.settle())
            },
        );
    }
    let n = 2000usize;
    let (graph, prefs, caps) = latency_instance(n, 0x9e1);
    let keys = PrefAcceptance::build(&graph, &prefs);
    let mut dynamics =
        Dynamics::new(keys, caps.clone(), InitiativeStrategy::BestMate).expect("sizes");
    dynamics.settle().expect("latency systems are cycle-free");
    let reference::RefPrefOutcome::Stable {
        at: mut matching, ..
    } = reference::best_mate_dynamics(&graph, &prefs, &caps)
    else {
        panic!("latency systems are cycle-free")
    };
    speedup_pair(
        &mut group,
        format!("settled_sweep_latency_d20_b3/{n}"),
        || reference::best_mate_sweep(&graph, &prefs, &caps, &mut matching),
        || {
            (0..n)
                .filter(|&p| dynamics.best_mate_initiative(NodeId::new(p)).is_active())
                .count()
        },
    );
    group.finish();
}

/// The shared swarm-round instance: `n` leechers + 2 seeds on a `d = 20`
/// overlay with a bandwidth ramp, in fluid or piece mode.
fn swarm_inputs(leechers: usize, fluid: bool, seed: u64) -> (SwarmConfig, Vec<f64>) {
    let config = SwarmConfig::builder()
        .leechers(leechers)
        .seeds(2)
        .piece_count(256)
        .piece_size_kbit(1200.0)
        .initial_completion(0.35)
        .mean_neighbors(20.0)
        .fluid_content(fluid)
        .seed(seed)
        .build();
    let uploads: Vec<f64> = (0..leechers + 2).map(|i| 100.0 + i as f64).collect();
    (config, uploads)
}

/// Rounds measured per iteration of the piece-mode benches: each
/// iteration clones the pristine swarm and runs this fixed pre-completion
/// window, so the measured regime is the active transfer path (candidate
/// filtering, rarest-first conversion) rather than the degenerate
/// post-completion rounds an ever-advancing swarm decays into.
const PIECE_WINDOW: u64 = 8;

/// The serial swarm round at n = 500 leechers: the fluid steady state
/// (rechoke + rate transfer, the bt1 regime) and a fixed pre-completion
/// window in piece mode, each paired with the retained reference engine
/// ([`RefSwarm`], same clone-per-iteration window; bit-identical by
/// `crates/bittorrent/tests/differential.rs`
/// `serial_round_bit_identical_to_reference`); one indexed-semantics
/// round at n = 2000 run through [`Swarm::run_rounds_parallel`] on all
/// available cores, paired with the serial indexed-round oracle
/// ([`RefSwarm::round_indexed`];
/// `parallel_rounds_bit_identical_to_indexed_reference`); and one indexed
/// round of the n = 10⁵ flash crowd (cold piece-mode swarm, btflash
/// geometry) pinning the scaling trajectory toward the million-peer
/// target.
pub fn bench_swarm_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("swarm");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    let (config, uploads) = swarm_inputs(500, true, 0xb17);
    let mut slow = RefSwarm::new(config.clone(), &uploads);
    let mut swarm = Swarm::new(config, &uploads);
    speedup_pair(
        &mut group,
        "round_n500_fluid",
        || slow.round(),
        || swarm.round(),
    );
    let (config, uploads) = swarm_inputs(500, false, 0xb17);
    let slow_pristine = RefSwarm::new(config.clone(), &uploads);
    let pristine = Swarm::new(config, &uploads);
    speedup_pair(
        &mut group,
        "rounds8_n500_pieces",
        || {
            let mut swarm = slow_pristine.clone();
            swarm.run_rounds(PIECE_WINDOW);
            swarm
        },
        || {
            let mut swarm = pristine.clone();
            swarm.run_rounds(PIECE_WINDOW);
            swarm
        },
    );
    let threads = strat_par::default_threads();
    let (config, uploads) = swarm_inputs(2000, true, 0xb18);
    let mut slow = RefSwarm::new(config.clone(), &uploads);
    let mut swarm = Swarm::new(config, &uploads);
    speedup_pair(
        &mut group,
        "rounds_indexed_n2000_fluid",
        || slow.round_indexed(),
        || swarm.run_rounds_parallel(1, threads),
    );
    // Flash crowd at n = 10⁵ (btflash geometry, scaled 10x): an
    // ever-advancing swarm, so the measured regime is the hot early
    // wave — the cold swarm stays far from completion across the
    // sampling window.
    let config = SwarmConfig::builder()
        .leechers(100_000)
        .seeds(20)
        .piece_count(128)
        .piece_size_kbit(1024.0)
        .initial_completion(0.02)
        .mean_neighbors(20.0)
        .seed(0xf1a5)
        .build();
    let uploads: Vec<f64> = (0..100_020)
        .map(|i| 150.0 + (i % 97) as f64 * 10.0)
        .collect();
    let mut swarm = Swarm::new(config, &uploads);
    group.bench_function("flash_round_indexed_n100000_pieces", |b| {
        b.iter(|| swarm.run_rounds_parallel(1, threads));
    });
    // The million-peer target row: the same flash geometry at n = 10⁶.
    // Each iteration is whole seconds, so the sample count drops to keep
    // the export run bounded; the word-parallel kernels, sharded
    // availability merge and O(live) sweeps are what keep this row from
    // scaling worse than linearly in the n = 10⁵ row.
    group.sample_size(5);
    let config = SwarmConfig::builder()
        .leechers(1_000_000)
        .seeds(200)
        .piece_count(128)
        .piece_size_kbit(1024.0)
        .initial_completion(0.02)
        .mean_neighbors(20.0)
        .seed(0xf1a6)
        .build();
    let uploads: Vec<f64> = (0..1_000_200)
        .map(|i| 150.0 + (i % 97) as f64 * 10.0)
        .collect();
    let mut swarm = Swarm::new(config, &uploads);
    group.bench_function("flash_round_indexed_n1000000_pieces", |b| {
        b.iter(|| swarm.run_rounds_parallel(1, threads));
    });
    group.finish();
}

/// The churned-session arena: `n0` leechers and 2 seeds, 256 pieces of
/// 250 kbit at half completion, `d = 20`, 400 kbit/s uploads.
fn churn_swarm(n0: usize) -> Swarm {
    let config = SwarmConfig::builder()
        .leechers(n0)
        .seeds(2)
        .piece_count(256)
        .piece_size_kbit(250.0)
        .initial_completion(0.5)
        .mean_neighbors(20.0)
        .seed(0x5e55)
        .build();
    Swarm::new(config, &vec![400.0; n0 + 2])
}

/// Stationary churn at ~1000 peers from [`churn_swarm`]`(700)`:
/// lambda/mu = 60 * 16 downloads in flight plus a lingering-seed pool.
fn churn_config() -> SessionConfig {
    SessionConfig {
        arrival: ArrivalProcess::Poisson { rate: 60.0 },
        departure: DepartureRules {
            seed_leave_prob: 0.25,
            ..DepartureRules::none()
        },
        arrival_upload_kbps: 400.0,
        target_degree: 20,
        session_seed: 0x5e55,
        ..SessionConfig::default()
    }
}

/// The open-membership session layer:
///
/// * `round_churn_n1000` — one full session round of a ~10³-peer swarm in
///   stationary churn (Poisson arrivals, lingering-seed departures,
///   tracker rewiring, then the piece-mode round itself);
/// * `join_wire_leave_d20` — the pure membership cycle on a static
///   swarm: admit a peer, splice 20 tracker edges, depart it again
///   (arena reuse + incremental overlay/availability patching, no round);
/// * `round_closed_n500` — a zero-churn session round next to the plain
///   engine's `swarm/rounds8_n500_pieces` baseline: the wrapper's
///   overhead on closed swarms is observational bookkeeping only;
/// * `round_open_p512_n300` — one serial round of the `btchurn` quick
///   cell (512 pieces, ~300 peers) after its 120 warm-up rounds, on a
///   fresh clone per iteration: rarest-first keeps availability nearly
///   uniform there, so hundreds of pieces share each holder count.
pub fn bench_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("session");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));

    let mut session = Session::new(churn_swarm(700), churn_config());
    session.run_rounds(40); // reach stationary turnover
    group.bench_function("round_churn_n1000", |b| b.iter(|| session.run_rounds(1)));

    let mut arena = churn_swarm(1000);
    arena.reserve_overlay_slack(24);
    group.bench_function("join_wire_leave_d20", |b| {
        b.iter(|| {
            let slot = arena.arrive(400.0, PeerBehavior::Compliant, PieceSet::new(256));
            for q in 0..20 {
                arena.connect_peers(slot, q * 37 % 1000);
            }
            arena.depart(slot);
            black_box(slot)
        });
    });

    let (config, uploads) = swarm_inputs(500, false, 0xb17);
    let pristine = Session::new(Swarm::new(config, &uploads), SessionConfig::default());
    group.bench_function("round_closed_n500", |b| {
        b.iter(|| {
            let mut session = pristine.clone();
            session.run_rounds(PIECE_WINDOW);
            session
        });
    });

    // Built from `btchurn`'s own stream (0xc4) and warm-up horizon, so
    // the measured state is the experiment's first quick cell.
    let cell = btchurn::preset(&ExperimentContext {
        quick: true,
        seed: 2007,
    });
    let mut warmed = cell
        .build_session(&mut strat_scenario::stream_rng(cell.seed, 0xc4))
        .expect("btchurn preset builds a session");
    warmed.run_rounds(120);
    group.bench_function("round_open_p512_n300", |b| {
        b.iter(|| {
            let mut session = warmed.clone();
            session.run_rounds(1);
            session
        });
    });

    // The million-peer churn row: one full session round (departure,
    // arrival, wiring and record passes plus the indexed swarm round) at
    // n = 10⁶ in a stationary regime — 600 Poisson arrivals per round
    // balanced by a matching abort rate, slow downloads so the
    // population holds, and arena compaction armed. The O(live) pass
    // sweeps and slot-reusing arena are what keep the session overhead a
    // small fraction of the round itself at this scale.
    group.sample_size(5);
    let threads = strat_par::default_threads();
    let big_config = SwarmConfig::builder()
        .leechers(1_000_000)
        .seeds(2)
        .piece_count(256)
        .piece_size_kbit(2500.0)
        .initial_completion(0.5)
        .mean_neighbors(20.0)
        .seed(0x5e56)
        .build();
    let mut big = Session::new(
        Swarm::new(big_config, &vec![400.0; 1_000_002]),
        SessionConfig {
            arrival: ArrivalProcess::Poisson { rate: 600.0 },
            departure: DepartureRules {
                seed_leave_prob: 0.25,
                abort_prob: 0.0006,
                ..DepartureRules::none()
            },
            arrival_upload_kbps: 400.0,
            target_degree: 20,
            session_seed: 0x5e56,
            compact_threshold: Some(0.25),
            ..SessionConfig::default()
        },
    );
    big.run_rounds_parallel(2, threads); // settle the arrival/abort turnover
    group.bench_function("round_churn_indexed_n1000000", |b| {
        b.iter(|| big.run_rounds_parallel(1, threads));
    });
    group.finish();
}

/// The fault plane on the session layer:
///
/// * `round_faulted_n1000` — the `round_churn_n1000` regime with every
///   fault class live (crashes, transfer loss, repair); the delta to the
///   fault-free twin is the plane's per-round overhead;
/// * `overlay_snapshot_n1000` — the full degradation measurement
///   (components, diameter of the largest component, seed reachability,
///   stall scan) on a ~10³-peer stationary swarm.
pub fn bench_faults(c: &mut Criterion) {
    let mut group = c.benchmark_group("faults");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));

    let mut session = Session::with_faults(
        churn_swarm(700),
        churn_config(),
        FaultPlan {
            crash_prob: 0.002,
            loss_prob: 0.05,
            outages: vec![],
            partitions: vec![],
            fault_seed: 0xfa17,
        },
    );
    session.run_rounds(40); // stationary turnover with repair active
    group.bench_function("round_faulted_n1000", |b| b.iter(|| session.run_rounds(1)));

    let mut snapshot_target = Session::new(churn_swarm(1000), SessionConfig::default());
    snapshot_target.run_rounds(8);
    group.bench_function("overlay_snapshot_n1000", |b| {
        b.iter(|| overlay::snapshot(snapshot_target.swarm()));
    });
    group.finish();
}

/// The continuous-time event core:
///
/// * `sync_rounds8_n500_pieces` — the event engine driven in its
///   synchronous limit over the same pre-completion window as
///   `swarm/rounds8_n500_pieces`, paired with the indexed round engine
///   replaying the bit-identical trajectory
///   (`crates/bittorrent/tests/event_differential.rs`
///   `sync_limit_matches_round_indexed`), so the speedup row is the
///   inverse of the queue's measured cost for event-sequencing a round;
/// * `run_for_60s_churn_hetero_n500` — one minute of simulated time
///   off the tick grid: three speed classes, a 5 s transfer quantum,
///   announce-driven rewiring, stationary Poisson churn;
/// * `run_for_60s_continuous_hetero_n500` — the same minute with exact
///   (unquantized) crossings, the regime `btevent` runs in.
pub fn bench_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("events");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));

    let (config, uploads) = swarm_inputs(500, false, 0xb17);
    let round_seconds = config.round_seconds;
    let rounds_pristine = Swarm::new(config, &uploads);
    let pristine = EventEngine::new(
        rounds_pristine.clone(),
        EventTiming::synchronous_limit(round_seconds),
        None,
    );
    speedup_pair(
        &mut group,
        "sync_rounds8_n500_pieces",
        || {
            let mut swarm = rounds_pristine.clone();
            swarm.run_rounds_parallel(PIECE_WINDOW, 1);
            swarm
        },
        || {
            let mut engine = pristine.clone();
            engine.run_sync_rounds(PIECE_WINDOW);
            engine
        },
    );

    let churned = |transfer_quantum: Option<f64>| {
        let (config, uploads) = swarm_inputs(500, false, 0xe7e);
        let mut swarm = Swarm::new(config, &uploads);
        swarm.reserve_overlay_slack(24);
        let mut engine = EventEngine::new(
            swarm,
            EventTiming {
                rechoke_interval: 10.0,
                transfer_quantum,
                announce_interval: Some(30.0),
                speed_multipliers: vec![0.5, 1.0, 2.0],
            },
            Some(SessionConfig {
                arrival: ArrivalProcess::Poisson { rate: 3.0 },
                departure: DepartureRules {
                    leave_on_completion: 0.6,
                    seed_leave_prob: 0.2,
                    ..DepartureRules::none()
                },
                arrival_upload_kbps: 400.0,
                target_degree: 20,
                session_seed: 0xe7e,
                ..SessionConfig::default()
            }),
        );
        engine.run_for(600.0); // reach stationary turnover
        engine
    };
    let mut engine = churned(Some(5.0));
    group.bench_function("run_for_60s_churn_hetero_n500", |b| {
        b.iter(|| engine.run_for(60.0));
    });
    let mut engine = churned(None);
    group.bench_function("run_for_60s_continuous_hetero_n500", |b| {
        b.iter(|| engine.run_for(60.0));
    });
    group.finish();
}

/// The `RunObserver` layer's zero-cost claim as a measured number: the
/// n = 2000 fluid round through the plain `round()` (the reference side)
/// against the same round driven through `round_with(&NullObserver)`
/// (bit-identical by `crates/bittorrent/tests/observer_differential.rs`
/// `observed_serial_rounds_are_bit_identical`). The `BENCH_core.json`
/// exporter asserts that the median per-sample observed/plain time ratio
/// stays within 1% at full time scale (the two paths monomorphize to the
/// same code; the gate guards the seam). Both sides step one shared
/// swarm: twin swarms sit at different heap addresses, which alone moved
/// the ratio by up to ±3% between exports. The swarm rotates its
/// optimistic unchoke every round, so consecutive rounds — the A and B
/// blocks of a sample — do the same work.
pub fn bench_observer(c: &mut Criterion) {
    let mut group = c.benchmark_group("observer");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    let (mut config, uploads) = swarm_inputs(2000, true, 0xb18);
    config.optimistic_period = 1;
    let swarm = std::cell::RefCell::new(Swarm::new(config, &uploads));
    speedup_pair(
        &mut group,
        "round_n2000_fluid",
        || swarm.borrow_mut().round(),
        || swarm.borrow_mut().round_with(&NullObserver),
    );
    group.finish();
}

/// The multi-swarm universe subsystem:
///
/// * `round_shared_n1000_t8` — one universe step over 8 torrents sharing
///   a ~1000-member population under stationary Poisson churn: all eight
///   membership passes, the cross-swarm claim pass, replica sync,
///   demand-weighted capacity rebalance and all eight swarm rounds,
///   stepped serially (`threads = None`);
/// * `round_shared_n1000_t8_threads` — the same step on a clone of the
///   same universe at `Some(strat_par::default_threads())`: membership
///   and round passes fanned out across torrents;
/// * `membership_join_leave_d20` — the membership primitives the claim
///   and sync passes are built from: one `join_with` (arena slot claim +
///   degree-20 wiring) immediately undone by `leave`, on a stationary
///   ~1000-peer session with join slack reserved.
pub fn bench_universe(c: &mut Criterion) {
    let mut group = c.benchmark_group("universe");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));

    let universe_session = |t: u64| {
        let config = SwarmConfig::builder()
            .leechers(125)
            .seeds(2)
            .piece_count(256)
            .piece_size_kbit(250.0)
            .initial_completion(0.5)
            .mean_neighbors(20.0)
            .seed(0x7e11 ^ t)
            .build();
        Session::new(
            Swarm::new(config, &vec![400.0; 127]),
            SessionConfig {
                arrival: ArrivalProcess::Poisson { rate: 7.5 },
                departure: DepartureRules {
                    seed_leave_prob: 0.25,
                    ..DepartureRules::none()
                },
                arrival_upload_kbps: 400.0,
                target_degree: 20,
                session_seed: 0x7e11 ^ t,
                ..SessionConfig::default()
            },
        )
    };
    let mut universe = Universe::new(
        (0..8).map(universe_session).collect(),
        UniverseConfig {
            membership: MembershipModel::Fixed { extra: 1 },
            split: CapacitySplit::DemandWeighted,
            ..UniverseConfig::default()
        },
    );
    universe.run_rounds(20, None); // reach stationary cross-swarm turnover
    let mut threaded = universe.clone();
    group.bench_function("round_shared_n1000_t8", |b| {
        b.iter(|| universe.run_rounds(1, None));
    });
    let threads = strat_par::default_threads();
    group.bench_function("round_shared_n1000_t8_threads", |b| {
        b.iter(|| threaded.run_rounds(1, Some(threads)));
    });

    let mut session = universe_session(8);
    session.reserve_join_slack();
    session.run_rounds(20);
    let mut rng = ChaCha8Rng::seed_from_u64(0x7e11);
    group.bench_function("membership_join_leave_d20", |b| {
        b.iter(|| {
            let id = session.join_with(400.0, 0.0, &mut rng, &NullObserver);
            session.leave(id, &NullObserver);
            black_box(id)
        });
    });
    group.finish();
}

/// The Figure 9 Monte Carlo estimator (lazy greedy sampler, one thread):
///
/// * `fig9_quick_n600_r1500` — the whole quick-profile `fig9` estimate
///   (n = 600, p = 5%, b₀ = 2, 1500 realizations, observed peer 359);
/// * `per_realization_n5000_p0.01_b2` — one realization at the paper's
///   size (observed peer 2999) on a fresh stream per iteration, histogram
///   allocation included, paired with the full-graph path the sampler
///   replaced: draw the whole Erdős–Rényi graph, solve the whole stable
///   configuration (Algorithm 1), read the observed mates (same mates by
///   `strat_analytic::monte_carlo`'s
///   `lazy_mates_equal_the_full_stable_configuration`).
pub fn bench_monte_carlo(c: &mut Criterion) {
    let mut group = c.benchmark_group("monte_carlo");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    let quick = MonteCarloConfig {
        n: 600,
        p: 0.05,
        b0: 2,
        realizations: 1500,
        seed: 2007 ^ 0x9,
        threads: 1,
    };
    group.bench_function("fig9_quick_n600_r1500", |b| {
        b.iter(|| monte_carlo::estimate_choice_distribution(black_box(&quick), 359));
    });
    let mut paper = MonteCarloConfig {
        threads: 1,
        ..MonteCarloConfig::figure9(1)
    };
    let (n, p) = (paper.n, paper.p);
    let ranking = GlobalRanking::identity(n);
    let caps = Capacities::constant(n, paper.b0);
    let mut rng = ChaCha8Rng::seed_from_u64(paper.seed);
    speedup_pair(
        &mut group,
        "per_realization_n5000_p0.01_b2",
        || {
            let graph = generators::erdos_renyi(n, p, &mut rng);
            let acc = RankedAcceptance::new(graph, ranking.clone()).expect("sizes match");
            let stable = stable_configuration(&acc, &caps).expect("sizes match");
            black_box(stable.mates(NodeId::new(2999)).len())
        },
        || {
            paper.seed += 1;
            monte_carlo::estimate_choice_distribution(black_box(&paper), 2999)
        },
    );
    group.finish();
}

/// Registers every core group on `c`.
pub fn core_groups(c: &mut Criterion) {
    bench_stable_configuration(c);
    bench_dynamics(c);
    bench_prefs(c);
    bench_swarm_rounds(c);
    bench_session(c);
    bench_faults(c);
    bench_events(c);
    bench_observer(c);
    bench_universe(c);
    bench_monte_carlo(c);
}
