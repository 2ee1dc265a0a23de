//! Differential and conservation property tests for the [`RunObserver`]
//! trace layer.
//!
//! * **Bit-identity** — attaching a [`TraceObserver`] must not perturb
//!   any engine: observers are pure taps that consume no randomness and
//!   touch no simulation state. Observed and unobserved runs of the
//!   serial round engine, the parallel round engine (1/2/8 workers), the
//!   churned + faulted session, and the continuous-time event engine
//!   must produce bit-for-bit identical swarms, stats and completion
//!   records.
//! * **Trace conservation** — the event streams a [`TraceObserver`]
//!   records must replay the engines' own bookkeeping exactly: per-peer
//!   transfer/loss sums reproduce the upload/download/lost counters
//!   (bitwise, including under parallel rounds — within one round every
//!   share a sender issues is equal, so per-peer accumulation order
//!   cannot matter), arrival/departure streams reproduce the session's
//!   population delta, and the event engine's completion hooks replay
//!   its [`CompletionRecord`] stream.

#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use strat_bittorrent::session::{ArrivalProcess, DepartureRules, Session, SessionConfig};
use strat_bittorrent::{
    EventEngine, EventTiming, FaultPlan, FaultWindow, Swarm, SwarmConfig, TraceObserver,
};

fn build(leechers: usize, seeds: usize, pieces: usize, completion: f64, seed: u64) -> Swarm {
    let config = SwarmConfig::builder()
        .leechers(leechers)
        .seeds(seeds)
        .piece_count(pieces)
        .piece_size_kbit(170.0)
        .initial_completion(completion)
        .mean_neighbors(8.0)
        .seed(seed)
        .build();
    let uploads: Vec<f64> = (0..leechers + seeds)
        .map(|i| 100.0 + 37.0 * i as f64)
        .collect();
    Swarm::new(config, &uploads)
}

/// One peer's exact observable state, as bit patterns.
type PeerBits = (u64, u64, u64, u64, Option<u64>, Vec<usize>);

/// Exact observable state of a swarm for bitwise comparison.
fn swarm_bits(swarm: &Swarm) -> (Vec<PeerBits>, Vec<u32>, Vec<bool>) {
    let states = (0..swarm.peer_count())
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
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let present = (0..swarm.peer_count())
        .map(|p| swarm.is_present(p))
        .collect();
    (states, swarm.availability().to_vec(), present)
}

/// A crash/loss/outage/partition plan that actually fires inside a
/// short horizon.
fn active_faults(seed: u64) -> FaultPlan {
    FaultPlan {
        crash_prob: 0.03,
        loss_prob: 0.08,
        outages: vec![FaultWindow {
            start: 2,
            rounds: 3,
        }],
        partitions: vec![FaultWindow {
            start: 4,
            rounds: 3,
        }],
        fault_seed: seed ^ 0xfa17,
    }
}

fn churn_config(seed: u64) -> SessionConfig {
    SessionConfig {
        arrival: ArrivalProcess::Poisson { rate: 2.0 },
        departure: DepartureRules {
            leave_on_completion: 0.4,
            seed_leave_prob: 0.2,
            seed_exodus_round: Some(6),
            abort_prob: 0.05,
        },
        arrival_upload_kbps: 280.0,
        arrival_completion: 0.2,
        target_degree: 7,
        session_seed: seed ^ 0x0b5,
        peer_list_cap: None,
        compact_threshold: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Serial round engine: observed ≡ unobserved, bit for bit, with
    /// transfer loss armed so the loss path is covered too.
    #[test]
    fn observed_serial_rounds_are_bit_identical(
        leechers in 6usize..30,
        seeds in 1usize..3,
        pieces in 8usize..40,
        completion in 0.0f64..0.8,
        seed in any::<u64>(),
        rounds in 1u64..14,
        loss in any::<bool>(),
    ) {
        let mut plain = build(leechers, seeds, pieces, completion, seed);
        let mut observed = build(leechers, seeds, pieces, completion, seed);
        if loss {
            plain.set_transfer_loss(0.1, seed ^ 0x10);
            observed.set_transfer_loss(0.1, seed ^ 0x10);
        }
        plain.run_rounds(rounds);
        let obs = TraceObserver::new();
        observed.run_rounds_with(rounds, &obs);
        prop_assert_eq!(swarm_bits(&observed), swarm_bits(&plain));
        prop_assert_eq!(observed.lost_deliveries(), plain.lost_deliveries());
        prop_assert_eq!(obs.into_log().rounds, rounds);
    }

    /// Parallel round engine at 1, 2 and 8 workers: observed ≡
    /// unobserved, and both ≡ the serial observed run's thread-invariant
    /// state.
    #[test]
    fn observed_parallel_rounds_are_bit_identical(
        leechers in 8usize..28,
        seeds in 1usize..3,
        pieces in 8usize..32,
        completion in 0.1f64..0.7,
        seed in any::<u64>(),
        rounds in 1u64..10,
    ) {
        let baseline = {
            let mut swarm = build(leechers, seeds, pieces, completion, seed);
            swarm.run_rounds_parallel(rounds, 1);
            swarm_bits(&swarm)
        };
        for threads in [1usize, 2, 8] {
            let mut observed = build(leechers, seeds, pieces, completion, seed);
            let obs = TraceObserver::new();
            observed.run_rounds_parallel_with(rounds, threads, &obs);
            prop_assert_eq!(
                swarm_bits(&observed), baseline.clone(),
                "threads {}", threads
            );
            prop_assert_eq!(obs.into_log().rounds, rounds, "threads {}", threads);
        }
    }

    /// Churned + faulted session: observed ≡ unobserved on state and
    /// stats, serial and parallel.
    #[test]
    fn observed_session_is_bit_identical(
        leechers in 8usize..22,
        pieces in 8usize..28,
        completion in 0.1f64..0.6,
        seed in any::<u64>(),
        rounds in 2u64..12,
        parallel in any::<bool>(),
        faulted in any::<bool>(),
    ) {
        let make = || {
            let swarm = build(leechers, 2, pieces, completion, seed);
            let faults = if faulted { active_faults(seed) } else { FaultPlan::none() };
            Session::with_faults(swarm, churn_config(seed), faults)
        };
        let mut plain = make();
        let mut observed = make();
        let obs = TraceObserver::new();
        if parallel {
            plain.run_rounds_parallel(rounds, 3);
            observed.run_rounds_parallel_with(rounds, 3, &obs);
        } else {
            plain.run_rounds(rounds);
            observed.run_rounds_with(rounds, &obs);
        }
        prop_assert_eq!(swarm_bits(observed.swarm()), swarm_bits(plain.swarm()));
        prop_assert_eq!(observed.stats(), plain.stats());
    }

    /// Continuous-time event engine with churn: observed ≡ unobserved on
    /// state, counters, completion records and the clock.
    #[test]
    fn observed_event_engine_is_bit_identical(
        leechers in 8usize..24,
        pieces in 10usize..32,
        completion in 0.1f64..0.6,
        seed in any::<u64>(),
        rate in 0.3f64..1.5,
        chunks in 1usize..4,
    ) {
        let timing = EventTiming {
            rechoke_interval: 10.0,
            transfer_quantum: Some(2.5),
            announce_interval: Some(20.0),
            speed_multipliers: vec![0.5, 1.0, 2.0],
        };
        let churn = SessionConfig {
            arrival: ArrivalProcess::Poisson { rate },
            ..churn_config(seed)
        };
        let run = |obs: Option<&TraceObserver>| {
            let mut engine = EventEngine::new(
                build(leechers, 2, pieces, completion, seed),
                timing.clone(),
                Some(churn.clone()),
            );
            for _ in 0..chunks {
                match obs {
                    Some(o) => engine.run_for_with(75.0, o),
                    None => engine.run_for(75.0),
                }
            }
            (
                swarm_bits(engine.swarm()),
                *engine.stats(),
                engine.completions().to_vec(),
                engine.clock_seconds().to_bits(),
            )
        };
        let obs = TraceObserver::new();
        let plain = run(None);
        let observed = run(Some(&obs));
        prop_assert_eq!(observed.0, plain.0, "swarm state diverged");
        prop_assert_eq!(observed.1, plain.1, "event counters diverged");
        prop_assert_eq!(observed.2.len(), plain.2.len(), "completion counts diverged");
        for (a, b) in observed.2.iter().zip(&plain.2) {
            prop_assert_eq!(a, b, "completion records diverged");
        }
        prop_assert_eq!(observed.3, plain.3, "clock diverged");
    }

    /// Serial rounds: the trace's per-peer transfer/loss sums reproduce
    /// the engine's upload/download/lost counters bitwise.
    #[test]
    fn serial_trace_sums_replay_transfer_counters(
        leechers in 6usize..26,
        seeds in 1usize..3,
        pieces in 8usize..32,
        completion in 0.0f64..0.8,
        seed in any::<u64>(),
        rounds in 1u64..12,
        loss_prob in 0.0f64..0.3,
    ) {
        let mut swarm = build(leechers, seeds, pieces, completion, seed);
        swarm.set_transfer_loss(loss_prob, seed ^ 0x7055);
        let obs = TraceObserver::new();
        swarm.run_rounds_with(rounds, &obs);
        let log = obs.into_log();
        let n = swarm.peer_count();
        let (up, down, lost) = (log.uploaded_kbit(n), log.downloaded_kbit(n), log.lost_kbit(n));
        for p in 0..n {
            prop_assert_eq!(
                up[p].to_bits(), swarm.peer(p).total_uploaded().to_bits(),
                "upload sum diverged at peer {}", p
            );
            prop_assert_eq!(
                down[p].to_bits(), swarm.peer(p).total_downloaded().to_bits(),
                "download sum diverged at peer {}", p
            );
        }
        let lost_total: f64 = lost.iter().sum();
        prop_assert_eq!(lost_total.to_bits(), swarm.lost_kbit().to_bits());
        prop_assert_eq!(log.losses.len() as u64, swarm.lost_deliveries());
        // Every piece conversion the trace saw is held by its recipient.
        for &(_, q, piece) in &log.pieces {
            prop_assert!(swarm.peer(q).pieces().contains(piece));
        }
    }

    /// Parallel rounds: per-peer trace sums still replay the counters
    /// bitwise at every thread count — within one round every share a
    /// sender issues is equal, and each recipient's row is settled by
    /// exactly one worker, so accumulation order cannot matter.
    #[test]
    fn parallel_trace_sums_replay_transfer_counters(
        leechers in 8usize..24,
        pieces in 8usize..28,
        completion in 0.1f64..0.7,
        seed in any::<u64>(),
        rounds in 1u64..8,
        threads in 1usize..8,
        loss_prob in 0.0f64..0.25,
    ) {
        let mut swarm = build(leechers, 2, pieces, completion, seed);
        swarm.set_transfer_loss(loss_prob, seed ^ 0x7055);
        let obs = TraceObserver::new();
        swarm.run_rounds_parallel_with(rounds, threads, &obs);
        let log = obs.into_log();
        let n = swarm.peer_count();
        let (up, down, lost) = (log.uploaded_kbit(n), log.downloaded_kbit(n), log.lost_kbit(n));
        for p in 0..n {
            prop_assert_eq!(
                up[p].to_bits(), swarm.peer(p).total_uploaded().to_bits(),
                "upload sum diverged at peer {} ({} threads)", p, threads
            );
            prop_assert_eq!(
                down[p].to_bits(), swarm.peer(p).total_downloaded().to_bits(),
                "download sum diverged at peer {} ({} threads)", p, threads
            );
        }
        let lost_total: f64 = lost.iter().sum();
        prop_assert_eq!(lost_total.to_bits(), swarm.lost_kbit().to_bits());
        prop_assert_eq!(log.losses.len() as u64, swarm.lost_deliveries());
    }

    /// Session membership events: the arrival/departure/crash streams
    /// reproduce the session's counters and the population delta.
    #[test]
    fn session_trace_conserves_population(
        leechers in 8usize..22,
        pieces in 8usize..24,
        completion in 0.1f64..0.6,
        seed in any::<u64>(),
        rounds in 2u64..14,
        faulted in any::<bool>(),
    ) {
        let swarm = build(leechers, 2, pieces, completion, seed);
        let before = swarm.population().total() as i64;
        let faults = if faulted { active_faults(seed) } else { FaultPlan::none() };
        let mut session = Session::with_faults(swarm, churn_config(seed), faults);
        let obs = TraceObserver::new();
        session.run_rounds_with(rounds, &obs);
        let log = obs.into_log();
        let stats = session.stats();
        prop_assert_eq!(log.arrivals.len() as u64, stats.arrivals);
        prop_assert_eq!(
            (log.departures.len() + log.crashes.len()) as u64,
            stats.departures
        );
        prop_assert_eq!(log.crashes.len() as u64, stats.crashes);
        prop_assert_eq!(
            log.net_population_delta(),
            session.population().total() as i64 - before
        );
        // Event times are monotone non-decreasing round stamps.
        for stream in [&log.arrivals, &log.departures, &log.crashes] {
            for w in stream.windows(2) {
                prop_assert!(w[1].0 >= w[0].0);
            }
        }
    }

    /// Event engine: the completion hook stream replays the engine's
    /// [`CompletionRecord`]s — same slots, same order, same timestamps
    /// (hook times are in rechoke-interval units).
    #[test]
    fn event_trace_replays_completion_records(
        leechers in 8usize..26,
        pieces in 10usize..30,
        completion in 0.2f64..0.7,
        seed in any::<u64>(),
        rate in 0.3f64..1.5,
    ) {
        let timing = EventTiming {
            rechoke_interval: 10.0,
            transfer_quantum: Some(2.5),
            announce_interval: Some(20.0),
            speed_multipliers: vec![1.0, 2.0],
        };
        let churn = SessionConfig {
            arrival: ArrivalProcess::Poisson { rate },
            ..churn_config(seed)
        };
        let mut engine = EventEngine::new(
            build(leechers, 2, pieces, completion, seed),
            timing.clone(),
            Some(churn.clone()),
        );
        let obs = TraceObserver::new();
        engine.run_for_with(250.0, &obs);
        let log = obs.into_log();
        let records = engine.completions();
        prop_assert_eq!(log.completions.len(), records.len());
        for (&(tau, slot), rec) in log.completions.iter().zip(records) {
            prop_assert_eq!(slot as u32, rec.slot);
            prop_assert_eq!(
                (tau * timing.rechoke_interval).to_bits(),
                rec.completion_time.to_bits(),
                "completion time diverged at slot {}", slot
            );
        }
    }

    /// Event engine on a closed swarm (no slot reuse): per-peer trace
    /// sums replay the transfer counters — sender-side deposits are
    /// immediate per settlement, so upload sums match bitwise;
    /// recipient-side deposits are batched into pend rows, so download
    /// sums agree to accumulation-order rounding.
    #[test]
    fn event_trace_sums_replay_transfer_counters(
        leechers in 8usize..24,
        pieces in 10usize..30,
        completion in 0.1f64..0.6,
        seed in any::<u64>(),
        quantized in any::<bool>(),
    ) {
        let timing = EventTiming {
            rechoke_interval: 10.0,
            transfer_quantum: quantized.then_some(2.5),
            announce_interval: None,
            speed_multipliers: vec![0.5, 1.0, 2.0],
        };
        let mut engine = EventEngine::new(
            build(leechers, 2, pieces, completion, seed),
            timing,
            None,
        );
        let obs = TraceObserver::new();
        engine.run_for_with(180.0, &obs);
        let log = obs.into_log();
        let n = engine.swarm().peer_count();
        let up = log.uploaded_kbit(n);
        for p in 0..n {
            prop_assert_eq!(
                up[p].to_bits(),
                engine.swarm().peer(p).total_uploaded().to_bits(),
                "upload sum diverged at peer {}", p
            );
        }
        let down = log.downloaded_kbit(n);
        for p in 0..n {
            let engine_down = engine.swarm().peer(p).total_downloaded();
            prop_assert!(
                (down[p] - engine_down).abs() <= 1e-6 * engine_down.abs().max(1.0),
                "download sum diverged at peer {}: trace {} vs engine {}",
                p, down[p], engine_down
            );
        }
    }
}
