//! Integration: the BitTorrent protocol simulator exhibits the behaviour
//! the abstract matching model predicts (the paper's §6 correspondence).

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stratification::analytic::fluid::BtFluidParams;
use stratification::bandwidth::{efficiency_curve, BandwidthCdf, EfficiencyModel};
use stratification::bittorrent::session::{ArrivalProcess, DepartureRules, Session, SessionConfig};
use stratification::bittorrent::{metrics, Swarm, SwarmConfig, TraceLog, TraceObserver};

fn saroiu_swarm(leechers: usize, rounds: u64, seed: u64) -> Swarm {
    let seeds = 2;
    let config = SwarmConfig::builder()
        .leechers(leechers)
        .seeds(seeds)
        .mean_neighbors(20.0)
        .tft_slots(3)
        .optimistic_slots(1)
        .fluid_content(true)
        .seed(seed)
        .build();
    let cdf = BandwidthCdf::saroiu_gnutella_upstream();
    let mut uploads = cdf.assign_by_rank(leechers);
    uploads.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 0xf00d));
    uploads.extend(std::iter::repeat_n(1000.0, seeds));
    let mut swarm = Swarm::new(config, &uploads);
    swarm.run_rounds(rounds);
    swarm
}

/// TFT reciprocation stratifies: the mean rank offset of reciprocated
/// pairs ends far below the random-pairing baseline (~n/3).
#[test]
fn swarm_stratifies_far_below_random_baseline() {
    let n = 200;
    let swarm = saroiu_swarm(n, 120, 1);
    let snap = metrics::stratification_snapshot(&swarm);
    let offset = snap.mean_rank_offset.expect("pairs exist");
    let random_baseline = n as f64 / 3.0;
    assert!(
        offset < 0.5 * random_baseline,
        "offset {offset:.1} not well below random {random_baseline:.1}"
    );
    assert!(snap.reciprocal_pairs as f64 > n as f64 / 4.0);
}

/// The swarm's TFT-economy share ratios have the Figure 11 direction: the
/// fastest class pays (aggregate D/U < 1) and the slowest class rides
/// (aggregate D/U > 1). Aggregate (traffic-weighted) ratios are the robust
/// class-level measure: per-peer means are dominated by the coarse
/// discretization of the heavy Saroiu top tail at swarm sizes.
#[test]
fn swarm_share_ratios_follow_figure11_direction() {
    let n = 240;
    let swarm = saroiu_swarm(n, 160, 2);
    let mut uploads: Vec<f64> = metrics::leecher_performance(&swarm)
        .iter()
        .map(|p| p.upload_kbps)
        .collect();
    uploads.sort_by(f64::total_cmp);
    let q1 = uploads[n / 4];
    let q3 = uploads[3 * n / 4];
    let slow = metrics::aggregate_tft_ratio_in_band(&swarm, 0.0, q1)
        .expect("slow class carries TFT traffic");
    let fast = metrics::aggregate_tft_ratio_in_band(&swarm, q3, 1e12)
        .expect("fast class carries TFT traffic");
    assert!(
        slow > fast,
        "slow-class aggregate D/U {slow:.2} must exceed fast-class {fast:.2}"
    );
    assert!(fast < 1.0, "fastest class not subsidizing: {fast:.2}");
    assert!(slow > 1.0, "slowest class not subsidized: {slow:.2}");
}

/// The analytic efficiency model (Algorithm 3 + bandwidth CDF) and the
/// protocol simulator agree on who wins and who pays: correlation between
/// per-class D/U ratios is positive and strong in direction.
#[test]
fn analytic_and_simulated_efficiency_agree_by_class() {
    let n = 240;
    let swarm = saroiu_swarm(n, 160, 3);
    let curve = efficiency_curve(
        &EfficiencyModel {
            b0: 3,
            d: 20.0,
            n: 1000,
        },
        &BandwidthCdf::saroiu_gnutella_upstream(),
    );
    // Classes by upload bandwidth (kbps).
    let classes = [(10.0, 64.0), (64.0, 300.0), (300.0, 1500.0), (1500.0, 1e7)];
    let mut agree = 0usize;
    let mut total = 0usize;
    for (lo, hi) in classes {
        let sim = metrics::mean_share_ratio_in_band(&swarm, lo, hi);
        let ana: Vec<f64> = curve
            .iter()
            .filter(|p| p.upload >= lo && p.upload < hi)
            .map(|p| p.ratio)
            .collect();
        if let (Some(sim), false) = (sim, ana.is_empty()) {
            let ana = ana.iter().sum::<f64>() / ana.len() as f64;
            total += 1;
            // Same side of 1.0 = same winner/payer verdict.
            if (sim > 1.0) == (ana > 1.0) {
                agree += 1;
            }
        }
    }
    assert!(total >= 3, "too few comparable classes");
    assert!(
        agree >= total - 1,
        "model and simulator disagree on {}/{total} classes",
        total - agree
    );
}

/// Piece-level swarm sanity at integration scale: a heterogeneous swarm
/// with real piece dynamics completes, respecting rarest-first coupon
/// collection.
#[test]
fn heterogeneous_swarm_completes_with_piece_dynamics() {
    let leechers = 60;
    let config = SwarmConfig::builder()
        .leechers(leechers)
        .seeds(2)
        .piece_count(64)
        .piece_size_kbit(200.0)
        .initial_completion(0.2)
        .mean_neighbors(16.0)
        .seed(9)
        .build();
    let mut uploads: Vec<f64> = (0..leechers)
        .map(|i| 200.0 * 1.03f64.powi(i as i32))
        .collect();
    uploads.extend([2000.0, 2000.0]);
    let mut swarm = Swarm::new(config, &uploads);
    for _ in 0..3000 {
        swarm.round();
        if swarm.completed() == leechers {
            break;
        }
    }
    assert_eq!(swarm.completed(), leechers, "swarm failed to complete");
    // Conservation at the end of the run.
    let up: f64 = (0..swarm.peer_count())
        .map(|p| swarm.peer(p).total_uploaded())
        .sum();
    let down: f64 = (0..swarm.peer_count())
        .map(|p| swarm.peer(p).total_downloaded())
        .sum();
    assert!((up - down).abs() < 1e-6);
}

// ---------------------------------------------------------------------
// Fluid-transient validation: the session engine, observed through the
// RunObserver trace layer, against the RK4 fluid oracle
// (`BtFluidParams::trajectory`). Arrivals come from a deterministic
// `ArrivalProcess::Trace` so the deterministic ODE is the right oracle
// for the *transient* (no Poisson noise), and the per-round population
// trajectory is reconstructed from the observer's arrival / completion /
// departure event streams — reconstruction and polled populations must
// agree exactly before either is compared to the fluid band.
// ---------------------------------------------------------------------

/// Constant 400 kbps peers over a 512 × 250 kbit file at 10 s rounds:
/// service rate μ = 400·10/128000 = 1/32 files per round.
const CHURN_UPLOAD_KBPS: f64 = 400.0;
const CHURN_MU: f64 = 1.0 / 32.0;

fn churn_swarm(leechers: usize, seeds: usize, completion: f64, seed: u64) -> Swarm {
    let config = SwarmConfig::builder()
        .leechers(leechers)
        .seeds(seeds)
        .piece_count(512)
        .piece_size_kbit(250.0)
        .initial_completion(completion)
        .mean_neighbors(20.0)
        .seed_after_completion(true)
        .seed(seed)
        .build();
    let uploads = vec![CHURN_UPLOAD_KBPS; leechers + seeds];
    Swarm::new(config, &uploads)
}

/// A deterministic λ-per-round arrival trace with optional extra bursts.
fn arrival_trace(rate: u32, horizon: u64, bursts: &[(u64, u32)]) -> ArrivalProcess {
    let mut arrivals: Vec<(u64, u32)> = (0..horizon).map(|r| (r, rate)).collect();
    arrivals.extend_from_slice(bursts);
    ArrivalProcess::Trace { arrivals }
}

/// Runs `rounds` observed rounds, polling `(downloading, seeding)` after
/// each; returns the polled trajectory, the trace log, and the session.
fn run_observed(mut session: Session, rounds: u64) -> (Vec<(usize, usize)>, TraceLog, Session) {
    let obs = TraceObserver::new();
    let mut polled = Vec::with_capacity(rounds as usize);
    for _ in 0..rounds {
        session.run_rounds_with(1, &obs);
        let pop = session.population();
        polled.push((pop.downloading, pop.seeding));
    }
    (polled, obs.into_log(), session)
}

/// Leecher count after `k` steps, reconstructed from the trace streams:
/// `x0 + arrivals(stamp ≤ k−1) − completions(stamp ≤ k) − aborts`.
/// With `abort_prob = 0` every leecher exit is a completion.
fn reconstruct_leechers(log: &TraceLog, x0: usize, steps: u64) -> i64 {
    let arr = log
        .arrivals
        .iter()
        .filter(|&&(t, _)| t <= (steps - 1) as f64)
        .count() as i64;
    let comp = log
        .completions
        .iter()
        .filter(|&&(t, _)| t <= steps as f64)
        .count() as i64;
    x0 as i64 + arr - comp
}

/// Mean and max relative error of the simulated leecher trajectory
/// against the fluid curve, starting `skip_t` fluid steps in. The skip
/// documents the packet-level lag the memoryless ODE cannot resolve: a
/// fresh arrival needs at least 1/μ = 32 rounds to download the file, so
/// the first ~40 rounds after a perturbation relax later than the fluid.
fn leecher_band(
    polled: &[(usize, usize)],
    fluid: &[(f64, f64, f64)],
    from_round: usize,
    offset: usize,
    skip_t: usize,
) -> (f64, f64) {
    let mut sum = 0.0f64;
    let mut worst = 0.0f64;
    let mut count = 0usize;
    for (i, &(_, fx, _)) in fluid.iter().enumerate().skip(skip_t.max(1)) {
        let r = from_round + i - offset;
        let Some(&(x, _)) = polled.get(r) else { break };
        let rel = (x as f64 - fx).abs() / fx.max(1.0);
        sum += rel;
        worst = worst.max(rel);
        count += 1;
    }
    (sum / count as f64, worst)
}

/// A burst arrival transient relaxes back along the fluid ODE: steady
/// deterministic arrivals (λ = 4/round, γ = 1/4, x̄ = 110), a 60-peer
/// flash at round 140, and the decay back to x̄ tracked within a
/// documented band of the RK4 oracle. The observer's event streams must
/// reproduce the polled leecher population exactly at every round.
#[test]
fn burst_arrival_transient_follows_fluid_oracle() {
    let (lambda, gamma, s0) = (4.0, 0.25, 2usize);
    let x_bar = (lambda / CHURN_MU - lambda / gamma - s0 as f64).round() as usize; // 110
    let (burst_round, horizon) = (140u64, 260u64);
    let config = SessionConfig {
        arrival: arrival_trace(lambda as u32, horizon, &[(burst_round, 60)]),
        departure: DepartureRules {
            leave_on_completion: 0.0,
            seed_leave_prob: gamma,
            seed_exodus_round: None,
            abort_prob: 0.0,
        },
        arrival_upload_kbps: CHURN_UPLOAD_KBPS,
        arrival_completion: 0.0,
        target_degree: 20,
        session_seed: 0xb1257,
        peer_list_cap: None,
        compact_threshold: None,
    };
    let session = Session::new(churn_swarm(x_bar, s0, 0.5, 11), config);
    let (polled, log, session) = run_observed(session, horizon);

    // Observer identity: event-stream reconstruction == polled count.
    for k in 1..=horizon {
        assert_eq!(
            reconstruct_leechers(&log, x_bar, k),
            polled[(k - 1) as usize].0 as i64,
            "trace reconstruction diverged after round {k}"
        );
    }
    assert_eq!(log.arrivals.len() as u64, session.stats().arrivals);

    // Fluid oracle: relaxation from the measured pre-burst state plus
    // the flash, piecewise from the burst round.
    let params = BtFluidParams {
        lambda,
        mu: CHURN_MU,
        gamma,
        theta: 0.0,
        eta: 1.0,
        s0: s0 as f64,
    };
    let pre = polled[(burst_round - 1) as usize];
    let x0 = pre.0 as f64 + 60.0;
    let y0 = (pre.1 - s0) as f64;
    let fluid = params.trajectory(x0, y0, (horizon - burst_round) as f64, 1.0);

    // The burst itself is visible at packet level: the pool spikes well
    // above the steady state while the flash cohort downloads.
    let peak = polled[burst_round as usize..(burst_round + 32) as usize]
        .iter()
        .map(|&(x, _)| x)
        .max()
        .unwrap();
    assert!(
        peak >= x_bar + 40,
        "burst of 60 arrivals barely moved the pool: peak {peak} vs steady {x_bar}"
    );

    // Past the ~1/μ download-time lag the decay hugs the RK4 curve.
    let (mean_err, max_err) = leecher_band(&polled, &fluid, burst_round as usize, 1, 40);
    println!("burst transient: mean rel err {mean_err:.4}, max {max_err:.4}");
    assert!(
        mean_err <= 0.06,
        "burst transient drifts from the fluid oracle: mean rel err {mean_err:.4}"
    );
    assert!(
        max_err <= 0.15,
        "burst transient breaks the fluid band: max rel err {max_err:.4}"
    );
}

/// A seed exodus (the 20-publisher squad withdrawing at once) pushes the
/// leecher pool up to the reduced-capacity steady state along the fluid
/// ODE with `s0 = 0`.
#[test]
fn seed_exodus_transient_follows_fluid_oracle() {
    let (lambda, gamma, s0) = (4.0, 0.25, 20usize);
    let x_bar = (lambda / CHURN_MU - lambda / gamma - s0 as f64).round() as usize; // 92
    let (exodus_round, horizon) = (140u64, 280u64);
    let config = SessionConfig {
        arrival: arrival_trace(lambda as u32, horizon, &[]),
        departure: DepartureRules {
            leave_on_completion: 0.0,
            seed_leave_prob: gamma,
            seed_exodus_round: Some(exodus_round),
            abort_prob: 0.0,
        },
        arrival_upload_kbps: CHURN_UPLOAD_KBPS,
        arrival_completion: 0.0,
        target_degree: 20,
        session_seed: 0xe50d,
        peer_list_cap: None,
        compact_threshold: None,
    };
    let session = Session::new(churn_swarm(x_bar, s0, 0.5, 12), config);
    let (polled, log, session) = run_observed(session, horizon);

    assert_eq!(session.stats().seed_exodus, s0 as u64);
    // The departure stream carries the exodus: exactly s0 departures
    // stamped with the exodus round.
    let exodus_departures = log
        .departures
        .iter()
        .filter(|&&(t, _)| t == exodus_round as f64)
        .count();
    assert!(exodus_departures >= s0, "exodus not visible in the trace");
    for k in 1..=horizon {
        assert_eq!(
            reconstruct_leechers(&log, x_bar, k),
            polled[(k - 1) as usize].0 as i64,
            "trace reconstruction diverged after round {k}"
        );
    }

    // Piecewise oracle: from the measured pre-exodus state with the
    // publisher capacity removed.
    let params = BtFluidParams {
        lambda,
        mu: CHURN_MU,
        gamma,
        theta: 0.0,
        eta: 1.0,
        s0: 0.0,
    };
    let pre = polled[(exodus_round - 1) as usize];
    let x0 = pre.0 as f64;
    let y0 = (pre.1 - s0) as f64;
    let fluid = params.trajectory(x0, y0, (horizon - exodus_round) as f64, 1.0);

    // The pool actually grows towards the reduced-capacity steady state.
    let pre_mean = polled[(exodus_round as usize - 40)..exodus_round as usize]
        .iter()
        .map(|&(x, _)| x as f64)
        .sum::<f64>()
        / 40.0;
    let tail_mean = polled[(horizon as usize - 20)..]
        .iter()
        .map(|&(x, _)| x as f64)
        .sum::<f64>()
        / 20.0;
    assert!(
        tail_mean > pre_mean + 10.0,
        "losing the publishers did not grow the pool: {pre_mean:.1} -> {tail_mean:.1}"
    );

    // The packet swarm runs a few percent above the fluid curve after the
    // exodus (effective sharing efficiency dips below η = 1 with fewer
    // seeds), so the band is looser than the burst test's.
    let (mean_err, max_err) = leecher_band(&polled, &fluid, exodus_round as usize, 1, 1);
    println!("exodus transient: mean rel err {mean_err:.4}, max {max_err:.4}");
    assert!(
        mean_err <= 0.10,
        "exodus transient drifts from the fluid oracle: mean rel err {mean_err:.4}"
    );
    assert!(
        max_err <= 0.25,
        "exodus transient breaks the fluid band: max rel err {max_err:.4}"
    );
}

/// With mid-download aborts (θ > 0) the ramp from an undersized swarm
/// climbs to the θ-corrected steady state along the fluid ODE. The band
/// here is the loosest of the three transients, for a structural reason
/// worth keeping on record: the fluid completion flux min(μ(ηx+y+s0), x)
/// spends ALL upload capacity on completions, but in the packet swarm
/// the capacity invested in peers who later abort is wasted — a bias of
/// order θ/μ · (mean progress at abort) that inflates the simulated pool
/// above the ODE. θ = 0.05 leaves the sim ~25% high; θ = 0.005 keeps the
/// residual under the documented band. γ also must leave a healthy seed
/// pool (γ = 0.5 starves the swarm to ~8 seeds and η ≈ 0.8).
#[test]
fn abort_ramp_transient_follows_fluid_oracle() {
    let (lambda, gamma, theta, s0) = (4.0, 0.25, 0.005, 2usize);
    let (horizon, settle) = (200u64, 60usize);
    let x_start = 20usize;
    let config = SessionConfig {
        arrival: arrival_trace(lambda as u32, horizon, &[]),
        departure: DepartureRules {
            leave_on_completion: 0.0,
            seed_leave_prob: gamma,
            seed_exodus_round: None,
            abort_prob: theta,
        },
        arrival_upload_kbps: CHURN_UPLOAD_KBPS,
        arrival_completion: 0.0,
        target_degree: 20,
        session_seed: 0xab07,
        peer_list_cap: None,
        compact_threshold: None,
    };
    let session = Session::new(churn_swarm(x_start, s0, 0.5, 13), config);
    let (polled, log, session) = run_observed(session, horizon);

    // Aborts do fire, and the observed net population change matches.
    assert!(session.stats().aborted > 0, "no aborts in a theta > 0 run");
    assert_eq!(
        log.net_population_delta(),
        session.population().total() as i64 - (x_start + s0) as i64
    );

    let params = BtFluidParams {
        lambda,
        mu: CHURN_MU,
        gamma,
        theta,
        eta: 1.0,
        s0: s0 as f64,
    };
    let fluid = params.trajectory(x_start as f64, 0.0, horizon as f64, 1.0);
    // Skip the settle window: the initial cohort completes in a coupon-
    // collection wave the smooth ODE cannot resolve.
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for (i, &(_, fx, _)) in fluid.iter().enumerate().skip(settle + 1) {
        let Some(&(x, _)) = polled.get(i - 1) else {
            break;
        };
        sum += (x as f64 - fx).abs() / fx.max(1.0);
        count += 1;
    }
    let mean_err = sum / count as f64;
    println!("abort ramp: mean rel err {mean_err:.4} over {count} rounds");
    assert!(
        mean_err <= 0.15,
        "abort ramp drifts from the fluid oracle: mean rel err {mean_err:.4}"
    );
    // The ramp actually climbed towards the theta-corrected steady state.
    let steady = params.steady_state().leechers;
    let tail = polled[(horizon as usize - 40)..]
        .iter()
        .map(|&(x, _)| x as f64)
        .sum::<f64>()
        / 40.0;
    assert!(
        (tail - steady).abs() / steady <= 0.18,
        "tail population {tail:.1} far from steady {steady:.1}"
    );
}
