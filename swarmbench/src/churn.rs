//! `churn`: an open, faulted, compacting `Session` with high turnover,
//! driven one round at a time through the public
//! `membership_pass_with` / `round_pass_with` halves.
//!
//! Arrivals are a Poisson trace the benchmark draws from the seed: λ₁ per
//! round until `STEP_ROUND`, then λ₂. Completed leechers leave or linger,
//! crashes are repaired, and `compact_threshold` is armed. While arrivals
//! are high the population is stationary and is checked against the
//! abort-augmented fluid oracle; after the step down the dead-slot
//! fraction crosses the threshold and the arena compacts.

use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use strat_analytic::fluid::BtFluidParams;
use strat_bittorrent::session::{ArrivalProcess, DepartureRules, Session, SessionConfig};
use strat_bittorrent::{FaultPlan, RunObserver, Swarm, SwarmConfig};

use crate::flash::swarm_fingerprint;
use crate::report::{mix, Checks, Fingerprint};
use crate::trace::Tracer;
use crate::{Layers, Solve, TracedRun, Workload, ONE_THREAD, SPANS};

const PIECES: usize = 64;
const PIECE_KBIT: f64 = 1000.0;
const UPLOAD_KBPS: f64 = 400.0;
/// Publisher seeds: never depart, never crash.
const SEEDS: usize = 20;
const LAMBDA_HIGH: f64 = 2000.0;
const LAMBDA_LOW: f64 = 500.0;
const STEP_ROUND: u64 = 70;
const ROUNDS: u64 = 100;
/// Rounds before the stationary window `[WARMUP, STEP_ROUND)` opens.
const WARMUP: u64 = 20;
const LEAVE_ON_COMPLETION: f64 = 0.5;
const SEED_LEAVE: f64 = 0.3;
const CRASH: f64 = 0.01;
const COMPACT_THRESHOLD: f64 = 0.5;
/// btfault's band around the abort-augmented oracle.
const ORACLE_BAND: f64 = 0.25;

pub struct Churn {
    pub seed: u64,
}

pub struct Instance {
    session: Session,
    initial: usize,
    /// Downloading peers after each round.
    leechers: Vec<f64>,
    /// Present peers entering each round pass.
    live: Vec<f64>,
    round_pass_s: Vec<f64>,
    /// Whether the round's pass compacted the arena.
    compacted: Vec<bool>,
}

/// The abort-augmented fluid model of the stationary regime: crashes are
/// aborts (θ) and compound the lingering-seed departure rate, and a
/// completion lingers only with probability `1 − LEAVE_ON_COMPLETION`,
/// which scales the promoted-seed departure rate by `1/(1 − leave)`.
fn oracle() -> BtFluidParams {
    let round_seconds = 10.0;
    let gamma = 1.0 - (1.0 - SEED_LEAVE) * (1.0 - CRASH);
    BtFluidParams {
        lambda: LAMBDA_HIGH,
        mu: UPLOAD_KBPS * round_seconds / (PIECES as f64 * PIECE_KBIT),
        gamma: gamma / (1.0 - LEAVE_ON_COMPLETION),
        theta: CRASH,
        eta: 1.0,
        s0: SEEDS as f64,
    }
}

/// A Poisson(λ) draw, chunked so each exponential stays representable.
fn poisson(rng: &mut ChaCha8Rng, lambda: f64) -> u32 {
    let mut remaining = lambda;
    let mut total = 0;
    while remaining > 0.0 {
        let chunk = remaining.min(16.0);
        remaining -= chunk;
        let limit = (-chunk).exp();
        let mut product: f64 = rng.gen_range(0.0..1.0);
        while product > limit {
            total += 1;
            product *= rng.gen_range(0.0..1.0);
        }
    }
    total
}

impl Workload for Churn {
    type Instance = Instance;
    const REPS: (usize, usize) = (3, 10);
    const TAIL_PCT: f64 = 95.0;
    const OBSERVED: bool = true;
    const SINGLE_THREAD_CHECK: bool = true;

    fn build(&self, rep: u64, tr: &mut Tracer) -> (Instance, f64) {
        let seed = mix(self.seed, 0xc4a9 + rep);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let arrivals = (0..ROUNDS)
            .map(|r| {
                let lambda = if r < STEP_ROUND {
                    LAMBDA_HIGH
                } else {
                    LAMBDA_LOW
                };
                (r, poisson(&mut rng, lambda))
            })
            .collect();
        let leechers = oracle().steady_state().leechers.round() as usize;
        let config = SwarmConfig::builder()
            .leechers(leechers)
            .seeds(SEEDS)
            .piece_count(PIECES)
            .piece_size_kbit(PIECE_KBIT)
            .initial_completion(0.5)
            .mean_neighbors(20.0)
            .seed(seed)
            .build();
        let uploads = vec![UPLOAD_KBPS; leechers + SEEDS];
        let session_config = SessionConfig {
            arrival: ArrivalProcess::Trace { arrivals },
            departure: DepartureRules {
                leave_on_completion: LEAVE_ON_COMPLETION,
                seed_leave_prob: SEED_LEAVE,
                seed_exodus_round: None,
                abort_prob: 0.0,
            },
            arrival_upload_kbps: UPLOAD_KBPS,
            target_degree: 20,
            session_seed: mix(seed, 1),
            compact_threshold: Some(COMPACT_THRESHOLD),
            ..SessionConfig::default()
        };
        let faults = FaultPlan {
            crash_prob: CRASH,
            fault_seed: mix(seed, 2),
            ..FaultPlan::none()
        };
        let (swarm, build_s) = tr.span("swarm.build", |_| Swarm::new(config, &uploads));
        let (session, new_s) = tr.span("session.new", |_| {
            Session::with_faults(swarm, session_config, faults)
        });
        let inst = Instance {
            initial: session.population().total(),
            session,
            leechers: Vec::new(),
            live: Vec::new(),
            round_pass_s: Vec::new(),
            compacted: Vec::new(),
        };
        (inst, build_s + new_s)
    }

    fn solve<O: RunObserver + Clone>(
        &self,
        inst: &mut Instance,
        threads: usize,
        obs: &O,
        tr: &mut Tracer,
    ) -> Solve {
        let session = &mut inst.session;
        let start = Instant::now();
        let mut step_ms = Vec::new();
        for _ in 0..ROUNDS {
            let ((), membership_s) = tr.span("session.membership", |_| {
                session.membership_pass_with(obs);
            });
            let live = session.population().total() as f64;
            let before = session.compactions();
            let ((), round_s) = tr.span("session.round_pass", |_| {
                session.round_pass_with(Some(threads), obs);
            });
            step_ms.push((membership_s + round_s) * 1e3);
            inst.live.push(live);
            inst.round_pass_s.push(round_s);
            inst.compacted.push(session.compactions() > before);
            inst.leechers.push(session.population().downloading as f64);
        }
        Solve {
            wall_s: start.elapsed().as_secs_f64(),
            work: inst.live.iter().sum(),
            step_ms,
        }
    }

    fn check(&self, inst: &Instance, checks: &mut Checks) {
        let session = &inst.session;
        let stats = session.stats();
        let present = session.population().total();
        checks.check(
            "churn: initial + arrivals - departures (crashes included) = population",
            inst.initial as u64 + stats.arrivals - stats.departures == present as u64,
            format!(
                "{} + {} - {} vs {present}",
                inst.initial, stats.arrivals, stats.departures
            ),
        );
        checks.check(
            "churn: crashes fire and the repair pass rewires",
            stats.crashes > 0 && stats.repaired_edges > 0,
            format!(
                "{} crashes, {} repaired edges",
                stats.crashes, stats.repaired_edges
            ),
        );
        checks.check(
            "churn: the arena compacts after the arrival step down",
            session.compactions() >= 1,
            format!("{} compactions", session.compactions()),
        );
        let window = &inst.leechers[WARMUP as usize..STEP_ROUND as usize];
        let measured = window.iter().sum::<f64>() / window.len() as f64;
        let predicted = oracle().steady_state().leechers;
        let err = (measured - predicted).abs() / predicted;
        checks.check(
            "churn: stationary leechers within 25% of the abort-augmented fluid oracle",
            err <= ORACLE_BAND,
            format!("measured {measured:.0}, oracle {predicted:.0}, error {err:.3}"),
        );
    }

    fn fingerprint(&self, inst: &Instance) -> u64 {
        let session = &inst.session;
        let stats = session.stats();
        let mut f = Fingerprint::default();
        for x in [
            stats.arrivals,
            stats.departures,
            stats.completions,
            stats.crashes,
            stats.repaired_edges,
            session.compactions(),
            swarm_fingerprint(session.swarm()),
        ] {
            f.u64(x);
        }
        for &(arrived, completed) in &stats.completion_records {
            f.u64(arrived);
            f.u64(completed);
        }
        f.finish()
    }

    fn layers(&self, run: &TracedRun<Instance>, out: &mut Layers) {
        let (tr, inst) = (run.tracer, run.inst);
        let stats = inst.session.stats();
        // Round passes that did not compact are the swarm round plus
        // completion recording; compacting ones are reported apart.
        let (mut plain_s, mut plain_live, mut compact_s) = (0.0, 0.0, Vec::new());
        for ((&s, &live), &compacted) in inst
            .round_pass_s
            .iter()
            .zip(&inst.live)
            .zip(&inst.compacted)
        {
            if compacted {
                compact_s.push(s * 1e3);
            } else {
                plain_s += s;
                plain_live += live;
            }
        }
        let membership = tr.self_s(SPANS, "session.membership");
        let round_pass = tr.self_s(SPANS, "session.round_pass");
        out.set("swarm.build_s", tr.self_s(SPANS, "swarm.build"));
        out.set("swarm.round_busy_s", plain_s);
        out.set("swarm.rounds", ROUNDS as f64);
        out.set("swarm.ns_per_peer_round", plain_s * 1e9 / plain_live);
        out.set(
            "swarm.par_speedup",
            tr.self_s(ONE_THREAD, "session.round_pass") / round_pass,
        );
        out.swarm_counts(&run.counts, PIECE_KBIT);
        out.set("session.membership_busy_s", membership);
        out.set(
            "session.us_per_membership_event",
            membership * 1e6 / (stats.arrivals + stats.departures) as f64,
        );
        out.set("session.round_pass_busy_s", round_pass);
        out.set("session.arrivals", stats.arrivals as f64);
        out.set("session.departures", stats.departures as f64);
        out.set("session.completions", stats.completions as f64);
        out.set("faults.crashes", stats.crashes as f64);
        out.set("faults.repaired_edges", stats.repaired_edges as f64);
        out.set("session.compactions", inst.session.compactions() as f64);
        if !compact_s.is_empty() {
            out.set(
                "session.compact_round_ms",
                compact_s.iter().sum::<f64>() / compact_s.len() as f64,
            );
        }
    }
}
