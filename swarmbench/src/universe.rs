//! `universe`: eight torrents over one shared member population. Every
//! member joins one extra torrent, its capacity is split across its
//! replicas by demand, and each torrent has its own Poisson churn. The
//! swarm layer runs as many small swarms here, and the universe's claim,
//! sync and rebalance coordinator runs at scale, which no other workload
//! exercises.

use std::time::Instant;

use strat_bittorrent::session::{ArrivalProcess, DepartureRules, Session, SessionConfig};
use strat_bittorrent::universe::{
    derive_seed, CapacitySplit, MembershipModel, Universe, UniverseConfig,
};
use strat_bittorrent::{RunObserver, Swarm, SwarmConfig};

use crate::flash::swarm_fingerprint;
use crate::report::{mix, Checks, Fingerprint};
use crate::trace::Tracer;
use crate::{Layers, Solve, TracedRun, Workload, SPANS};

const TORRENTS: usize = 8;
const PIECES: usize = 128;
const PIECE_KBIT: f64 = 250.0;
const UPLOAD_KBPS: f64 = 400.0;
/// Capacity classes `[1/s, 1, s] · 400` kbps, assigned round-robin.
const CLASS_KBPS: [f64; 3] = [UPLOAD_KBPS / 1.35, UPLOAD_KBPS, UPLOAD_KBPS * 1.35];
const SEEDS: usize = 3;
/// Initial leechers per torrent; each also joins one other torrent.
const INITIAL_LEECHERS: usize = 1200;
const LAMBDA: f64 = 120.0;
const GAMMA: f64 = 0.35;
const STEPS: u64 = 60;
/// Completions of members that arrived before this round are transient.
const WARMUP: u64 = 15;

pub struct UniverseBench {
    pub seed: u64,
}

pub struct Instance {
    universe: Universe,
}

impl Workload for UniverseBench {
    type Instance = Instance;
    const REPS: (usize, usize) = (3, 10);
    const TAIL_PCT: f64 = 90.0;
    const OBSERVED: bool = true;
    const SINGLE_THREAD_CHECK: bool = false;

    fn build(&self, rep: u64, tr: &mut Tracer) -> (Instance, f64) {
        let seed = mix(self.seed, 0x0a11 + rep);
        let mut setup_s = 0.0;
        let mut sessions = Vec::with_capacity(TORRENTS);
        for t in 0..TORRENTS as u64 {
            let config = SwarmConfig::builder()
                .leechers(INITIAL_LEECHERS)
                .seeds(SEEDS)
                .piece_count(PIECES)
                .piece_size_kbit(PIECE_KBIT)
                .initial_completion(0.5)
                .mean_neighbors(20.0)
                .seed(derive_seed(seed, t))
                .build();
            let uploads = vec![UPLOAD_KBPS; INITIAL_LEECHERS + SEEDS];
            let session_config = SessionConfig {
                arrival: ArrivalProcess::Poisson { rate: LAMBDA },
                departure: DepartureRules {
                    seed_leave_prob: GAMMA,
                    ..DepartureRules::none()
                },
                arrival_upload_kbps: UPLOAD_KBPS,
                target_degree: 20,
                session_seed: derive_seed(mix(seed, 1), t),
                ..SessionConfig::default()
            };
            let (swarm, build_s) = tr.span("swarm.build", |_| Swarm::new(config, &uploads));
            let (session, new_s) = tr.span("session.new", |_| Session::new(swarm, session_config));
            sessions.push(session);
            setup_s += build_s + new_s;
        }
        let config = UniverseConfig {
            membership: MembershipModel::Fixed { extra: 1 },
            split: CapacitySplit::DemandWeighted,
            class_upload_kbps: CLASS_KBPS.to_vec(),
            popularity: Vec::new(),
            universe_seed: mix(seed, 2),
        };
        let (universe, new_s) = tr.span("universe.new", |_| Universe::new(sessions, config));
        (Instance { universe }, setup_s + new_s)
    }

    fn solve<O: RunObserver + Clone>(
        &self,
        inst: &mut Instance,
        threads: usize,
        obs: &O,
        tr: &mut Tracer,
    ) -> Solve {
        let universe = &mut inst.universe;
        let observers = vec![obs.clone(); TORRENTS];
        let start = Instant::now();
        let mut step_ms = Vec::new();
        let mut replica_rounds = 0.0;
        for _ in 0..STEPS {
            replica_rounds += universe
                .sessions()
                .iter()
                .map(|s| s.population().total() as f64)
                .sum::<f64>();
            let ((), s) = tr.span("universe.step", |_| {
                universe.step(Some(threads), &observers);
            });
            step_ms.push(s * 1e3);
        }
        Solve {
            wall_s: start.elapsed().as_secs_f64(),
            work: replica_rounds,
            step_ms,
        }
    }

    fn check(&self, inst: &Instance, checks: &mut Checks) {
        let universe = &inst.universe;
        let mut split_errors = 0;
        let mut active = 0;
        for m in 0..universe.member_count() {
            if !universe.member_is_active(m) {
                continue;
            }
            active += 1;
            let capacity = universe.member_capacity(m);
            let split: Option<f64> = universe
                .member_replicas(m)
                .map(|(t, id)| {
                    let session = universe.session(t);
                    session
                        .resolve(id)
                        .map(|slot| session.swarm().peer(slot).upload_kbps())
                })
                .sum();
            if split.is_none_or(|s| (s - capacity).abs() > 1e-9 * capacity) {
                split_errors += 1;
            }
        }
        checks.check(
            "universe: every active member's replica capacities sum to its capacity",
            split_errors == 0,
            format!("{split_errors} of {active} active members off"),
        );

        let mut sums = [0.0f64; 3];
        let mut counts = [0u64; 3];
        for rec in &universe.stats().completion_records {
            let class = rec.class as usize;
            if class < 3 && rec.arrival_round >= WARMUP {
                sums[class] += (rec.completed_round - rec.arrival_round) as f64;
                counts[class] += 1;
            }
        }
        let means: Vec<f64> = (0..3).map(|c| sums[c] / counts[c] as f64).collect();
        checks.check(
            "universe: download times ordered slow > mid > fast class",
            counts.iter().all(|&n| n > 0) && means[0] > means[1] && means[1] > means[2],
            format!("mean rounds {means:.2?} over {counts:?} completions"),
        );
        let stats = universe.stats();
        checks.check(
            "universe: members cross-join, depart and complete",
            stats.cross_joins > 0
                && stats.member_departures > 0
                && stats.replica_departures > 0
                && stats.completions > 0,
            format!(
                "{} cross-joins, {} member and {} replica departures, {} completions",
                stats.cross_joins,
                stats.member_departures,
                stats.replica_departures,
                stats.completions
            ),
        );
    }

    fn fingerprint(&self, inst: &Instance) -> u64 {
        let universe = &inst.universe;
        let stats = universe.stats();
        let mut f = Fingerprint::default();
        for x in [
            stats.members,
            stats.cross_joins,
            stats.member_departures,
            stats.replica_departures,
            stats.completions,
        ] {
            f.u64(x);
        }
        for rec in &stats.completion_records {
            f.u64(u64::from(rec.member));
            f.u64(u64::from(rec.torrent));
            f.u64(rec.completed_round);
        }
        for session in universe.sessions() {
            f.u64(swarm_fingerprint(session.swarm()));
        }
        f.finish()
    }

    fn layers(&self, run: &TracedRun<Instance>, out: &mut Layers) {
        let tr = run.tracer;
        let universe = &run.inst.universe;
        let stats = universe.stats();
        let busy = tr.self_s(SPANS, "universe.step");
        out.set("swarm.build_s", tr.self_s(SPANS, "swarm.build"));
        out.set("swarm.rounds", (STEPS as usize * TORRENTS) as f64);
        out.swarm_counts(&run.counts, PIECE_KBIT);
        let sum = |f: fn(&Session) -> u64| universe.sessions().iter().map(f).sum::<u64>() as f64;
        out.set("session.arrivals", sum(|s| s.stats().arrivals));
        out.set("session.departures", sum(|s| s.stats().departures));
        out.set("session.completions", sum(|s| s.stats().completions));
        out.set("universe.build_s", tr.self_s(SPANS, "universe.new"));
        out.set("universe.step_busy_s", busy);
        out.set("universe.ns_per_replica_round", busy * 1e9 / run.solve.work);
        out.set("universe.members", stats.members as f64);
        out.set("universe.cross_joins", stats.cross_joins as f64);
        out.set("universe.member_departures", stats.member_departures as f64);
        out.set(
            "universe.replica_departures",
            stats.replica_departures as f64,
        );
        out.set("universe.completions", stats.completions as f64);
    }
}
