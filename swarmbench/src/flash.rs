//! `flash`: a closed n = 10⁵ flash crowd (the btflash / `scale_smoke`
//! geometry) run with the indexed parallel round engine until every
//! leecher holds the file. The round engine does all the work and the
//! session layers none, so a round-engine change shows here and a
//! membership change should not.

use std::time::Instant;

use strat_bittorrent::{RunObserver, Swarm, SwarmConfig};

use crate::report::{mix, spearman, Checks, Fingerprint};
use crate::trace::Tracer;
use crate::{Layers, Solve, TracedRun, Workload, ONE_THREAD, SPANS};

const LEECHERS: usize = 100_000;
const SEEDS: usize = 20;
const PIECES: usize = 128;
const PIECE_KBIT: f64 = 1024.0;
/// A round cap far above the ~28 rounds completion takes, so a stalled
/// swarm fails its completion check instead of hanging the run.
const MAX_ROUNDS: u64 = 300;

pub struct Flash {
    pub seed: u64,
}

pub struct Instance {
    swarm: Swarm,
}

fn uploads() -> Vec<f64> {
    (0..LEECHERS + SEEDS)
        .map(|i| 150.0 + (i % 97) as f64 * 10.0)
        .collect()
}

impl Workload for Flash {
    type Instance = Instance;
    const REPS: (usize, usize) = (4, 12);
    const TAIL_PCT: f64 = 90.0;
    const OBSERVED: bool = true;
    const SINGLE_THREAD_CHECK: bool = true;

    fn build(&self, rep: u64, tr: &mut Tracer) -> (Instance, f64) {
        let config = SwarmConfig::builder()
            .leechers(LEECHERS)
            .seeds(SEEDS)
            .piece_count(PIECES)
            .piece_size_kbit(PIECE_KBIT)
            .initial_completion(0.02)
            .mean_neighbors(20.0)
            .seed(mix(self.seed, 0xf1a5 + rep))
            .build();
        let uploads = uploads();
        let (swarm, s) = tr.span("swarm.build", |_| Swarm::new(config, &uploads));
        (Instance { swarm }, s)
    }

    fn solve<O: RunObserver + Clone>(
        &self,
        inst: &mut Instance,
        threads: usize,
        obs: &O,
        tr: &mut Tracer,
    ) -> Solve {
        let swarm = &mut inst.swarm;
        let start = Instant::now();
        let mut step_ms = Vec::new();
        while swarm.completed() < LEECHERS && swarm.round_count() < MAX_ROUNDS {
            let ((), s) = tr.span("swarm.round", |_| {
                swarm.run_rounds_parallel_with(1, threads, obs);
            });
            step_ms.push(s * 1e3);
        }
        Solve {
            wall_s: start.elapsed().as_secs_f64(),
            work: (step_ms.len() * (LEECHERS + SEEDS)) as f64,
            step_ms,
        }
    }

    fn check(&self, inst: &Instance, checks: &mut Checks) {
        let swarm = &inst.swarm;
        checks.check(
            "flash: every leecher completes",
            swarm.completed() == LEECHERS,
            format!(
                "{} of {LEECHERS} after {} rounds",
                swarm.completed(),
                swarm.round_count()
            ),
        );
        let n = swarm.peer_count();
        let up: f64 = (0..n).map(|p| swarm.peer(p).total_uploaded()).sum();
        let down: f64 = (0..n).map(|p| swarm.peer(p).total_downloaded()).sum();
        checks.check(
            "flash: uploaded kbit equal downloaded kbit (to summation rounding)",
            (up - down).abs() <= 1e-12 * up,
            format!("up {up} down {down}"),
        );
        let leechers: Vec<usize> = (0..n)
            .filter(|&p| !swarm.peer(p).is_original_seed())
            .collect();
        let rate: Vec<f64> = leechers
            .iter()
            .map(|&p| swarm.peer(p).upload_kbps())
            .collect();
        let done: Vec<f64> = leechers
            .iter()
            .map(|&p| {
                swarm
                    .peer(p)
                    .completed_round()
                    .map_or(f64::MAX, |r| r as f64)
            })
            .collect();
        let rho = spearman(&rate, &done);
        checks.check(
            "flash: stratification, Spearman(upload, completion round) <= -0.4",
            rho <= -0.4,
            format!("rho {rho:.3}"),
        );
    }

    fn fingerprint(&self, inst: &Instance) -> u64 {
        swarm_fingerprint(&inst.swarm)
    }

    fn layers(&self, run: &TracedRun<Instance>, out: &mut Layers) {
        let tr = run.tracer;
        let busy = tr.self_s(SPANS, "swarm.round");
        let rounds = run.solve.step_ms.len() as f64;
        out.set("swarm.build_s", tr.self_s(SPANS, "swarm.build"));
        out.set("swarm.round_busy_s", busy);
        out.set("swarm.rounds", rounds);
        out.set(
            "swarm.ns_per_peer_round",
            busy * 1e9 / (rounds * (LEECHERS + SEEDS) as f64),
        );
        out.set(
            "swarm.par_speedup",
            tr.self_s(ONE_THREAD, "swarm.round") / busy,
        );
        out.swarm_counts(&run.counts, PIECE_KBIT);
    }
}

/// Per-slot upload/download totals and completion rounds, plus the round
/// count: everything a swarm run outputs.
pub fn swarm_fingerprint(swarm: &Swarm) -> u64 {
    let mut f = Fingerprint::default();
    f.u64(swarm.round_count());
    for p in 0..swarm.peer_count() {
        let peer = swarm.peer(p);
        f.f64(peer.total_uploaded());
        f.f64(peer.total_downloaded());
        f.u64(peer.completed_round().unwrap_or(u64::MAX));
        f.u64(peer.pieces().count() as u64);
    }
    f.finish()
}
