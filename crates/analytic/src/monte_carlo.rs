//! Monte-Carlo estimation of mate distributions (§5.4.3, Figure 9).
//!
//! The paper validates Algorithm 3 by drawing one million Erdős–Rényi
//! realizations (`n = 5000`, `p = 1 %`, 2-matching), computing the stable
//! configuration of each, and histogramming the first/second choices of
//! peer 3000 — "simulations requiring several weeks" on 2006 hardware.
//!
//! # Lazy greedy sampling
//!
//! Under a global ranking the stable configuration is the greedy in rank
//! order (Algorithm 1): peer 0 takes its best neighbours with a free slot,
//! then peer 1 fills its remaining slots, and so on. The pair `(i, j > i)`
//! is therefore looked at by peer `i` alone, and the observed peer's mates
//! depend only on the greedy prefix up to its own rank. So no graph is
//! built: each peer `i ≤ peer` that still has a free slot walks the peers
//! `j > i` with the geometric skips of [`generators::erdos_renyi`]
//! (`⌊ln(1 − u) / ln(1 − p)⌋` absent pairs before the next present one),
//! matches every present `j` that has a free slot, and stops once it is
//! full or runs past `n`. Every pair is drawn at most once, independently
//! with probability `p`, so the observed mates are **exact in
//! distribution** — the same law as solving the whole stable
//! configuration of a full realization (a coupling test below checks
//! this against [`strat_core::stable_configuration`]). A realization at
//! the paper's size costs about a quarter of a millisecond, so the paper's
//! 10⁶ realizations take under two minutes on two threads.
//!
//! [`generators::erdos_renyi`]: strat_graph::generators::erdos_renyi
//!
//! # Determinism contract
//!
//! Every realization `r` draws from its **own** ChaCha8 stream
//! `(seed, stream = r + 1)`, so the estimate is a pure function of the
//! configuration — independent of [`MonteCarloConfig::threads`] and of OS
//! scheduling. Histograms produced with 1 thread and with N threads are
//! identical, bit for bit (covered by a unit test below).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Configuration of a Monte-Carlo estimation run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MonteCarloConfig {
    /// Number of peers.
    pub n: usize,
    /// Erdős–Rényi edge probability.
    pub p: f64,
    /// Slots per peer (constant `b₀`-matching).
    pub b0: u32,
    /// Number of independent graph realizations.
    pub realizations: u64,
    /// Base RNG seed; realization `r` uses stream `r + 1` of this seed.
    pub seed: u64,
    /// Worker threads (clamped to at least 1). Changes wall-clock time
    /// only, never the result.
    pub threads: usize,
}

impl MonteCarloConfig {
    /// The paper's Figure 9 setting, scaled down to `realizations` samples.
    #[must_use]
    pub fn figure9(realizations: u64) -> Self {
        Self {
            n: 5000,
            p: 0.01,
            b0: 2,
            realizations,
            seed: 0x51a7,
            threads: strat_par::default_threads(),
        }
    }
}

/// Per-choice mate-rank histograms for one observed peer.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChoiceHistogram {
    /// The observed peer (0-based rank).
    pub peer: usize,
    /// `counts[c][j]` = number of realizations in which choice `c+1` of the
    /// observed peer was peer `j`.
    pub counts: Vec<Vec<u64>>,
    /// Realizations in which the peer had fewer than `c+1` mates.
    pub missing: Vec<u64>,
    /// Total realizations.
    pub realizations: u64,
}

impl ChoiceHistogram {
    /// Empirical probability `D̂_c(peer, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `c ∉ 1..=b₀` or `j` is out of range.
    #[must_use]
    pub fn probability(&self, c: u32, j: usize) -> f64 {
        self.counts[(c - 1) as usize][j] as f64 / self.realizations as f64
    }

    /// Empirical probability that the peer had at least `c` mates.
    #[must_use]
    pub fn choice_mass(&self, c: u32) -> f64 {
        1.0 - self.missing[(c - 1) as usize] as f64 / self.realizations as f64
    }

    /// Empirical distribution row for choice `c` (probabilities over ranks).
    #[must_use]
    pub fn row(&self, c: u32) -> Vec<f64> {
        self.counts[(c - 1) as usize]
            .iter()
            .map(|&k| k as f64 / self.realizations as f64)
            .collect()
    }
}

/// One worker's partial histogram.
struct Partial {
    counts: Vec<Vec<u64>>,
    missing: Vec<u64>,
}

/// Reusable state of the lazy greedy sampler (see the module docs).
struct LazyGreedy {
    /// Filled slots per peer. Only the peers listed in `touched` are
    /// non-zero, so a realization resets just those.
    used: Vec<u32>,
    touched: Vec<usize>,
    /// The observed peer's mates in the current realization, best first.
    mates: Vec<usize>,
}

impl LazyGreedy {
    fn new(n: usize) -> Self {
        Self {
            used: vec![0; n],
            touched: Vec::new(),
            mates: Vec::new(),
        }
    }

    /// Draws one realization's mates of `peer`, best-ranked first (the
    /// order of `Matching::mates`). `reveal(i, j, present)` sees every pair
    /// `i < j` whose edge the walk drew; pairs it never reports cannot
    /// change the observed mates.
    fn sample<R, F>(&mut self, cfg: &MonteCarloConfig, peer: usize, rng: &mut R, mut reveal: F)
    where
        R: Rng + ?Sized,
        F: FnMut(usize, usize, bool),
    {
        for &v in &self.touched {
            self.used[v] = 0;
        }
        self.touched.clear();
        self.mates.clear();
        let (n, b) = (cfg.n, cfg.b0);
        // p = 0 leaves no finite skip (no edges); p = 1 makes every skip
        // zero (the complete graph).
        let log_q = (1.0 - cfg.p).ln();
        for i in 0..=peer {
            if self.used[peer] == b {
                break;
            }
            if self.used[i] == b {
                continue;
            }
            let mut j = i;
            loop {
                let u: f64 = rng.gen_range(0.0..1.0);
                let skip = ((1.0 - u).ln() / log_q).floor();
                let next = if skip.is_finite() && skip < (n - j) as f64 {
                    j + 1 + skip as usize
                } else {
                    n
                };
                for absent in j + 1..next {
                    reveal(i, absent, false);
                }
                if next >= n {
                    break;
                }
                reveal(i, next, true);
                j = next;
                if self.used[j] == b {
                    continue;
                }
                for v in [i, j] {
                    if self.used[v] == 0 {
                        self.touched.push(v);
                    }
                    self.used[v] += 1;
                }
                if j == peer {
                    self.mates.push(i);
                } else if i == peer {
                    self.mates.push(j);
                }
                if self.used[i] == b {
                    break;
                }
            }
        }
    }
}

/// Estimates the per-choice mate distribution of `peer` over
/// `cfg.realizations` independent Erdős–Rényi acceptance graphs, drawing
/// each realization's stable mates with the lazy greedy sampler of the
/// module docs (exact in distribution, no graph built).
///
/// Deterministic for a fixed `cfg.seed` — **regardless of
/// `cfg.threads`** — because realization `r` always draws from stream
/// `r + 1` of the base seed (see the module docs).
///
/// # Panics
///
/// Panics if `peer >= cfg.n` or `cfg.p ∉ [0, 1]`.
#[must_use]
pub fn estimate_choice_distribution(cfg: &MonteCarloConfig, peer: usize) -> ChoiceHistogram {
    assert!(
        peer < cfg.n,
        "observed peer {peer} out of range for n = {}",
        cfg.n
    );
    assert!(
        cfg.p.is_finite() && (0.0..=1.0).contains(&cfg.p),
        "p must be in [0, 1], got {}",
        cfg.p
    );
    let b = cfg.b0 as usize;

    // Contiguous blocks of realization indices; the block → worker mapping
    // is irrelevant to the result because streams are per-realization.
    let blocks = strat_par::chunk_ranges(cfg.realizations, cfg.threads.max(1));
    let partials: Vec<Partial> = strat_par::par_map(&blocks, cfg.threads.max(1), |_, block| {
        let mut partial = Partial {
            counts: vec![vec![0u64; cfg.n]; b],
            missing: vec![0u64; b],
        };
        let mut sampler = LazyGreedy::new(cfg.n);
        for r in block.clone() {
            let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
            rng.set_stream(r + 1);
            sampler.sample(cfg, peer, &mut rng, |_, _, _| {});
            for c in 0..b {
                match sampler.mates.get(c) {
                    Some(&mate) => partial.counts[c][mate] += 1,
                    None => partial.missing[c] += 1,
                }
            }
        }
        partial
    });

    let mut counts = vec![vec![0u64; cfg.n]; b];
    let mut missing = vec![0u64; b];
    for partial in partials {
        for c in 0..b {
            for j in 0..cfg.n {
                counts[c][j] += partial.counts[c][j];
            }
            missing[c] += partial.missing[c];
        }
    }
    ChoiceHistogram {
        peer,
        counts,
        missing,
        realizations: cfg.realizations,
    }
}

/// L1 distance between an empirical row and an analytic row (both over
/// ranks), a scale-free agreement measure for Figure 9-style validations.
#[must_use]
pub fn l1_distance(empirical: &[f64], analytic: &[f64]) -> f64 {
    empirical
        .iter()
        .zip(analytic)
        .map(|(e, a)| (e - a).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use strat_core::{stable_configuration, Capacities, GlobalRanking, RankedAcceptance};
    use strat_graph::{GraphBuilder, NodeId};

    use crate::b_matching;

    use super::*;

    fn small_cfg(realizations: u64) -> MonteCarloConfig {
        MonteCarloConfig {
            n: 120,
            p: 0.08,
            b0: 2,
            realizations,
            seed: 99,
            threads: 4,
        }
    }

    #[test]
    fn histogram_totals_are_consistent() {
        let cfg = small_cfg(400);
        let h = estimate_choice_distribution(&cfg, 60);
        for c in 0..2usize {
            let total: u64 = h.counts[c].iter().sum::<u64>() + h.missing[c];
            assert_eq!(total, 400, "choice {c}");
        }
        assert!(h.choice_mass(1) >= h.choice_mass(2));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = small_cfg(100);
        let a = estimate_choice_distribution(&cfg, 30);
        let b = estimate_choice_distribution(&cfg, 30);
        assert_eq!(a, b);
    }

    #[test]
    fn empirical_matches_analytic_within_sampling_error() {
        // The Figure 9 validation in miniature: empirical vs Algorithm 3.
        let cfg = small_cfg(4000);
        let h = estimate_choice_distribution(&cfg, 60);
        let analytic = b_matching::solve(cfg.n, cfg.p, cfg.b0, &[60]);
        for c in 1..=2u32 {
            let l1 = l1_distance(&h.row(c), analytic.choice_row(60, c).unwrap());
            // L1 over ~25 effective support points with 4000 samples:
            // statistical noise ~ sqrt(k/N) ≈ 0.08; independence bias adds a
            // little. 0.25 is a conservative gate that still fails badly
            // wrong implementations (uniform rows would score ~1.9).
            assert!(l1 < 0.25, "choice {c}: L1 = {l1}");
        }
    }

    #[test]
    fn thread_count_does_not_change_the_histogram() {
        // Per-realization streams: the full histogram (not just totals) is
        // identical for every thread count.
        let mut cfg = small_cfg(60);
        let reference = estimate_choice_distribution(&cfg, 10);
        for threads in [1usize, 2, 3, 8, 64] {
            cfg.threads = threads;
            let h = estimate_choice_distribution(&cfg, 10);
            assert_eq!(h, reference, "threads = {threads}");
        }
    }

    /// The full-graph oracle: complete the pairs the sampler revealed with
    /// independent draws for every other pair, solve the whole stable
    /// configuration, and the observed peer's mates must be the sampler's.
    #[test]
    fn lazy_mates_equal_the_full_stable_configuration() {
        for (n, p, b0) in [(60usize, 0.1, 1u32), (120, 0.08, 2), (80, 0.2, 3)] {
            let cfg = MonteCarloConfig {
                n,
                p,
                b0,
                realizations: 0,
                seed: 7,
                threads: 1,
            };
            let ranking = GlobalRanking::identity(n);
            let caps = Capacities::constant(n, b0);
            let mut sampler = LazyGreedy::new(n);
            let mut unrevealed = ChaCha8Rng::seed_from_u64(11);
            for peer in [0, n / 2, n - 1] {
                for r in 0..200u64 {
                    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
                    rng.set_stream(r + 1);
                    let mut revealed = vec![None; n * n];
                    sampler.sample(&cfg, peer, &mut rng, |i, j, present| {
                        assert!(i < j, "pair ({i}, {j}) revealed by the worse peer");
                        let previous = revealed[i * n + j].replace(present);
                        assert!(previous.is_none(), "pair ({i}, {j}) drawn twice");
                    });
                    let mut builder = GraphBuilder::new(n);
                    for i in 0..n {
                        for j in i + 1..n {
                            if revealed[i * n + j].unwrap_or_else(|| unrevealed.gen_bool(p)) {
                                builder.add_edge(NodeId::new(i), NodeId::new(j)).unwrap();
                            }
                        }
                    }
                    let acc = RankedAcceptance::new(builder.build(), ranking.clone()).unwrap();
                    let stable = stable_configuration(&acc, &caps).unwrap();
                    let want: Vec<usize> = stable
                        .mates(NodeId::new(peer))
                        .iter()
                        .map(|v| v.index())
                        .collect();
                    assert_eq!(
                        sampler.mates, want,
                        "n = {n}, p = {p}, b0 = {b0}, peer {peer}, realization {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn no_edges_leave_every_choice_missing() {
        let cfg = MonteCarloConfig {
            p: 0.0,
            ..small_cfg(50)
        };
        for peer in [0, 60, 119] {
            let h = estimate_choice_distribution(&cfg, peer);
            assert_eq!(h.missing, vec![50, 50], "peer {peer}");
            assert!(h.counts.iter().flatten().all(|&k| k == 0), "peer {peer}");
        }
    }

    #[test]
    fn complete_graph_pairs_peers_in_blocks_of_three() {
        // With b0 = 2 on the complete graph the greedy closes triangles
        // {0, 1, 2}, {3, 4, 5}, …; a trailing pair mates once, a trailing
        // single stays unmatched.
        for n in [9usize, 10, 11] {
            let cfg = MonteCarloConfig {
                n,
                p: 1.0,
                b0: 2,
                realizations: 30,
                seed: 3,
                threads: 2,
            };
            for peer in 0..n {
                let block = peer / 3 * 3;
                let mates: Vec<usize> =
                    (block..(block + 3).min(n)).filter(|&v| v != peer).collect();
                let h = estimate_choice_distribution(&cfg, peer);
                for c in 0..2 {
                    let mut counts = vec![0u64; n];
                    let mut missing = 30;
                    if let Some(&mate) = mates.get(c) {
                        counts[mate] = 30;
                        missing = 0;
                    }
                    assert_eq!(
                        h.counts[c],
                        counts,
                        "n = {n}, peer {peer}, choice {}",
                        c + 1
                    );
                    assert_eq!(
                        h.missing[c],
                        missing,
                        "n = {n}, peer {peer}, choice {}",
                        c + 1
                    );
                }
            }
        }
    }

    #[test]
    fn l1_distance_basics() {
        assert_eq!(l1_distance(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        assert!((l1_distance(&[1.0, 0.0], &[0.0, 1.0]) - 2.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_peer_panics() {
        let cfg = small_cfg(1);
        let _ = estimate_choice_distribution(&cfg, 500);
    }
}
