//! Seed-faithful reference implementation of the swarm round loop.
//!
//! [`RefSwarm`] is the pre-data-oriented engine: one heap-allocated
//! [`RefPeer`] per peer, per-round `Vec` construction inside the rechoke
//! loop, and linear `position()` scans to locate reverse edges. It exists
//! for the same two reasons as `strat_core::reference` and is **not**
//! meant for production use:
//!
//! 1. **Differential testing** — `tests/differential.rs` asserts the
//!    optimized [`Swarm`](crate::Swarm) is bit-identical to this engine
//!    (same totals, same unchoke sets, same piece sets) for the serial
//!    round, and that [`RefSwarm::round_indexed`] matches
//!    [`Swarm::run_rounds_parallel`](crate::Swarm::run_rounds_parallel)
//!    for every thread count;
//! 2. **Benchmarking** — the `swarm/*` pairs in `strat-bench` measure
//!    this engine against the optimized one, keeping the speedup a
//!    number rather than a claim.
//!
//! RNG discipline: [`RefSwarm::round`] consumes the shared ChaCha stream
//! in exactly the same order and quantity as [`Swarm::round`](crate::Swarm::round)
//! (construction draws, per-seed shuffles, optimistic rotations), so both
//! engines stay in lockstep on a shared seed for their entire run.
//! [`RefSwarm::round_indexed`] instead derives one stream per
//! `(round, peer)` pair — the parallel-round semantics — from the same
//! `streams::PEER_ROUND` family the optimized engine draws from.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use strat_graph::{generators, NodeId};

use crate::streams;
use crate::{PeerBehavior, PeerId, PieceSet, SwarmConfig};

/// The historical one-scan rarest-first prefetch: the first `want` picks
/// among the pieces `other` has and `q` lacks, sorted in pick order and
/// packed `(availability << 32) | piece`. This is exactly the sequence
/// `want` successive [`PieceSet::rarest_missing_from`] + insert steps
/// produce: inserting a pick removes it from the candidate set and bumps
/// only its *own* availability, so the remaining candidates'
/// `(availability, index)` keys never change.
///
/// Retained as the differential oracle for the optimized engine's
/// incrementally ordered availability index (`crate::avail`); the
/// per-pick scan used by the live [`RefSwarm`] paths is
/// [`PieceSet::rarest_missing_from`].
#[cfg(test)]
pub(crate) fn batch_rarest_picks_scan(
    q: &PieceSet,
    other: &PieceSet,
    availability: &[u32],
    want: usize,
    out: &mut Vec<u64>,
) {
    out.clear();
    if want == 0 {
        return;
    }
    for i in q.missing_from(other) {
        let key = (u64::from(availability[i]) << 32) | i as u64;
        if out.len() < want {
            let pos = out.partition_point(|&k| k < key);
            out.insert(pos, key);
        } else if key < *out.last().expect("non-empty at capacity") {
            let pos = out.partition_point(|&k| k < key);
            out.pop();
            out.insert(pos, key);
        }
    }
}

/// Per-peer simulation state of the reference engine (the original
/// array-of-structs layout).
#[derive(Debug, Clone)]
pub struct RefPeer {
    /// Upload capacity in kbps.
    upload_kbps: f64,
    /// Choking behavior.
    behavior: PeerBehavior,
    /// Pieces currently held.
    pieces: PieceSet,
    /// Whether this peer started as a seed.
    original_seed: bool,
    /// Round at which the file completed (leechers only).
    completed_round: Option<u64>,
    /// kbit received from each neighbour during the previous round.
    received_prev: Vec<f64>,
    /// kbit received from each neighbour during the current round.
    received_curr: Vec<f64>,
    /// Download credit (kbit) accumulated towards the next piece, per
    /// neighbour.
    credit: Vec<f64>,
    /// Neighbour positions currently TFT-unchoked.
    tft_unchoked: Vec<usize>,
    /// Neighbour position currently optimistically unchoked.
    optimistic: Option<usize>,
    /// Cumulative kbit uploaded / downloaded.
    total_up: f64,
    total_down: f64,
    /// Cumulative kbit uploaded / downloaded on reciprocation (TFT) slots.
    tft_up: f64,
    tft_down: f64,
}

impl RefPeer {
    /// Upload capacity in kbps.
    #[must_use]
    pub fn upload_kbps(&self) -> f64 {
        self.upload_kbps
    }

    /// The peer's choking behavior.
    #[must_use]
    pub fn behavior(&self) -> PeerBehavior {
        self.behavior
    }

    /// The pieces currently held.
    #[must_use]
    pub fn pieces(&self) -> &PieceSet {
        &self.pieces
    }

    /// Whether this peer started as a seed.
    #[must_use]
    pub fn is_original_seed(&self) -> bool {
        self.original_seed
    }

    /// Round at which a leecher completed the file.
    #[must_use]
    pub fn completed_round(&self) -> Option<u64> {
        self.completed_round
    }

    /// Cumulative kilobits uploaded.
    #[must_use]
    pub fn total_uploaded(&self) -> f64 {
        self.total_up
    }

    /// Cumulative kilobits downloaded.
    #[must_use]
    pub fn total_downloaded(&self) -> f64 {
        self.total_down
    }

    /// Kilobits uploaded through TFT (non-optimistic) slots.
    #[must_use]
    pub fn tft_uploaded(&self) -> f64 {
        self.tft_up
    }

    /// Kilobits received from senders' TFT (non-optimistic) slots.
    #[must_use]
    pub fn tft_downloaded(&self) -> f64 {
        self.tft_down
    }
}

/// The seed-faithful swarm engine (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct RefSwarm {
    config: SwarmConfig,
    rng: ChaCha8Rng,
    /// Overlay adjacency: `neighbors[p]` lists the peers `p` knows.
    neighbors: Vec<Vec<PeerId>>,
    peers: Vec<RefPeer>,
    /// Global piece availability (holder counts), kept incrementally.
    availability: Vec<u32>,
    round: u64,
}

impl RefSwarm {
    /// Builds a reference swarm; identical construction (same RNG
    /// consumption, same initial state) as [`Swarm::new`](crate::Swarm::new).
    ///
    /// # Panics
    ///
    /// Panics if `upload_kbps.len() != leechers + seeds` or any capacity is
    /// non-positive.
    #[must_use]
    pub fn new(config: SwarmConfig, upload_kbps: &[f64]) -> Self {
        let behaviors = vec![PeerBehavior::Compliant; config.leechers + config.seeds];
        Self::with_behaviors(config, upload_kbps, &behaviors)
    }

    /// Builds a reference swarm with an explicit behavior mix; identical
    /// construction as [`Swarm::with_behaviors`](crate::Swarm::with_behaviors).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`RefSwarm::new`], or if
    /// `behaviors.len()` disagrees with the peer count.
    #[must_use]
    pub fn with_behaviors(
        config: SwarmConfig,
        upload_kbps: &[f64],
        behaviors: &[PeerBehavior],
    ) -> Self {
        let n = config.leechers + config.seeds;
        assert_eq!(upload_kbps.len(), n, "need one upload capacity per peer");
        assert_eq!(behaviors.len(), n, "need one behavior per peer");
        assert!(
            upload_kbps.iter().all(|&u| u.is_finite() && u > 0.0),
            "upload capacities must be positive"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

        // Tracker overlay: Erdős–Rényi with the requested expected degree.
        let overlay = generators::erdos_renyi_mean_degree(n, config.mean_neighbors, &mut rng);
        let neighbors: Vec<Vec<PeerId>> = (0..n)
            .map(|p| {
                overlay
                    .neighbors(NodeId::new(p))
                    .iter()
                    .map(|v| v.index())
                    .collect()
            })
            .collect();

        let mut peers: Vec<RefPeer> = (0..n)
            .map(|p| {
                let is_seed = p >= config.leechers;
                let pieces = if is_seed {
                    PieceSet::full(config.piece_count)
                } else {
                    let mut set = PieceSet::new(config.piece_count);
                    for i in 0..config.piece_count {
                        if rng.gen_bool(config.initial_completion) {
                            set.insert(i);
                        }
                    }
                    set
                };
                let deg = neighbors[p].len();
                RefPeer {
                    upload_kbps: upload_kbps[p],
                    behavior: behaviors[p],
                    pieces,
                    original_seed: is_seed,
                    completed_round: None,
                    received_prev: vec![0.0; deg],
                    received_curr: vec![0.0; deg],
                    credit: vec![0.0; deg],
                    tft_unchoked: Vec::new(),
                    optimistic: None,
                    total_up: 0.0,
                    total_down: 0.0,
                    tft_up: 0.0,
                    tft_down: 0.0,
                }
            })
            .collect();
        // A leecher may complete by lucky initialization.
        for peer in &mut peers {
            if !peer.original_seed && peer.pieces.is_complete() {
                peer.completed_round = Some(0);
            }
        }

        let mut availability = vec![0u32; config.piece_count];
        for peer in &peers {
            for (i, a) in availability.iter_mut().enumerate() {
                *a += u32::from(peer.pieces.contains(i));
            }
        }
        Self {
            config,
            rng,
            neighbors,
            peers,
            availability,
            round: 0,
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SwarmConfig {
        &self.config
    }

    /// Number of peers.
    #[must_use]
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Read access to peer `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn peer(&self, p: PeerId) -> &RefPeer {
        &self.peers[p]
    }

    /// Rounds simulated so far.
    #[must_use]
    pub fn round_count(&self) -> u64 {
        self.round
    }

    /// Global availability (holder count) per piece.
    #[must_use]
    pub fn availability(&self) -> &[u32] {
        &self.availability
    }

    /// The peers `p` is currently TFT-unchoking.
    #[must_use]
    pub fn tft_unchoked(&self, p: PeerId) -> Vec<PeerId> {
        self.peers[p]
            .tft_unchoked
            .iter()
            .map(|&k| self.neighbors[p][k])
            .collect()
    }

    /// The peer `p` is currently optimistically unchoking, if any.
    #[must_use]
    pub fn optimistic_unchoked(&self, p: PeerId) -> Option<PeerId> {
        self.peers[p].optimistic.map(|k| self.neighbors[p][k])
    }

    /// Simulates one round (rechoke, then transfer) with the shared serial
    /// RNG — the semantics [`Swarm::round`](crate::Swarm::round) must
    /// reproduce bit-for-bit.
    pub fn round(&mut self) {
        self.rechoke();
        self.transfer();
        self.round += 1;
        for peer in &mut self.peers {
            core::mem::swap(&mut peer.received_prev, &mut peer.received_curr);
            peer.received_curr.iter_mut().for_each(|r| *r = 0.0);
        }
    }

    /// Runs `rounds` serial rounds.
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.round();
        }
    }

    /// Whether `q` is interested in `p`'s content.
    fn interested(&self, q: PeerId, p: PeerId) -> bool {
        if self.config.fluid_content {
            return q != p && !self.peers[q].original_seed;
        }
        self.peers[q].pieces.is_interested_in(&self.peers[p].pieces)
    }

    /// Whether `p` rechokes like a seed (no reciprocation signal).
    fn acts_as_seed(&self, p: PeerId) -> bool {
        if self.peers[p].behavior.ignores_reciprocation() {
            return true;
        }
        if self.config.fluid_content {
            self.peers[p].original_seed
        } else {
            self.peers[p].pieces.is_complete()
        }
    }

    /// Whether `p` currently uploads at all.
    fn uploads(&self, p: PeerId) -> bool {
        let peer = &self.peers[p];
        if !peer.behavior.uploads() {
            return false;
        }
        if !self.config.fluid_content && peer.pieces.is_complete() && !peer.original_seed {
            self.config.seed_after_completion
        } else {
            true
        }
    }

    fn rechoke(&mut self) {
        let n = self.peers.len();
        let rotate_optimistic = self
            .round
            .is_multiple_of(u64::from(self.config.optimistic_period));
        for p in 0..n {
            if !self.uploads(p) {
                self.peers[p].tft_unchoked.clear();
                self.peers[p].optimistic = None;
                continue;
            }
            // Interested candidate neighbour positions.
            let candidates: Vec<usize> = (0..self.neighbors[p].len())
                .filter(|&k| self.interested(self.neighbors[p][k], p))
                .collect();

            let tft: Vec<usize> = if self.acts_as_seed(p) {
                // Seeds have no reciprocation signal: random rotation.
                let mut cands = candidates.clone();
                cands.shuffle(&mut self.rng);
                cands.truncate(self.config.tft_slots);
                cands
            } else {
                // Tit-for-Tat: top receivers from the last round.
                let mut ranked = candidates.clone();
                ranked.sort_by(|&a, &b| {
                    self.peers[p].received_prev[b].total_cmp(&self.peers[p].received_prev[a])
                });
                ranked.truncate(self.config.tft_slots);
                ranked
            };

            // Optimistic slot: rotate periodically among interested,
            // non-TFT-unchoked neighbours; drop it if no longer interested.
            let mut optimistic = self.peers[p].optimistic;
            if let Some(k) = optimistic {
                let still_valid = candidates.contains(&k) && !tft.contains(&k);
                if !still_valid {
                    optimistic = None;
                }
            }
            if self.config.optimistic_slots > 0 && (rotate_optimistic || optimistic.is_none()) {
                let pool: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|k| !tft.contains(k))
                    .collect();
                optimistic = if pool.is_empty() {
                    None
                } else {
                    Some(pool[self.rng.gen_range(0..pool.len())])
                };
            }
            self.peers[p].tft_unchoked = tft;
            self.peers[p].optimistic = optimistic;
        }
    }

    fn transfer(&mut self) {
        let n = self.peers.len();
        let round_seconds = self.config.round_seconds;
        for p in 0..n {
            if !self.uploads(p) {
                continue;
            }
            // Active flows: unchoked positions whose peer is (still)
            // interested in p.
            let mut targets: Vec<(usize, bool)> = self.peers[p]
                .tft_unchoked
                .iter()
                .map(|&k| (k, true))
                .collect();
            if let Some(k) = self.peers[p].optimistic {
                if !targets.iter().any(|&(t, _)| t == k) {
                    targets.push((k, false));
                }
            }
            targets.retain(|&(k, _)| self.interested(self.neighbors[p][k], p));
            if targets.is_empty() {
                continue;
            }
            let share = self.peers[p].upload_kbps * round_seconds / targets.len() as f64;
            for &(k, is_tft) in &targets {
                let q = self.neighbors[p][k];
                self.deliver(p, q, share, is_tft);
            }
        }
    }

    /// Delivers `kbit` from `p` to `q`, converting credit into rarest-first
    /// pieces.
    fn deliver(&mut self, p: PeerId, q: PeerId, kbit: f64, is_tft: bool) {
        let pos_of_p = self.neighbors[q]
            .iter()
            .position(|&v| v == p)
            .expect("overlay adjacency is symmetric");
        self.peers[p].total_up += kbit;
        self.peers[q].total_down += kbit;
        if is_tft {
            self.peers[p].tft_up += kbit;
            self.peers[q].tft_down += kbit;
        }
        self.peers[q].received_curr[pos_of_p] += kbit;
        if self.config.fluid_content {
            return; // rates only; no piece bookkeeping in fluid mode
        }
        self.peers[q].credit[pos_of_p] += kbit;
        while self.peers[q].credit[pos_of_p] >= self.config.piece_size_kbit {
            let pick = {
                let (qp, pp) = (&self.peers[q].pieces, &self.peers[p].pieces);
                qp.rarest_missing_from(pp, &self.availability)
            };
            let Some(piece) = pick else {
                // Nothing useful left from p this round; credit waits in
                // case p acquires new pieces.
                break;
            };
            self.peers[q].credit[pos_of_p] -= self.config.piece_size_kbit;
            self.peers[q].pieces.insert(piece);
            self.availability[piece] += 1;
            if self.peers[q].pieces.is_complete() && self.peers[q].completed_round.is_none() {
                self.peers[q].completed_round = Some(self.round + 1);
            }
        }
    }

    /// Simulates one round under the **indexed-stream** semantics — the
    /// serial oracle for
    /// [`Swarm::run_rounds_parallel`](crate::Swarm::run_rounds_parallel).
    ///
    /// Differences from [`RefSwarm::round`], chosen so every peer's work
    /// is independent of every other peer's within a phase:
    ///
    /// * per-peer randomness comes from an independent ChaCha stream keyed
    ///   by `(config.seed, round, peer)` instead of the shared serial RNG;
    /// * upload/seed-state flags, interest, piece sets and availability
    ///   are all read from the **start-of-round** state: a peer completing
    ///   mid-round affects other peers only from the next round on;
    /// * delivery is recipient-major (each recipient drains its incoming
    ///   flows in ascending neighbour-slot order) rather than sender-major.
    pub fn round_indexed(&mut self) {
        let n = self.peers.len();
        let fluid = self.config.fluid_content;
        let rotate_optimistic = self
            .round
            .is_multiple_of(u64::from(self.config.optimistic_period));

        // Start-of-round snapshots.
        let uploads_now: Vec<bool> = (0..n).map(|p| self.uploads(p)).collect();
        let acts_seed: Vec<bool> = (0..n).map(|p| self.acts_as_seed(p)).collect();
        let original_seed: Vec<bool> = self.peers.iter().map(|x| x.original_seed).collect();
        let pieces_prev: Vec<PieceSet> = self.peers.iter().map(|x| x.pieces.clone()).collect();
        let avail_prev = self.availability.clone();
        let interested = |q: PeerId, p: PeerId| -> bool {
            if fluid {
                q != p && !original_seed[q]
            } else {
                pieces_prev[q].is_interested_in(&pieces_prev[p])
            }
        };

        // Phase 1: rechoke, one independent RNG stream per peer.
        for p in 0..n {
            if !uploads_now[p] {
                self.peers[p].tft_unchoked.clear();
                self.peers[p].optimistic = None;
                continue;
            }
            let mut rng = streams::keyed(
                self.config.seed,
                streams::PEER_ROUND,
                streams::round_stream(self.round, p as u64),
            );
            let candidates: Vec<usize> = (0..self.neighbors[p].len())
                .filter(|&k| interested(self.neighbors[p][k], p))
                .collect();
            let tft: Vec<usize> = if acts_seed[p] {
                let mut cands = candidates.clone();
                cands.shuffle(&mut rng);
                cands.truncate(self.config.tft_slots);
                cands
            } else {
                let mut ranked = candidates.clone();
                ranked.sort_by(|&a, &b| {
                    self.peers[p].received_prev[b].total_cmp(&self.peers[p].received_prev[a])
                });
                ranked.truncate(self.config.tft_slots);
                ranked
            };
            let mut optimistic = self.peers[p].optimistic;
            if let Some(k) = optimistic {
                let still_valid = candidates.contains(&k) && !tft.contains(&k);
                if !still_valid {
                    optimistic = None;
                }
            }
            if self.config.optimistic_slots > 0 && (rotate_optimistic || optimistic.is_none()) {
                let pool: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|k| !tft.contains(k))
                    .collect();
                optimistic = if pool.is_empty() {
                    None
                } else {
                    Some(pool[rng.gen_range(0..pool.len())])
                };
            }
            self.peers[p].tft_unchoked = tft;
            self.peers[p].optimistic = optimistic;
        }

        // Phase 2: sender flows — retained targets and the per-target
        // share, all from start-of-round interest.
        let mut active: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n];
        let mut share = vec![0.0f64; n];
        for p in 0..n {
            if !uploads_now[p] {
                continue;
            }
            let mut targets: Vec<(usize, bool)> = self.peers[p]
                .tft_unchoked
                .iter()
                .map(|&k| (k, true))
                .collect();
            if let Some(k) = self.peers[p].optimistic {
                if !targets.iter().any(|&(t, _)| t == k) {
                    targets.push((k, false));
                }
            }
            targets.retain(|&(k, _)| interested(self.neighbors[p][k], p));
            if targets.is_empty() {
                continue;
            }
            share[p] = self.peers[p].upload_kbps * self.config.round_seconds / targets.len() as f64;
            for &(_, is_tft) in &targets {
                self.peers[p].total_up += share[p];
                if is_tft {
                    self.peers[p].tft_up += share[p];
                }
            }
            active[p] = targets;
        }

        // Phase 3: recipient-major delivery in ascending slot order,
        // rarest-first picks against the start-of-round snapshot.
        for q in 0..n {
            for kq in 0..self.neighbors[q].len() {
                let p = self.neighbors[q][kq];
                if active[p].is_empty() {
                    continue;
                }
                let pos_of_q = self.neighbors[p]
                    .iter()
                    .position(|&v| v == q)
                    .expect("overlay adjacency is symmetric");
                let Some(&(_, is_tft)) = active[p].iter().find(|&&(k, _)| k == pos_of_q) else {
                    continue;
                };
                let kbit = share[p];
                self.peers[q].total_down += kbit;
                if is_tft {
                    self.peers[q].tft_down += kbit;
                }
                self.peers[q].received_curr[kq] += kbit;
                if fluid {
                    continue;
                }
                self.peers[q].credit[kq] += kbit;
                while self.peers[q].credit[kq] >= self.config.piece_size_kbit {
                    let pick = self.peers[q]
                        .pieces
                        .rarest_missing_from(&pieces_prev[p], &avail_prev);
                    let Some(piece) = pick else {
                        break;
                    };
                    self.peers[q].credit[kq] -= self.config.piece_size_kbit;
                    self.peers[q].pieces.insert(piece);
                    self.availability[piece] += 1;
                    if self.peers[q].pieces.is_complete() && self.peers[q].completed_round.is_none()
                    {
                        self.peers[q].completed_round = Some(self.round + 1);
                    }
                }
            }
        }

        self.round += 1;
        for peer in &mut self.peers {
            core::mem::swap(&mut peer.received_prev, &mut peer.received_curr);
            peer.received_curr.iter_mut().for_each(|r| *r = 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(leechers: usize, seeds: usize, seed: u64) -> RefSwarm {
        let n = leechers + seeds;
        let cfg = SwarmConfig::builder()
            .leechers(leechers)
            .seeds(seeds)
            .piece_count(32)
            .piece_size_kbit(200.0)
            .seed(seed)
            .build();
        let uploads: Vec<f64> = (0..n).map(|i| 200.0 + 25.0 * i as f64).collect();
        RefSwarm::new(cfg, &uploads)
    }

    #[test]
    fn serial_round_conserves_traffic() {
        let mut swarm = small(18, 2, 11);
        swarm.run_rounds(20);
        let up: f64 = (0..20).map(|p| swarm.peer(p).total_uploaded()).sum();
        let down: f64 = (0..20).map(|p| swarm.peer(p).total_downloaded()).sum();
        assert!(up > 0.0 && (up - down).abs() < 1e-6);
    }

    #[test]
    fn indexed_round_conserves_traffic_and_availability() {
        let mut swarm = small(18, 2, 12);
        for _ in 0..20 {
            swarm.round_indexed();
        }
        let up: f64 = (0..20).map(|p| swarm.peer(p).total_uploaded()).sum();
        let down: f64 = (0..20).map(|p| swarm.peer(p).total_downloaded()).sum();
        assert!(up > 0.0 && (up - down).abs() < 1e-6);
        for i in 0..swarm.config().piece_count {
            let holders = (0..20)
                .filter(|&p| swarm.peer(p).pieces().contains(i))
                .count() as u32;
            assert_eq!(holders, swarm.availability()[i], "piece {i}");
        }
    }

    #[test]
    fn indexed_round_is_deterministic() {
        let mk = || {
            let mut swarm = small(15, 1, 9);
            for _ in 0..12 {
                swarm.round_indexed();
            }
            (0..16)
                .map(|p| swarm.peer(p).total_downloaded())
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
