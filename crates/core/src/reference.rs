//! Seed-faithful reference implementations of the matching hot paths.
//!
//! These are the pre-data-oriented versions of the algorithms: mate lists
//! as plain `Vec<Vec<NodeId>>` with every rank comparison going through
//! [`GlobalRanking::rank_of`], blocking-pair checks re-deriving saturation
//! and worst-mate rank on each probe, and Algorithm 1 re-scanning (and
//! rank-filtering) the full adjacency of every peer.
//!
//! They exist for two reasons and are **not** meant for production use:
//!
//! 1. **Differential testing** — property tests assert the optimized
//!    CSR/cached paths are observationally identical to these (same stable
//!    configuration, same [`InitiativeOutcome`] stream for a fixed seed);
//! 2. **Benchmarking** — `crates/bench` measures the optimized paths
//!    against these to keep the speedup a number, not a claim.
//!
//! RNG discipline: [`RefDynamics`] consumes randomness in exactly the same
//! order and quantity as [`crate::Dynamics`] (same peer draws, same probe
//! draws), so both drivers stay in lockstep on a shared seed for their
//! entire run.
//!
//! For general preference systems, [`best_mate_dynamics`] is the full-scan
//! twin of [`crate::Dynamics::settle`] over a [`crate::PrefAcceptance`]:
//! the same round-robin best-mate sweeps on an unsorted mate-list
//! configuration ([`RefPrefMatching`]), with every comparison going
//! through the live [`PreferenceSystem`].

use std::collections::HashSet;

use rand::Rng;
use strat_graph::{Graph, NodeId};

use crate::prefs::{edge_fingerprint, PreferenceSystem};
use crate::{
    Capacities, GlobalRanking, InitiativeOutcome, InitiativeStrategy, ModelError, RankedAcceptance,
};

/// Seed-style acceptance structure: rank-sorted adjacency stored as one
/// separately-allocated `Vec<NodeId>` per peer (the pointer-chasing layout
/// the CSR [`RankedAcceptance`] replaced), membership via the graph's
/// binary search by node id.
#[derive(Debug, Clone)]
pub struct RefAcceptance {
    graph: Graph,
    ranking: GlobalRanking,
    /// `by_rank[v]` = neighbours of `v` sorted best-rank-first.
    by_rank: Vec<Vec<NodeId>>,
}

impl RefAcceptance {
    /// Combines an acceptance graph and a ranking (sizes must match).
    #[must_use]
    pub fn new(graph: Graph, ranking: GlobalRanking) -> Self {
        assert_eq!(graph.node_count(), ranking.len(), "size mismatch");
        let by_rank = graph
            .nodes()
            .map(|v| {
                let mut neigh = graph.neighbors(v).to_vec();
                neigh.sort_by_key(|&w| ranking.rank_of(w));
                neigh
            })
            .collect();
        Self {
            graph,
            ranking,
            by_rank,
        }
    }

    /// Rebuilds the seed layout from an optimized acceptance structure
    /// (same graph, same ranking, same per-row order).
    #[must_use]
    pub fn from_optimized(acc: &RankedAcceptance) -> Self {
        Self::new(acc.graph().clone(), acc.ranking().clone())
    }

    /// Number of peers.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The underlying acceptance graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The global ranking.
    #[must_use]
    pub fn ranking(&self) -> &GlobalRanking {
        &self.ranking
    }

    /// Acceptable peers of `v`, best-rank-first.
    #[must_use]
    pub fn neighbors_best_first(&self, v: NodeId) -> &[NodeId] {
        &self.by_rank[v.index()]
    }

    /// Whether `u` accepts `v` (symmetric).
    #[must_use]
    pub fn accepts(&self, u: NodeId, v: NodeId) -> bool {
        self.graph.has_edge(u, v)
    }
}

/// Reference b-matching configuration: per-peer `Vec<NodeId>` mate lists
/// sorted best-rank-first, ranks re-derived from the ranking on each use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefMatching {
    mates: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl RefMatching {
    /// Empty configuration over `n` peers.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            mates: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Number of peers.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.mates.len()
    }

    /// Number of collaboration links.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Mates of `v`, best-rank-first.
    #[must_use]
    pub fn mates(&self, v: NodeId) -> &[NodeId] {
        &self.mates[v.index()]
    }

    /// Current number of mates of `v`.
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        self.mates[v.index()].len()
    }

    /// Worst (lowest-ranked) current mate of `v`, if any.
    #[must_use]
    pub fn worst_mate(&self, v: NodeId) -> Option<NodeId> {
        self.mates[v.index()].last().copied()
    }

    /// Whether `u` and `v` are currently matched together.
    #[must_use]
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.mates[a.index()].contains(&b)
    }

    /// Whether `v` uses all its slots under `caps`.
    #[must_use]
    pub fn is_saturated(&self, caps: &Capacities, v: NodeId) -> bool {
        self.degree(v) >= caps.of(v) as usize
    }

    /// Seed-style acceptance check: recomputes the worst mate's rank via
    /// the ranking on every call.
    #[must_use]
    pub fn would_accept(
        &self,
        ranking: &GlobalRanking,
        caps: &Capacities,
        v: NodeId,
        candidate: NodeId,
    ) -> bool {
        if v == candidate || caps.of(v) == 0 || self.contains(v, candidate) {
            return false;
        }
        if !self.is_saturated(caps, v) {
            return true;
        }
        let worst = self
            .worst_mate(v)
            .expect("saturated peer with capacity > 0 has a mate");
        ranking.prefers(candidate, worst)
    }

    /// Connects `u` and `v` with the seed's validity checks (invalid pair,
    /// capacity), exactly as the seed `Matching::connect` did.
    pub fn connect(
        &mut self,
        ranking: &GlobalRanking,
        caps: &Capacities,
        u: NodeId,
        v: NodeId,
    ) -> Result<(), ModelError> {
        if u == v || self.contains(u, v) {
            return Err(ModelError::InvalidPair { a: u, b: v });
        }
        for w in [u, v] {
            if self.is_saturated(caps, w) {
                return Err(ModelError::CapacityExceeded {
                    node: w,
                    capacity: caps.of(w),
                });
            }
        }
        self.insert_sorted(ranking, u, v);
        self.insert_sorted(ranking, v, u);
        self.edge_count += 1;
        Ok(())
    }

    /// Removes the link between `u` and `v` (caller guarantees it exists).
    pub fn disconnect(&mut self, u: NodeId, v: NodeId) {
        let pu = self.mates[u.index()]
            .iter()
            .position(|&w| w == v)
            .expect("matched");
        let pv = self.mates[v.index()]
            .iter()
            .position(|&w| w == u)
            .expect("matched");
        self.mates[u.index()].remove(pu);
        self.mates[v.index()].remove(pv);
        self.edge_count -= 1;
    }

    /// Drops all links of `v`. Returns the former mates.
    pub fn isolate(&mut self, v: NodeId) -> Vec<NodeId> {
        let mates = core::mem::take(&mut self.mates[v.index()]);
        for &m in &mates {
            let pos = self.mates[m.index()]
                .iter()
                .position(|&w| w == v)
                .expect("matching is symmetric");
            self.mates[m.index()].remove(pos);
        }
        self.edge_count -= mates.len();
        mates
    }

    fn insert_sorted(&mut self, ranking: &GlobalRanking, owner: NodeId, mate: NodeId) {
        let list = &mut self.mates[owner.index()];
        let rank = ranking.rank_of(mate);
        let pos = list.partition_point(|&w| ranking.rank_of(w).is_better_than(rank));
        list.insert(pos, mate);
    }
}

/// Seed-style blocking-pair test (per-probe `rank_of` lookups and
/// membership scans).
#[must_use]
pub fn is_blocking_pair(
    acc: &RefAcceptance,
    caps: &Capacities,
    matching: &RefMatching,
    p: NodeId,
    q: NodeId,
) -> bool {
    p != q
        && acc.accepts(p, q)
        && !matching.contains(p, q)
        && matching.would_accept(acc.ranking(), caps, p, q)
        && matching.would_accept(acc.ranking(), caps, q, p)
}

/// Seed-style best-blocking-mate scan: early exit on the initiator's worst
/// mate, but with `rank_of` lookups and a `would_accept` membership scan
/// per candidate.
#[must_use]
pub fn best_blocking_mate<F>(
    acc: &RefAcceptance,
    caps: &Capacities,
    matching: &RefMatching,
    p: NodeId,
    present: F,
) -> Option<NodeId>
where
    F: Fn(NodeId) -> bool,
{
    let ranking = acc.ranking();
    if caps.of(p) == 0 {
        return None;
    }
    let saturated = matching.is_saturated(caps, p);
    let worst_rank = matching.worst_mate(p).map(|w| ranking.rank_of(w));
    for &q in acc.neighbors_best_first(p) {
        if saturated {
            let worst = worst_rank.expect("saturated peer with positive capacity has mates");
            if !ranking.rank_of(q).is_better_than(worst) {
                return None;
            }
        }
        if present(q) && !matching.contains(p, q) && matching.would_accept(ranking, caps, q, p) {
            return Some(q);
        }
    }
    None
}

/// Seed-style Algorithm 1: scans every neighbour of every peer, filtering
/// out better-ranked ones with per-edge `rank_of` comparisons, and inserts
/// every link through the sorted-insert path.
#[must_use]
pub fn stable_configuration(acc: &RefAcceptance, caps: &Capacities) -> RefMatching {
    let n = acc.node_count();
    let ranking = acc.ranking();
    let mut remaining: Vec<u32> = (0..n).map(|v| caps.of(NodeId::new(v))).collect();
    let mut matching = RefMatching::new(n);
    for i in ranking.nodes_best_first() {
        if remaining[i.index()] == 0 {
            continue;
        }
        let my_rank = ranking.rank_of(i);
        for &j in acc.neighbors_best_first(i) {
            if ranking.rank_of(j).is_better_than(my_rank) {
                continue;
            }
            if remaining[j.index()] == 0 {
                continue;
            }
            matching
                .connect(ranking, caps, i, j)
                .expect("greedy respects capacities and never duplicates a pair");
            remaining[i.index()] -= 1;
            remaining[j.index()] -= 1;
            if remaining[i.index()] == 0 {
                break;
            }
        }
    }
    matching
}

/// Seed-faithful initiative driver over [`RefMatching`].
///
/// Mirrors [`crate::Dynamics`] operation for operation (including RNG
/// consumption) without any cached state.
#[derive(Debug, Clone)]
pub struct RefDynamics {
    acc: RefAcceptance,
    caps: Capacities,
    matching: RefMatching,
    strategy: InitiativeStrategy,
    cursors: Vec<usize>,
    present: Vec<bool>,
    present_count: usize,
}

impl RefDynamics {
    /// Creates a driver starting from the empty configuration.
    #[must_use]
    pub fn new(acc: RefAcceptance, caps: Capacities, strategy: InitiativeStrategy) -> Self {
        let n = acc.node_count();
        assert_eq!(caps.len(), n, "capacity size mismatch");
        Self {
            acc,
            caps,
            matching: RefMatching::new(n),
            strategy,
            cursors: vec![0; n],
            present: vec![true; n],
            present_count: n,
        }
    }

    /// Number of peers.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.acc.node_count()
    }

    /// Current configuration.
    #[must_use]
    pub fn matching(&self) -> &RefMatching {
        &self.matching
    }

    /// Removes a peer (drops its collaborations). No-op if absent.
    pub fn remove_peer(&mut self, v: NodeId) {
        if !self.present[v.index()] {
            return;
        }
        self.present[v.index()] = false;
        self.present_count -= 1;
        self.matching.isolate(v);
    }

    /// Re-inserts an absent peer. No-op if present.
    pub fn insert_peer(&mut self, v: NodeId) {
        if self.present[v.index()] {
            return;
        }
        self.present[v.index()] = true;
        self.present_count += 1;
    }

    /// One initiative by a uniformly random present peer.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> InitiativeOutcome {
        if self.present_count == 0 {
            return InitiativeOutcome::Inactive;
        }
        let n = self.node_count();
        let p = if self.present_count == n {
            NodeId::new(rng.gen_range(0..n))
        } else {
            loop {
                let v = NodeId::new(rng.gen_range(0..n));
                if self.present[v.index()] {
                    break v;
                }
            }
        };
        self.initiative(p, rng)
    }

    /// Runs `n` initiatives. Returns the number of active ones.
    pub fn run_base_unit<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        let n = self.node_count();
        (0..n).filter(|_| self.step(rng).is_active()).count()
    }

    /// One initiative by `p` with the configured strategy.
    pub fn initiative<R: Rng + ?Sized>(&mut self, p: NodeId, rng: &mut R) -> InitiativeOutcome {
        if !self.present[p.index()] {
            return InitiativeOutcome::Inactive;
        }
        let mate = match self.strategy {
            InitiativeStrategy::BestMate => {
                best_blocking_mate(&self.acc, &self.caps, &self.matching, p, |q| {
                    self.present[q.index()]
                })
            }
            InitiativeStrategy::Decremental => self.decremental_scan(p),
            InitiativeStrategy::Random => self.random_probe(p, rng),
        };
        match mate {
            Some(q) => self.execute(p, q),
            None => InitiativeOutcome::Inactive,
        }
    }

    fn decremental_scan(&mut self, p: NodeId) -> Option<NodeId> {
        let neigh = self.acc.neighbors_best_first(p);
        let len = neigh.len();
        if len == 0 {
            return None;
        }
        let start = self.cursors[p.index()] % len;
        for k in 0..len {
            let idx = (start + k) % len;
            let q = neigh[idx];
            if self.present[q.index()]
                && is_blocking_pair(&self.acc, &self.caps, &self.matching, p, q)
            {
                self.cursors[p.index()] = (idx + 1) % len;
                return Some(q);
            }
        }
        self.cursors[p.index()] = start;
        None
    }

    fn random_probe<R: Rng + ?Sized>(&self, p: NodeId, rng: &mut R) -> Option<NodeId> {
        let neigh = self.acc.neighbors_best_first(p);
        if neigh.is_empty() {
            return None;
        }
        let q = neigh[rng.gen_range(0..neigh.len())];
        (self.present[q.index()] && is_blocking_pair(&self.acc, &self.caps, &self.matching, p, q))
            .then_some(q)
    }

    fn execute(&mut self, p: NodeId, q: NodeId) -> InitiativeOutcome {
        let ranking = self.acc.ranking();
        let mut dropped_by_peer = None;
        let mut dropped_by_mate = None;
        if self.matching.is_saturated(&self.caps, p) {
            let worst = self
                .matching
                .worst_mate(p)
                .expect("saturated implies mates");
            self.matching.disconnect(p, worst);
            dropped_by_peer = Some(worst);
        }
        if self.matching.is_saturated(&self.caps, q) {
            let worst = self
                .matching
                .worst_mate(q)
                .expect("saturated implies mates");
            self.matching.disconnect(q, worst);
            dropped_by_mate = Some(worst);
        }
        self.matching
            .connect(ranking, &self.caps, p, q)
            .expect("slots were freed");
        InitiativeOutcome::Active {
            peer: p,
            mate: q,
            dropped_by_peer,
            dropped_by_mate,
        }
    }
}

/// A b-matching configuration under arbitrary preferences: unsorted mate
/// lists, worst-mate queries through the preference system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefPrefMatching {
    mates: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl RefPrefMatching {
    /// Empty configuration.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            mates: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Number of peers.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.mates.len()
    }

    /// Number of collaborations.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Mates of `v` (unordered).
    #[must_use]
    pub fn mates(&self, v: NodeId) -> &[NodeId] {
        &self.mates[v.index()]
    }

    /// Whether `u` and `v` are matched together.
    #[must_use]
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.mates[u.index()].contains(&v)
    }

    fn connect(&mut self, u: NodeId, v: NodeId) {
        debug_assert!(u != v && !self.contains(u, v));
        self.mates[u.index()].push(v);
        self.mates[v.index()].push(u);
        self.edge_count += 1;
    }

    fn disconnect(&mut self, u: NodeId, v: NodeId) {
        let pu = self.mates[u.index()]
            .iter()
            .position(|&w| w == v)
            .expect("matched");
        let pv = self.mates[v.index()]
            .iter()
            .position(|&w| w == u)
            .expect("matched");
        self.mates[u.index()].swap_remove(pu);
        self.mates[v.index()].swap_remove(pv);
        self.edge_count -= 1;
    }

    /// Whether `v` would welcome `candidate` under `prefs`.
    fn would_accept<P: PreferenceSystem>(
        &self,
        prefs: &P,
        caps: &Capacities,
        v: NodeId,
        candidate: NodeId,
    ) -> bool {
        if v == candidate || caps.of(v) == 0 || self.contains(v, candidate) {
            return false;
        }
        if self.mates[v.index()].len() < caps.of(v) as usize {
            return true;
        }
        let worst = prefs
            .worst_of(v, &self.mates[v.index()])
            .expect("saturated peer has mates");
        prefs.prefers(v, candidate, worst)
    }

    /// Order-insensitive fingerprint (revisit detection).
    fn fingerprint(&self) -> u64 {
        edge_fingerprint(self.mates.iter().map(Vec::as_slice))
    }
}

/// Outcome of the full-scan [`best_mate_dynamics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefPrefOutcome {
    /// A stable configuration was reached.
    Stable {
        /// The stable configuration.
        at: RefPrefMatching,
        /// Active initiatives performed to reach it.
        steps: u64,
    },
    /// The dynamics revisited a configuration: a preference cycle exists on
    /// this instance and no run of active initiatives can settle from here.
    Oscillating {
        /// The configuration at which the revisit was detected.
        at: RefPrefMatching,
        /// Active initiatives performed before detection.
        steps: u64,
    },
}

/// Full-scan round-robin best-mate dynamics under arbitrary preferences,
/// from `C∅` until stability or a configuration revisit: every sweep
/// re-scans every peer's entire neighborhood with live
/// [`PreferenceSystem`] comparisons and re-derives saturation and worst
/// mates per probe — no thresholds, no clean/dirty memo.
///
/// The differential reference and benchmark baseline for
/// [`crate::Dynamics::settle`] on a [`crate::PrefAcceptance`]: both must
/// reach the same mate sets after the same number of active initiatives,
/// and report a revisit at the same configuration.
///
/// # Panics
///
/// Panics if sizes of `graph`, `prefs` and `caps` disagree.
pub fn best_mate_dynamics<P: PreferenceSystem>(
    graph: &Graph,
    prefs: &P,
    caps: &Capacities,
) -> RefPrefOutcome {
    let n = graph.node_count();
    assert_eq!(prefs.n(), n, "preference system size mismatch");
    caps.check_len(n).expect("capacity size mismatch");
    let mut matching = RefPrefMatching::new(n);
    let mut seen: HashSet<u64> = HashSet::new();
    seen.insert(matching.fingerprint());
    let mut steps = 0u64;
    loop {
        let active = best_mate_sweep(graph, prefs, caps, &mut matching);
        steps += active;
        if active == 0 {
            return RefPrefOutcome::Stable {
                at: matching,
                steps,
            };
        }
        if !seen.insert(matching.fingerprint()) {
            return RefPrefOutcome::Oscillating {
                at: matching,
                steps,
            };
        }
    }
}

/// One full-scan sweep of [`best_mate_dynamics`]: every peer re-scans its
/// entire neighborhood for its best acceptable blocking mate and matches
/// with it. Returns the number of active initiatives.
///
/// Exposed so benchmarks can measure the per-sweep cost directly (against
/// the engine's dirty-set sweeps, which skip provably clean peers).
pub fn best_mate_sweep<P: PreferenceSystem>(
    graph: &Graph,
    prefs: &P,
    caps: &Capacities,
    matching: &mut RefPrefMatching,
) -> u64 {
    let mut active = 0u64;
    for p in graph.nodes() {
        // Best blocking mate of p under prefs: single streaming pass,
        // no candidate buffer (this sweep dominates the runtime on
        // dense instances).
        let mut best: Option<NodeId> = None;
        for &q in graph.neighbors(p) {
            if best.is_none_or(|b| prefs.prefers(p, q, b))
                && matching.would_accept(prefs, caps, p, q)
                && matching.would_accept(prefs, caps, q, p)
            {
                best = Some(q);
            }
        }
        let Some(q) = best else {
            continue;
        };
        // Evict worst mates if saturated, then connect.
        for v in [p, q] {
            if matching.mates(v).len() >= caps.of(v) as usize {
                let worst = prefs
                    .worst_of(v, matching.mates(v))
                    .expect("saturated has mates");
                matching.disconnect(v, worst);
            }
        }
        matching.connect(p, q);
        active += 1;
    }
    active
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use strat_graph::generators;

    use super::*;

    #[test]
    fn reference_stable_configuration_is_stable() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = generators::erdos_renyi(50, 0.12, &mut rng);
        let acc = RefAcceptance::new(g, GlobalRanking::random(50, &mut rng));
        let caps = Capacities::constant(50, 2);
        let m = stable_configuration(&acc, &caps);
        for (u, v) in acc.graph().edges() {
            assert!(
                !is_blocking_pair(&acc, &caps, &m, u, v),
                "({u}, {v}) blocks"
            );
        }
    }

    #[test]
    fn reference_dynamics_converges() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = generators::erdos_renyi_mean_degree(40, 8.0, &mut rng);
        let acc = RefAcceptance::new(g, GlobalRanking::identity(40));
        let caps = Capacities::constant(40, 1);
        let stable = stable_configuration(&acc, &caps);
        let mut dynamics = RefDynamics::new(acc, caps, InitiativeStrategy::BestMate);
        for _ in 0..200 {
            dynamics.run_base_unit(&mut rng);
            if dynamics.matching() == &stable {
                break;
            }
        }
        assert_eq!(dynamics.matching(), &stable);
    }

    #[test]
    fn pref_matching_basics() {
        let n = NodeId::new;
        let mut m = RefPrefMatching::new(3);
        m.connect(n(0), n(2));
        assert!(m.contains(n(2), n(0)));
        assert_eq!(m.edge_count(), 1);
        let f1 = m.fingerprint();
        m.disconnect(n(0), n(2));
        assert_eq!(m.edge_count(), 0);
        m.connect(n(2), n(0));
        assert_eq!(m.fingerprint(), f1, "fingerprint must be order-insensitive");
    }
}
