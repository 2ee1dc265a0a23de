//! Initiative-driven convergence dynamics (§3).
//!
//! Peers continuously *take initiatives*: peer `p` proposes partnership to
//! an acceptable peer; when the contacted peer forms a blocking pair with
//! `p`, the initiative is **active** — the pair matches and each side drops
//! its worst mate if saturated. Theorem 1 proves any sequence of active
//! initiatives reaches the unique stable configuration.
//!
//! Three scan strategies are modeled, matching the paper:
//!
//! * **best mate** — `p` picks its best available blocking mate (full
//!   knowledge of ranks and availability);
//! * **decremental** — `p` circularly scans its acceptance list from the
//!   last asked peer (knows ranks, not availability);
//! * **random** — `p` probes one uniformly random acceptable peer (no
//!   information; this is the BitTorrent optimistic-unchoke analogue, §6).
//!
//! # Architecture
//!
//! [`Dynamics`] is the one incremental driver for every preference model.
//! It owns the machinery all of them need:
//!
//! * per-peer **acceptance thresholds**, updated incrementally on the peers
//!   an event touches (each candidate probe is two array reads + compare);
//! * the **clean/dirty peer memo** (a clean peer provably has no blocking
//!   mate; deterministic scans skip it entirely);
//! * **presence versioning** for churn, with the memoized instant-stable
//!   configuration keyed on it;
//! * a **configuration version** that lets the disorder reads memoize
//!   their value between events.
//!
//! What differs between preference models lives in the key table `K`
//! ([`PreferenceKeys`], see [`crate::engine`]): the scans read its rows,
//! and the instant-stable baseline and disorder metrics are its methods.
//! `Dynamics<RankedAcceptance>` (the default) is the paper's global
//! ranking; `Dynamics<PrefAcceptance>` runs any
//! [`crate::prefs::PreferenceSystem`].

use std::cell::RefCell;
use std::collections::HashSet;

use rand::Rng;
use strat_graph::NodeId;

use crate::engine::VersionMemo;
use crate::prefs::edge_fingerprint;
use crate::{
    blocking, Capacities, InitiativeOutcome, InitiativeStrategy, Matching, ModelError,
    PreferenceKeys, Rank, RankedAcceptance,
};

/// The initiative-process driver of §3 for any key table `K`, with
/// optional peer presence for the removal and churn experiments of
/// Figures 2–3.
///
/// Holds the configuration, the per-peer threshold and clean/dirty caches,
/// peer presence, the version counters and the metric memos; scans run
/// entirely on the precomputed keys of `K`.
///
/// # Examples
///
/// Converge a small system from the empty configuration and verify it
/// reaches the stable matching:
///
/// ```
/// use rand::SeedableRng;
/// use strat_core::{
///     stable_configuration, Capacities, Dynamics, GlobalRanking, InitiativeStrategy,
///     RankedAcceptance,
/// };
/// use strat_graph::generators;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let graph = generators::erdos_renyi_mean_degree(50, 8.0, &mut rng);
/// let acc = RankedAcceptance::new(graph, GlobalRanking::identity(50))?;
/// let caps = Capacities::constant(50, 1);
/// let stable = stable_configuration(&acc, &caps)?;
///
/// let mut dynamics = Dynamics::new(acc, caps, InitiativeStrategy::BestMate)?;
/// for _ in 0..100 {
///     dynamics.run_base_unit(&mut rng); // n initiatives each
/// }
/// assert_eq!(dynamics.matching(), &stable);
/// # Ok::<(), strat_core::ModelError>(())
/// ```
///
/// The same driver over an arbitrary preference system, here a latency
/// utility:
///
/// ```
/// use rand::SeedableRng;
/// use strat_core::prefs::LatencyPrefs;
/// use strat_core::{Capacities, Dynamics, InitiativeStrategy, PrefAcceptance};
/// use strat_graph::generators;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let graph = generators::erdos_renyi_mean_degree(60, 10.0, &mut rng);
/// let prefs = LatencyPrefs::new((0..60).map(|i| (i * 37 % 60) as f64).collect());
/// let caps = Capacities::constant(60, 2);
/// let keys = PrefAcceptance::build(&graph, &prefs);
/// let mut dynamics = Dynamics::new(keys, caps, InitiativeStrategy::BestMate)?;
/// dynamics.settle()?; // deterministic sweeps reach the canonical fixpoint
/// assert!(dynamics.is_stable());
/// assert_eq!(dynamics.disorder(), 0.0);
/// # Ok::<(), strat_core::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dynamics<K: PreferenceKeys = RankedAcceptance> {
    keys: K,
    caps: Capacities,
    matching: Matching,
    strategy: InitiativeStrategy,
    /// Decremental-scan cursors, one per peer.
    cursors: Vec<usize>,
    /// Peer presence; absent peers neither initiate nor get matched.
    present: Vec<bool>,
    present_count: usize,
    /// Cached acceptance threshold per peer: the raw key position below
    /// which the peer welcomes a new candidate (worst-mate key when
    /// saturated, "anyone" when a slot is free, "nobody" at capacity 0).
    accept_below: Vec<u32>,
    /// Clean/dirty memo: `false` means "a full scan since the last relevant
    /// change found no blocking mate for this peer".
    dirty: Vec<bool>,
    /// Presence-set version; bumped by every churn (remove/insert) event.
    presence_version: u64,
    /// Configuration version; bumped by every event that changes the
    /// matching or the presence set (metric memo key).
    config_version: u64,
    /// Memoized instant stable configuration, tagged with the
    /// `presence_version` it was computed under. The stable configuration
    /// depends only on the acceptance structure, the capacities and the
    /// present set — never on the current matching — so initiatives leave
    /// it valid and only churn events invalidate it.
    stable_memo: RefCell<Option<(u64, Matching)>>,
    /// Memoized [`disorder`](Self::disorder) value.
    disorder_memo: VersionMemo,
    /// Memoized [`disorder_general`](Self::disorder_general) value.
    general_memo: VersionMemo,
    initiatives: u64,
    active_initiatives: u64,
}

impl<K: PreferenceKeys> Dynamics<K> {
    /// Creates a driver starting from the empty configuration `C∅`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::SizeMismatch`] if `caps` does not cover the
    /// key table.
    pub fn new(
        keys: K,
        caps: Capacities,
        strategy: InitiativeStrategy,
    ) -> Result<Self, ModelError> {
        let n = keys.node_count();
        caps.check_len(n)?;
        let matching = Matching::with_capacities(&caps);
        let mut dynamics = Self {
            keys,
            caps,
            matching,
            strategy,
            cursors: vec![0; n],
            present: vec![true; n],
            present_count: n,
            accept_below: vec![0; n],
            dirty: vec![true; n],
            presence_version: 0,
            config_version: 0,
            stable_memo: RefCell::new(None),
            disorder_memo: VersionMemo::default(),
            general_memo: VersionMemo::default(),
            initiatives: 0,
            active_initiatives: 0,
        };
        dynamics.refresh_all_thresholds();
        Ok(dynamics)
    }

    /// Creates a driver starting from an arbitrary configuration whose
    /// cached mate keys are already expressed in this driver's key space
    /// (for the ranked instantiation: global ranks, i.e. any matching built
    /// by the ranked constructors).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::SizeMismatch`] on size disagreement.
    pub fn with_configuration(
        keys: K,
        caps: Capacities,
        strategy: InitiativeStrategy,
        matching: Matching,
    ) -> Result<Self, ModelError> {
        if matching.node_count() != keys.node_count() {
            return Err(ModelError::SizeMismatch {
                expected: keys.node_count(),
                actual: matching.node_count(),
            });
        }
        let mut dynamics = Self::new(keys, caps, strategy)?;
        dynamics.matching = matching;
        dynamics.refresh_all_thresholds();
        dynamics.dirty.fill(true);
        Ok(dynamics)
    }

    /// Number of peers (present or not).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.keys.node_count()
    }

    /// Current configuration.
    #[must_use]
    pub fn matching(&self) -> &Matching {
        &self.matching
    }

    /// The preference-key table.
    #[must_use]
    pub fn keys(&self) -> &K {
        &self.keys
    }

    /// Capacities in force.
    #[must_use]
    pub fn capacities(&self) -> &Capacities {
        &self.caps
    }

    /// The configured scan strategy.
    #[must_use]
    pub fn strategy(&self) -> InitiativeStrategy {
        self.strategy
    }

    /// Total initiatives taken so far.
    #[must_use]
    pub fn initiative_count(&self) -> u64 {
        self.initiatives
    }

    /// Active (configuration-changing) initiatives taken so far.
    #[must_use]
    pub fn active_initiative_count(&self) -> u64 {
        self.active_initiatives
    }

    /// Number of present peers.
    #[must_use]
    pub fn present_count(&self) -> usize {
        self.present_count
    }

    /// Whether peer `v` is present.
    #[must_use]
    pub fn is_present(&self, v: NodeId) -> bool {
        self.present[v.index()]
    }

    /// `(presence_version, config_version)` — the memo key for any value
    /// derived from the presence set and the current configuration.
    fn versions(&self) -> (u64, u64) {
        (self.presence_version, self.config_version)
    }

    /// Decomposes the driver into its configuration and capacities
    /// (scratch-driver pattern: converge, then keep only the result).
    #[must_use]
    pub fn into_parts(self) -> (Matching, Capacities) {
        (self.matching, self.caps)
    }

    /// Resets the initiative counters to zero (constructors that converge
    /// internally — e.g. a build-at-stable — use this so a freshly built
    /// driver reports no pre-existing activity, matching a jump to
    /// stability by Algorithm 1).
    pub fn reset_initiative_counters(&mut self) {
        self.initiatives = 0;
        self.active_initiatives = 0;
    }

    /// Removes a peer: drops its collaborations and excludes it from the
    /// system (Figure 2's perturbation). No-op if already absent.
    pub fn remove_peer(&mut self, v: NodeId) {
        if !self.present[v.index()] {
            return;
        }
        self.present[v.index()] = false;
        self.present_count -= 1;
        self.presence_version += 1;
        self.config_version += 1;
        let dropped = self.matching.isolate(v);
        self.refresh_threshold(v);
        self.mark_neighborhood_dirty(v);
        for mate in dropped {
            self.refresh_threshold(mate);
            self.mark_neighborhood_dirty(mate);
        }
    }

    /// Re-inserts an absent peer with no mates. No-op if already present.
    pub fn insert_peer(&mut self, v: NodeId) {
        if self.present[v.index()] {
            return;
        }
        self.present[v.index()] = true;
        self.present_count += 1;
        self.presence_version += 1;
        self.config_version += 1;
        debug_assert_eq!(self.matching.degree(v), 0);
        self.refresh_threshold(v);
        self.mark_neighborhood_dirty(v);
    }

    /// Performs one initiative by a uniformly random present peer.
    ///
    /// Returns [`InitiativeOutcome::Inactive`] when no peers are present.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> InitiativeOutcome {
        let Some(p) = self.random_present_peer(rng) else {
            return InitiativeOutcome::Inactive;
        };
        self.initiative(p, rng)
    }

    /// Runs `n` initiatives (one *base unit* in the paper's time axis: one
    /// expected initiative per peer). Returns the number of active ones.
    pub fn run_base_unit<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        let n = self.node_count();
        (0..n).filter(|_| self.step(rng).is_active()).count()
    }

    /// Has peer `p` take one initiative with the configured strategy.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn initiative<R: Rng + ?Sized>(&mut self, p: NodeId, rng: &mut R) -> InitiativeOutcome {
        if !self.present[p.index()] {
            return InitiativeOutcome::Inactive;
        }
        self.initiatives += 1;
        let mate = match self.strategy {
            // The deterministic scans are memoized: a clean peer has no
            // blocking mate by construction, so skip the scan entirely.
            InitiativeStrategy::BestMate => self.memoized_scan(p, |d| d.best_mate_scan(p)),
            InitiativeStrategy::Decremental => self.memoized_scan(p, |d| d.decremental_scan(p)),
            // The random probe draws from the RNG before the memo could
            // apply; always perform it so streams stay aligned.
            InitiativeStrategy::Random => self.random_probe(p, rng),
        };
        mate.map_or(InitiativeOutcome::Inactive, |(q, slot)| {
            self.execute(p, q, slot)
        })
    }

    /// Has `p` take one **best-mate** initiative regardless of the
    /// configured strategy — the deterministic step the round-robin sweeps
    /// of [`settle`](Self::settle) are built from. Counters update as for
    /// [`initiative`](Self::initiative).
    pub fn best_mate_initiative(&mut self, p: NodeId) -> InitiativeOutcome {
        if !self.present[p.index()] {
            return InitiativeOutcome::Inactive;
        }
        self.initiatives += 1;
        let mate = self.memoized_scan(p, |d| d.best_mate_scan(p));
        mate.map_or(InitiativeOutcome::Inactive, |(q, slot)| {
            self.execute(p, q, slot)
        })
    }

    /// Runs a deterministic scan of `p` unless `p` is clean; a scan that
    /// finds no blocking mate marks `p` clean.
    #[inline]
    fn memoized_scan(
        &mut self,
        p: NodeId,
        scan: impl FnOnce(&mut Self) -> Option<(NodeId, usize)>,
    ) -> Option<(NodeId, usize)> {
        if !self.dirty[p.index()] {
            return None;
        }
        let found = scan(self);
        if found.is_none() {
            self.dirty[p.index()] = false;
        }
        found
    }

    /// Finds the best blocking mate of `p`: first acceptable `q` in `p`'s
    /// best-first row such that `(p, q)` blocks the configuration. Returns
    /// the mate with its row slot (so [`execute`](Self::execute) reads both
    /// keys without re-searching).
    fn best_mate_scan(&self, p: NodeId) -> Option<(NodeId, usize)> {
        let attractive_below = self.accept_below[p.index()];
        if attractive_below == 0 {
            return None; // b(p) = 0, or saturated with the best possible mates
        }
        let (ids, keys) = self.keys.row(p);
        let mate_keys = self.matching.mate_ranks(p);
        let mut mate_ptr = 0usize;
        for (k, (&q, &q_key)) in ids.iter().zip(keys).enumerate() {
            if q_key.position() as u32 >= attractive_below {
                // Best-first row: nobody later is attractive to p either.
                return None;
            }
            // Sorted two-pointer merge: skip candidates already mated to p.
            // Keys are unique within a row, so equal key means same peer.
            while mate_ptr < mate_keys.len() && mate_keys[mate_ptr].is_better_than(q_key) {
                mate_ptr += 1;
            }
            if mate_ptr < mate_keys.len() && mate_keys[mate_ptr] == q_key {
                mate_ptr += 1;
                continue;
            }
            if self.present[q.index()]
                && (self.keys.rev_key(p, k).position() as u32) < self.accept_below[q.index()]
            {
                // `q` is attractive to p here (checked above) and welcomes p.
                return Some((q, k));
            }
        }
        None
    }

    /// Whether the configuration is stable for the present peers: no
    /// acceptance slot holds a blocking pair.
    #[must_use]
    pub fn is_stable(&self) -> bool {
        (0..self.node_count()).all(|v| {
            let v = NodeId::new(v);
            if !self.present[v.index()] {
                return true;
            }
            let (ids, keys) = self.keys.row(v);
            ids.iter().zip(keys).enumerate().all(|(k, (&q, &q_key))| {
                !(self.present[q.index()] && self.is_blocking_slot(v, q, q_key, k))
            })
        })
    }

    /// Blocking test for row slot `k` of `v` (candidate `q` with key
    /// `q_key`); callers guarantee both endpoints are present.
    #[inline]
    fn is_blocking_slot(&self, v: NodeId, q: NodeId, q_key: Rank, k: usize) -> bool {
        (q_key.position() as u32) < self.accept_below[v.index()]
            && (self.keys.rev_key(v, k).position() as u32) < self.accept_below[q.index()]
            && self.matching.mate_ranks(v).binary_search(&q_key).is_err()
    }

    fn random_present_peer<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<NodeId> {
        if self.present_count == 0 {
            return None;
        }
        let n = self.node_count();
        if self.present_count == n {
            return Some(NodeId::new(rng.gen_range(0..n)));
        }
        // Rejection sampling; presence is the common case in experiments.
        loop {
            let v = NodeId::new(rng.gen_range(0..n));
            if self.present[v.index()] {
                return Some(v);
            }
        }
    }

    /// Circular scan from the last asked position (decremental strategy).
    fn decremental_scan(&mut self, p: NodeId) -> Option<(NodeId, usize)> {
        let (ids, keys) = self.keys.row(p);
        let len = ids.len();
        if len == 0 {
            return None;
        }
        let start = self.cursors[p.index()] % len;
        for k in 0..len {
            let idx = (start + k) % len;
            let q = ids[idx];
            if self.present[q.index()] && self.is_blocking_slot(p, q, keys[idx], idx) {
                self.cursors[p.index()] = (idx + 1) % len;
                return Some((q, idx));
            }
        }
        self.cursors[p.index()] = start;
        None
    }

    /// Single random probe (random strategy).
    fn random_probe<R: Rng + ?Sized>(&self, p: NodeId, rng: &mut R) -> Option<(NodeId, usize)> {
        let (ids, keys) = self.keys.row(p);
        if ids.is_empty() {
            return None;
        }
        let idx = rng.gen_range(0..ids.len());
        let q = ids[idx];
        (self.present[q.index()] && self.is_blocking_slot(p, q, keys[idx], idx)).then_some((q, idx))
    }

    /// Matches a confirmed blocking pair (row slot `slot` of `p`), evicting
    /// worst mates as needed, and counts the active initiative.
    fn execute(&mut self, p: NodeId, q: NodeId, slot: usize) -> InitiativeOutcome {
        self.active_initiatives += 1;
        let key_of_q = self.keys.row(p).1[slot];
        let key_of_p = self.keys.rev_key(p, slot);
        let mut dropped_by_peer = None;
        let mut dropped_by_mate = None;
        if self.matching.is_saturated(&self.caps, p) {
            let worst = self
                .matching
                .worst_mate(p)
                .expect("saturated implies mates");
            self.matching
                .disconnect(p, worst)
                .expect("worst mate is matched");
            dropped_by_peer = Some(worst);
        }
        if self.matching.is_saturated(&self.caps, q) {
            let worst = self
                .matching
                .worst_mate(q)
                .expect("saturated implies mates");
            self.matching
                .disconnect(q, worst)
                .expect("worst mate is matched");
            dropped_by_mate = Some(worst);
        }
        self.matching
            .connect_keyed(&self.caps, p, q, key_of_q, key_of_p)
            .expect("slots were freed");
        self.config_version += 1;
        // Incremental cache maintenance: only the touched peers change, and
        // only their neighbourhoods can gain new blocking pairs.
        self.refresh_threshold(p);
        self.refresh_threshold(q);
        self.mark_neighborhood_dirty(p);
        self.mark_neighborhood_dirty(q);
        if let Some(w) = dropped_by_peer {
            self.refresh_threshold(w);
            self.mark_neighborhood_dirty(w);
        }
        if let Some(w) = dropped_by_mate {
            self.refresh_threshold(w);
            self.mark_neighborhood_dirty(w);
        }
        InitiativeOutcome::Active {
            peer: p,
            mate: q,
            dropped_by_peer,
            dropped_by_mate,
        }
    }

    /// Runs deterministic round-robin best-mate sweeps until stability,
    /// returning the number of active initiatives performed. From `C∅`
    /// this reaches the table's canonical stable configuration (the
    /// generalized Figure 2 starting point). Cycle-free systems — a global
    /// ranking, a symmetric utility such as latency, or a lexicographic
    /// combination of them — always settle: a revisit would extract a
    /// preference cycle (the argument of the paper's Theorem 1).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoStableConfiguration`] on a configuration
    /// revisit (odd preference cycle). [`matching`](Self::matching) then
    /// holds the revisited configuration, and
    /// [`active_initiative_count`](Self::active_initiative_count) counts
    /// the initiatives that led there.
    pub fn settle(&mut self) -> Result<u64, ModelError> {
        let fingerprint =
            |m: &Matching| edge_fingerprint((0..m.node_count()).map(|u| m.mates(NodeId::new(u))));
        let mut seen: HashSet<u64> = HashSet::new();
        seen.insert(fingerprint(&self.matching));
        let mut steps = 0u64;
        loop {
            let mut any_active = false;
            for p in 0..self.node_count() {
                if self.best_mate_initiative(NodeId::new(p)).is_active() {
                    steps += 1;
                    any_active = true;
                }
            }
            if !any_active {
                return Ok(steps);
            }
            if !seen.insert(fingerprint(&self.matching)) {
                return Err(ModelError::NoStableConfiguration);
            }
        }
    }

    /// Disorder of the current configuration: distance to the instant
    /// stable configuration of the present peers, in the key table's
    /// metric ([`PreferenceKeys::disorder`]; the 1-matching metric of §3
    /// for the global ranking).
    ///
    /// The *value* is memoized per `(presence, configuration)` version pair
    /// on top of the instant-stable memo (which is itself memoized per
    /// presence set), so repeated reads at a fixed configuration cost O(1)
    /// rather than an O(n) distance scan.
    ///
    /// # Panics
    ///
    /// Panics if the key table admits no stable configuration.
    #[must_use]
    pub fn disorder(&self) -> f64 {
        self.disorder_memo.get_or_compute(self.versions(), || {
            self.with_instant_stable(|stable| self.keys.disorder(&self.matching, stable))
        })
    }

    /// Disorder under the generalized b-matching metric
    /// ([`PreferenceKeys::disorder_general`]) — use this instead of
    /// [`disorder`](Self::disorder) when capacities exceed 1. Memoized
    /// like [`disorder`](Self::disorder).
    ///
    /// # Panics
    ///
    /// See [`disorder`](Self::disorder).
    #[must_use]
    pub fn disorder_general(&self) -> f64 {
        self.general_memo.get_or_compute(self.versions(), || {
            self.with_instant_stable(|stable| self.keys.disorder_general(&self.matching, stable))
        })
    }

    /// The instant stable configuration over present peers
    /// ([`PreferenceKeys::instant_stable`], memoized per presence set).
    ///
    /// # Panics
    ///
    /// See [`disorder`](Self::disorder).
    #[must_use]
    pub fn instant_stable(&self) -> Matching {
        self.with_instant_stable(Matching::clone)
    }

    /// Runs `read` on the instant stable configuration, recomputing the
    /// memo if a churn event invalidated it. Initiatives leave it valid:
    /// the baseline never depends on the current matching.
    fn with_instant_stable<T>(&self, read: impl FnOnce(&Matching) -> T) -> T {
        let mut memo = self.stable_memo.borrow_mut();
        if !matches!(*memo, Some((version, _)) if version == self.presence_version) {
            let stable = self.keys.instant_stable(&self.caps, &self.present);
            *memo = Some((self.presence_version, stable));
        }
        let (_, stable) = memo.as_ref().expect("memo just refreshed");
        read(stable)
    }

    /// Recomputes the cached acceptance threshold of `v` (O(1)).
    #[inline]
    fn refresh_threshold(&mut self, v: NodeId) {
        self.accept_below[v.index()] = blocking::accept_threshold(&self.matching, &self.caps, v);
    }

    fn refresh_all_thresholds(&mut self) {
        for v in 0..self.node_count() {
            self.refresh_threshold(NodeId::new(v));
        }
    }

    /// Marks `v` and every acceptance-neighbour of `v` dirty: `v`'s mate
    /// set or presence changed, which is the only way a blocking pair
    /// involving them can appear.
    fn mark_neighborhood_dirty(&mut self, v: NodeId) {
        self.dirty[v.index()] = true;
        let (ids, _) = self.keys.row(v);
        for &w in ids {
            self.dirty[w.index()] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use strat_graph::generators;

    use crate::{distance, stable_configuration, stable_configuration_masked, GlobalRanking};

    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn build(
        count: usize,
        degree: f64,
        b0: u32,
        strategy: InitiativeStrategy,
        seed: u64,
    ) -> (Dynamics, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::erdos_renyi_mean_degree(count, degree, &mut rng);
        let acc = RankedAcceptance::new(graph, GlobalRanking::identity(count)).unwrap();
        let caps = Capacities::constant(count, b0);
        (Dynamics::new(acc, caps, strategy).unwrap(), rng)
    }

    /// Brute-force recomputation of every threshold; the incremental cache
    /// must match it after any sequence of operations.
    fn assert_thresholds_consistent(dynamics: &Dynamics) {
        for v in 0..dynamics.node_count() {
            let v = n(v);
            assert_eq!(
                dynamics.accept_below[v.index()],
                blocking::accept_threshold(dynamics.matching(), dynamics.capacities(), v),
                "stale threshold for {v}"
            );
        }
    }

    #[test]
    fn best_mate_converges_to_stable() {
        let (mut dyn_, mut rng) = build(80, 10.0, 1, InitiativeStrategy::BestMate, 4);
        let stable = stable_configuration(dyn_.keys(), dyn_.capacities()).unwrap();
        for _ in 0..200 {
            dyn_.run_base_unit(&mut rng);
            if dyn_.matching() == &stable {
                break;
            }
        }
        assert_eq!(dyn_.matching(), &stable);
        assert!(dyn_.is_stable());
        assert_eq!(dyn_.disorder(), 0.0);
    }

    #[test]
    fn decremental_and_random_also_converge() {
        for strategy in [InitiativeStrategy::Decremental, InitiativeStrategy::Random] {
            let (mut dyn_, mut rng) = build(40, 8.0, 2, strategy, 9);
            for _ in 0..2000 {
                dyn_.run_base_unit(&mut rng);
                if dyn_.is_stable() {
                    break;
                }
            }
            assert!(dyn_.is_stable(), "{strategy:?} failed to converge");
            let stable = stable_configuration(dyn_.keys(), dyn_.capacities()).unwrap();
            assert_eq!(
                dyn_.matching(),
                &stable,
                "{strategy:?} reached a different fixpoint"
            );
        }
    }

    #[test]
    fn initiatives_preserve_invariants() {
        let (mut dyn_, mut rng) = build(50, 12.0, 3, InitiativeStrategy::Random, 21);
        for _ in 0..500 {
            dyn_.step(&mut rng);
            assert!(dyn_
                .matching()
                .check_invariants(dyn_.keys().ranking(), dyn_.capacities()));
        }
        assert_thresholds_consistent(&dyn_);
    }

    #[test]
    fn threshold_cache_stays_consistent_under_churn_and_steps() {
        let (mut dyn_, mut rng) = build(40, 9.0, 2, InitiativeStrategy::BestMate, 33);
        for round in 0..60 {
            dyn_.step(&mut rng);
            if round % 7 == 0 {
                dyn_.remove_peer(n(round % 40));
            }
            if round % 11 == 0 {
                dyn_.insert_peer(n((round * 3) % 40));
            }
            assert_thresholds_consistent(&dyn_);
        }
    }

    #[test]
    fn instant_stable_memo_matches_fresh_computation() {
        let (mut dyn_, mut rng) = build(60, 9.0, 2, InitiativeStrategy::Random, 17);
        let fresh = |d: &Dynamics| {
            stable_configuration_masked(d.keys(), d.capacities(), |v| d.is_present(v)).unwrap()
        };
        for round in 0..80 {
            dyn_.step(&mut rng);
            if round % 9 == 3 {
                dyn_.remove_peer(n(round % 60));
            }
            if round % 13 == 5 {
                dyn_.insert_peer(n((round * 7) % 60));
            }
            // Memoized metric must agree with a from-scratch recomputation
            // after any mix of initiative and churn events, including
            // repeated reads between events.
            let stable = fresh(&dyn_);
            assert_eq!(dyn_.instant_stable(), stable);
            let want = distance::distance_general(dyn_.keys().ranking(), dyn_.matching(), &stable);
            assert_eq!(dyn_.disorder_general(), want);
            assert_eq!(
                dyn_.disorder_general(),
                want,
                "second (memoized) read differs"
            );
        }
    }

    #[test]
    fn disorder_general_value_memo_tracks_every_event_kind() {
        // The value memo must refresh across initiatives (config version),
        // removals and insertions (presence version) alike.
        let (mut dyn_, mut rng) = build(50, 10.0, 2, InitiativeStrategy::BestMate, 29);
        let fresh = |d: &Dynamics| {
            let stable =
                stable_configuration_masked(d.keys(), d.capacities(), |v| d.is_present(v)).unwrap();
            distance::distance_general(d.keys().ranking(), d.matching(), &stable)
        };
        assert_eq!(dyn_.disorder_general(), fresh(&dyn_));
        dyn_.run_base_unit(&mut rng);
        assert_eq!(dyn_.disorder_general(), fresh(&dyn_));
        dyn_.remove_peer(n(3));
        assert_eq!(dyn_.disorder_general(), fresh(&dyn_));
        dyn_.insert_peer(n(3));
        assert_eq!(dyn_.disorder_general(), fresh(&dyn_));
        // And a second read with no event in between stays identical.
        assert_eq!(dyn_.disorder_general(), fresh(&dyn_));
    }

    #[test]
    fn disorder_value_memo_tracks_every_event_kind() {
        // The value memo must refresh across initiatives (config version),
        // removals and insertions (presence version) alike.
        let (mut dyn_, mut rng) = build(50, 10.0, 1, InitiativeStrategy::BestMate, 31);
        let fresh = |d: &Dynamics| {
            let stable =
                stable_configuration_masked(d.keys(), d.capacities(), |v| d.is_present(v)).unwrap();
            distance::disorder(d.keys().ranking(), d.matching(), &stable)
        };
        assert_eq!(dyn_.disorder(), fresh(&dyn_));
        dyn_.run_base_unit(&mut rng);
        assert_eq!(dyn_.disorder(), fresh(&dyn_));
        dyn_.remove_peer(n(3));
        assert_eq!(dyn_.disorder(), fresh(&dyn_));
        dyn_.insert_peer(n(3));
        assert_eq!(dyn_.disorder(), fresh(&dyn_));
        // And a second read with no event in between stays identical.
        assert_eq!(dyn_.disorder(), fresh(&dyn_));
    }

    #[test]
    fn disorder_memo_survives_initiatives_and_invalidates_on_churn() {
        let (mut dyn_, mut rng) = build(40, 8.0, 1, InitiativeStrategy::BestMate, 23);
        let before = dyn_.instant_stable();
        for _ in 0..5 {
            dyn_.run_base_unit(&mut rng);
        }
        // Initiatives never change the instant stable configuration.
        assert_eq!(dyn_.instant_stable(), before);
        dyn_.remove_peer(n(0));
        let after = dyn_.instant_stable();
        assert_eq!(after.degree(n(0)), 0);
        assert_ne!(after, before);
    }

    #[test]
    fn active_initiative_counting() {
        let (mut dyn_, mut rng) = build(30, 6.0, 1, InitiativeStrategy::BestMate, 2);
        for _ in 0..300 {
            dyn_.step(&mut rng);
        }
        assert!(dyn_.initiative_count() >= 300);
        assert!(dyn_.active_initiative_count() <= dyn_.initiative_count());
        // Theorem 1: at most B/2 active initiatives are *needed*; the random
        // scheduler may use more, but convergence must have happened here.
        assert!(dyn_.is_stable());
    }

    #[test]
    fn removal_perturbs_then_reconverges() {
        let (mut dyn_, mut rng) = build(60, 10.0, 1, InitiativeStrategy::BestMate, 7);
        while !dyn_.is_stable() {
            dyn_.run_base_unit(&mut rng);
        }
        dyn_.remove_peer(n(0));
        assert!(!dyn_.is_present(n(0)));
        assert_eq!(dyn_.present_count(), 59);
        // Disorder is measured against the new instant stable configuration.
        let d0 = dyn_.disorder();
        for _ in 0..100 {
            dyn_.run_base_unit(&mut rng);
        }
        assert!(dyn_.is_stable());
        assert!(dyn_.disorder() <= d0);
        // The removed peer stays unmated.
        assert_eq!(dyn_.matching().degree(n(0)), 0);
    }

    #[test]
    fn insert_restores_presence() {
        let (mut dyn_, mut rng) = build(20, 8.0, 1, InitiativeStrategy::BestMate, 3);
        dyn_.remove_peer(n(5));
        dyn_.insert_peer(n(5));
        assert!(dyn_.is_present(n(5)));
        assert_eq!(dyn_.present_count(), 20);
        for _ in 0..200 {
            dyn_.run_base_unit(&mut rng);
        }
        assert!(dyn_.is_stable());
    }

    #[test]
    fn empty_system_steps_are_inactive() {
        let (mut dyn_, mut rng) = build(3, 2.0, 1, InitiativeStrategy::BestMate, 1);
        for i in 0..3 {
            dyn_.remove_peer(n(i));
        }
        assert_eq!(dyn_.step(&mut rng), InitiativeOutcome::Inactive);
    }

    #[test]
    fn with_configuration_starts_elsewhere() {
        let (dyn0, _) = build(10, 9.0, 1, InitiativeStrategy::BestMate, 5);
        let acc = dyn0.keys().clone();
        let caps = dyn0.capacities().clone();
        let stable = stable_configuration(&acc, &caps).unwrap();
        let dyn_ =
            Dynamics::with_configuration(acc, caps, InitiativeStrategy::BestMate, stable.clone())
                .unwrap();
        assert!(dyn_.is_stable());
        assert_eq!(dyn_.disorder(), 0.0);
        assert_thresholds_consistent(&dyn_);
    }

    #[test]
    fn theorem1_greedy_schedule_uses_at_most_b_over_2_actives() {
        // Theorem 1: the stable solution CAN be reached in B/2 initiatives.
        // The witnessing schedule processes peers best-rank-first, each
        // repeating best-mate initiatives until inactive (Algorithm 1 replay).
        // Every active initiative then creates one stable edge, so the count
        // equals the stable edge count <= B/2.
        let (mut dyn_, mut rng) = build(40, 10.0, 2, InitiativeStrategy::BestMate, 13);
        let b_total = dyn_.capacities().total();
        let mut actives = 0u64;
        for v in 0..dyn_.node_count() {
            while dyn_.initiative(n(v), &mut rng).is_active() {
                actives += 1;
            }
        }
        assert!(dyn_.is_stable());
        assert_eq!(actives as usize, dyn_.matching().edge_count());
        assert!(
            actives <= b_total / 2,
            "greedy schedule used {actives} active initiatives, bound {}",
            b_total / 2
        );
    }
}
