//! Generalized preference systems (§2 framework, §7 future work).
//!
//! The paper's analysis targets the *global ranking* utility class, but its
//! model — stable b-matching driven by per-peer preferences — is generic,
//! and the conclusion explicitly proposes richer utilities: *"Such a
//! combination can, for instance, be achieved by introducing a second type
//! of collaborations depending on a different global ranking or depending
//! on a symmetric ranking such as latency."* This module implements that
//! program:
//!
//! * [`PreferenceSystem`] — the abstract mate-comparison interface;
//! * [`GlobalPrefs`] — the paper's global ranking (no preference cycles;
//!   unique stable configuration);
//! * [`LatencyPrefs`] — a *symmetric* utility: peers prefer nearby peers
//!   (e.g. RTT). Symmetric utilities are also cycle-free (they derive from
//!   a potential on edges), so stability is still guaranteed — but the
//!   stable configuration clusters by *distance*, not rank;
//! * [`LexicographicPrefs`] — combination of two systems (primary, then
//!   secondary tie-break);
//! * [`PrefAcceptance`] — the precomputed per-neighborhood key table
//!   ([`PreferenceKeys`]) that lets the incremental initiative driver
//!   ([`Dynamics`]) run *any* preference system at the ranked path's
//!   speed: rows sorted best-first by the owner's preference, with
//!   reciprocal keys materialized per slot, the best-mate fixpoint as the
//!   instant-stable baseline and a keyed disorder metric;
//! * [`PrefMatching`] + [`best_mate_dynamics`] — blocking-pair dynamics
//!   under arbitrary preferences, with oscillation detection. General
//!   roommates instances may have **no** stable configuration (Tan's odd
//!   preference cycles); [`best_mate_dynamics`] reports that instead of
//!   spinning forever, and [`odd_cycle_instance`] constructs the classic
//!   witness. `best_mate_dynamics` runs on the dirty-set path of
//!   [`Dynamics`] (clean peers skip their scans); the historical
//!   full-scan implementation survives as
//!   [`crate::reference::best_mate_dynamics`] for differential testing
//!   and benchmarking.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use strat_graph::{Graph, NodeId};

use crate::{
    distance, Capacities, Dynamics, GlobalRanking, InitiativeOutcome, InitiativeStrategy, Matching,
    PreferenceKeys, Rank,
};

/// A per-peer preference order over potential mates.
///
/// Implementations must be *strict* (no ties) for the dynamics to be
/// well-defined; use deterministic tie-breaks (e.g. node id) when the
/// underlying utility can collide.
pub trait PreferenceSystem {
    /// Number of peers.
    fn n(&self) -> usize;

    /// Whether peer `p` strictly prefers `a` to `b` as a mate.
    fn prefers(&self, p: NodeId, a: NodeId, b: NodeId) -> bool;

    /// An optional scalar **sort key** for `candidate` in `p`'s eyes:
    /// when every member of a neighborhood reports `Some`, ordering the
    /// row by ascending `(key, id)` must reproduce exactly the order of
    /// pairwise [`prefers`](Self::prefers) comparisons with the id
    /// tie-break — the contract [`PrefAcceptance::build`] relies on to
    /// replace `O(deg log deg)` *indirect preference comparisons* per row
    /// with `deg` key evaluations and a plain scalar sort (the cold-start
    /// cost of the generalized engine is dominated by table
    /// construction).
    ///
    /// Return `None` (the default) when no such scalar exists (e.g.
    /// lexicographic combinations); builders fall back to the comparator
    /// path.
    fn sort_key(&self, _p: NodeId, _candidate: NodeId) -> Option<f64> {
        None
    }

    /// The most preferred element of `candidates` for `p`, if any.
    fn best_of(&self, p: NodeId, candidates: &[NodeId]) -> Option<NodeId> {
        let mut best: Option<NodeId> = None;
        for &c in candidates {
            if best.is_none_or(|b| self.prefers(p, c, b)) {
                best = Some(c);
            }
        }
        best
    }

    /// The least preferred element of `candidates` for `p`, if any.
    fn worst_of(&self, p: NodeId, candidates: &[NodeId]) -> Option<NodeId> {
        let mut worst: Option<NodeId> = None;
        for &c in candidates {
            if worst.is_none_or(|w| self.prefers(p, w, c)) {
                worst = Some(c);
            }
        }
        worst
    }
}

/// The paper's global-ranking utility: everyone prefers better-ranked
/// peers. Cycle-free ⇒ unique stable configuration (§3).
#[derive(Debug, Clone)]
pub struct GlobalPrefs {
    ranking: GlobalRanking,
}

impl GlobalPrefs {
    /// Wraps a global ranking.
    #[must_use]
    pub fn new(ranking: GlobalRanking) -> Self {
        Self { ranking }
    }

    /// The wrapped ranking.
    #[must_use]
    pub fn ranking(&self) -> &GlobalRanking {
        &self.ranking
    }
}

impl PreferenceSystem for GlobalPrefs {
    fn n(&self) -> usize {
        self.ranking.len()
    }

    fn prefers(&self, _p: NodeId, a: NodeId, b: NodeId) -> bool {
        self.ranking.prefers(a, b)
    }

    fn sort_key(&self, _p: NodeId, candidate: NodeId) -> Option<f64> {
        // Rank positions are < 2^32, exactly representable in f64.
        Some(self.ranking.rank_of(candidate).position() as f64)
    }
}

/// A symmetric, distance-based utility: peer `p` prefers mates with
/// smaller `|position(p) − position(a)|` (think RTT in a latency space).
///
/// Symmetric utilities admit no preference cycle either — along any cycle
/// `p₁ … p_k` where each prefers its successor to its predecessor, the
/// edge distances must strictly decrease around the cycle, which is
/// impossible — so a stable configuration exists; the induced clustering
/// is by *distance* rather than by rank (the paper's §7 streaming
/// trade-off).
#[derive(Debug, Clone)]
pub struct LatencyPrefs {
    positions: Vec<f64>,
}

impl LatencyPrefs {
    /// Builds from per-peer coordinates in a 1-D latency space.
    ///
    /// # Panics
    ///
    /// Panics if a position is not finite.
    #[must_use]
    pub fn new(positions: Vec<f64>) -> Self {
        assert!(
            positions.iter().all(|x| x.is_finite()),
            "positions must be finite"
        );
        Self { positions }
    }

    /// Distance between two peers.
    #[must_use]
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        (self.positions[a.index()] - self.positions[b.index()]).abs()
    }
}

impl PreferenceSystem for LatencyPrefs {
    fn n(&self) -> usize {
        self.positions.len()
    }

    fn prefers(&self, p: NodeId, a: NodeId, b: NodeId) -> bool {
        let da = self.distance(p, a);
        let db = self.distance(p, b);
        // Deterministic tie-break on node id keeps preferences strict.
        da < db || (da == db && a < b)
    }

    fn sort_key(&self, p: NodeId, candidate: NodeId) -> Option<f64> {
        // `prefers` is exactly "(distance, id) ascending" (positions are
        // finite, so distances never collide as NaN).
        Some(self.distance(p, candidate))
    }
}

/// Lexicographic combination: compare with `primary`; on a primary tie
/// (neither preferred), fall back to `secondary`.
///
/// With a strict primary this degenerates to the primary alone; it shines
/// when the primary is a *coarsened* utility (e.g. bandwidth classes) and
/// the secondary refines within classes (e.g. latency) — the paper's
/// "combining different utility functions".
#[derive(Debug, Clone)]
pub struct LexicographicPrefs<P, S> {
    primary: P,
    secondary: S,
}

impl<P: PreferenceSystem, S: PreferenceSystem> LexicographicPrefs<P, S> {
    /// Combines two systems.
    ///
    /// # Panics
    ///
    /// Panics if the systems cover different peer counts.
    #[must_use]
    pub fn new(primary: P, secondary: S) -> Self {
        assert_eq!(primary.n(), secondary.n(), "peer counts must agree");
        Self { primary, secondary }
    }
}

impl<P: PreferenceSystem, S: PreferenceSystem> PreferenceSystem for LexicographicPrefs<P, S> {
    fn n(&self) -> usize {
        self.primary.n()
    }

    fn prefers(&self, p: NodeId, a: NodeId, b: NodeId) -> bool {
        if self.primary.prefers(p, a, b) {
            return true;
        }
        if self.primary.prefers(p, b, a) {
            return false;
        }
        self.secondary.prefers(p, a, b)
    }
}

/// A coarsened global ranking: peers are compared by `rank / class_width`
/// (banded classes), leaving intra-class comparisons to a secondary
/// system.
#[derive(Debug, Clone)]
pub struct BandedRankPrefs {
    ranking: GlobalRanking,
    class_width: usize,
}

impl BandedRankPrefs {
    /// Bands the ranking into classes of `class_width` consecutive ranks.
    ///
    /// # Panics
    ///
    /// Panics if `class_width == 0`.
    #[must_use]
    pub fn new(ranking: GlobalRanking, class_width: usize) -> Self {
        assert!(class_width > 0, "class width must be positive");
        Self {
            ranking,
            class_width,
        }
    }

    fn class(&self, v: NodeId) -> usize {
        self.ranking.rank_of(v).position() / self.class_width
    }
}

impl PreferenceSystem for BandedRankPrefs {
    fn n(&self) -> usize {
        self.ranking.len()
    }

    fn prefers(&self, _p: NodeId, a: NodeId, b: NodeId) -> bool {
        self.class(a) < self.class(b)
    }

    fn sort_key(&self, _p: NodeId, candidate: NodeId) -> Option<f64> {
        // Intra-class ties resolve to ascending id under `(key, id)` —
        // the same deterministic strictness the comparator path imposes.
        Some(self.class(candidate) as f64)
    }
}

/// A b-matching configuration under arbitrary preferences (mate lists
/// unsorted; worst-mate queries go through the preference system).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefMatching {
    mates: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl PrefMatching {
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

    pub(crate) fn connect(&mut self, u: NodeId, v: NodeId) {
        debug_assert!(u != v && !self.contains(u, v));
        self.mates[u.index()].push(v);
        self.mates[v.index()].push(u);
        self.edge_count += 1;
    }

    pub(crate) fn disconnect(&mut self, u: NodeId, v: NodeId) {
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
    #[must_use]
    pub fn would_accept<P: PreferenceSystem>(
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

    /// Order-insensitive fingerprint of the configuration (for cycle
    /// detection in the dynamics).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        edge_fingerprint(self.mates.iter().map(Vec::as_slice))
    }
}

/// Order-insensitive fingerprint of a configuration given as its mate
/// rows, row `u` holding the mates of peer `u` (revisit detection in
/// [`best_mate_dynamics`] and [`Dynamics::settle`]).
pub(crate) fn edge_fingerprint<'a>(rows: impl Iterator<Item = &'a [NodeId]>) -> u64 {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (u, mates) in rows.enumerate() {
        for &v in mates {
            if u < v.index() {
                edges.push((u as u32, v.raw()));
            }
        }
    }
    edges.sort_unstable();
    let mut hasher = DefaultHasher::new();
    edges.hash(&mut hasher);
    hasher.finish()
}

/// Outcome of the generalized best-mate dynamics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefDynamicsOutcome {
    /// A stable configuration was reached.
    Stable(PrefMatching),
    /// The dynamics revisited a configuration: a preference cycle exists on
    /// this instance (Tan's condition fails) and no run of active
    /// initiatives can settle from here.
    Oscillating {
        /// The configuration at which the revisit was detected.
        at: PrefMatching,
        /// Active initiatives performed before detection.
        steps: u64,
    },
}

/// Runs deterministic round-robin best-mate dynamics under arbitrary
/// preferences until stability or a configuration revisit.
///
/// Each sweep gives every peer one initiative: find the best acceptable
/// blocking mate and match with it (evicting worst mates as needed). For
/// cycle-free systems — any [`GlobalPrefs`], [`LatencyPrefs`], or
/// lexicographic combination of them — this terminates in a stable
/// configuration (the argument of the paper's Theorem 1 applies verbatim:
/// a revisit would extract a preference cycle).
///
/// Internally the sweeps run on the incremental [`Dynamics`] over a
/// [`PrefAcceptance`] key table: a peer whose last scan found no blocking
/// mate is *clean* and skips its scan entirely until an event in its
/// neighborhood can re-create one (the driver's dirty-set memo). A clean
/// peer's scan would have returned `None` anyway, so the sequence of
/// active initiatives — and therefore every intermediate and final
/// configuration, including the reported `steps` and oscillation point —
/// is identical to the historical full-scan implementation retained as
/// [`crate::reference::best_mate_dynamics`] (which differential tests
/// assert).
///
/// # Panics
///
/// Panics if sizes of `graph`, `prefs` and `caps` disagree.
pub fn best_mate_dynamics<P: PreferenceSystem>(
    graph: &Graph,
    prefs: &P,
    caps: &Capacities,
) -> PrefDynamicsOutcome {
    let n = graph.node_count();
    assert_eq!(prefs.n(), n, "preference system size mismatch");
    caps.check_len(n).expect("capacity size mismatch");
    let keys = PrefAcceptance::build(graph, prefs);
    let mut dynamics = Dynamics::new(keys, caps.clone(), InitiativeStrategy::BestMate)
        .expect("sizes checked above");
    // The driver's arena matching caches preference keys; the public
    // outcome keeps the historical `PrefMatching` representation, rebuilt
    // by replaying the driver's own connect/evict events in order (cheap:
    // O(b) per active initiative, off the scan hot path).
    let mut shadow = PrefMatching::new(n);
    let mut seen: HashSet<u64> = HashSet::new();
    seen.insert(shadow.fingerprint());
    let mut steps = 0u64;
    loop {
        let mut any_active = false;
        for p in graph.nodes() {
            if let InitiativeOutcome::Active {
                peer,
                mate,
                dropped_by_peer,
                dropped_by_mate,
            } = dynamics.best_mate_initiative(p)
            {
                if let Some(w) = dropped_by_peer {
                    shadow.disconnect(peer, w);
                }
                if let Some(w) = dropped_by_mate {
                    shadow.disconnect(mate, w);
                }
                shadow.connect(peer, mate);
                steps += 1;
                any_active = true;
            }
        }
        if !any_active {
            return PrefDynamicsOutcome::Stable(shadow);
        }
        if !seen.insert(shadow.fingerprint()) {
            return PrefDynamicsOutcome::Oscillating { at: shadow, steps };
        }
    }
}

/// Precomputed preference-key table over an acceptance graph: the
/// [`PreferenceKeys`] instantiation for arbitrary [`PreferenceSystem`]s,
/// built once per topology (the generalized analogue of
/// [`crate::RankedAcceptance`]'s rank-sorted CSR rows).
///
/// Layout: one CSR arena holding, per peer, its acceptance row sorted
/// **best-first by the owner's preference**, a parallel key slice (key of
/// slot `k` is simply `k` — the owner's local preference position), and a
/// parallel **reciprocal key** slice (`rev_keys[k]` = the position the
/// `k`-th neighbour gives the owner in *its* row). The reciprocal half of
/// every blocking-pair test thus becomes a single contiguous array read —
/// no preference comparison runs after construction.
///
/// Construction is `O(Σ deg · log deg)` comparisons for the per-row sorts
/// plus two `O(Σ deg)` counting passes for the reciprocal keys (the same
/// cursor scatter the swarm overlay uses: the underlying adjacency rows
/// ascend by id, so the slots pointing at a fixed target are visited in
/// exactly that target's row order).
#[derive(Debug, Clone)]
pub struct PrefAcceptance {
    /// CSR row boundaries: row `v` is `adj[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    /// Flattened adjacency, each row sorted best-first by owner preference.
    adj: Vec<NodeId>,
    /// `adj_keys[offsets[v] + k] == Rank::new(k)` — materialized so engine
    /// scans consume one contiguous slice per row.
    adj_keys: Vec<Rank>,
    /// `rev_keys[offsets[v] + k]` = key that `adj[offsets[v] + k]` assigns
    /// to `v` in its own row.
    rev_keys: Vec<Rank>,
}

impl PrefAcceptance {
    /// Builds the key table for `graph` under `prefs`.
    ///
    /// # Panics
    ///
    /// Panics if `graph` and `prefs` cover different peer counts.
    #[must_use]
    pub fn build<P: PreferenceSystem>(graph: &Graph, prefs: &P) -> Self {
        let n = graph.node_count();
        assert_eq!(prefs.n(), n, "preference system size mismatch");
        let total: usize = graph.nodes().map(|v| graph.degree(v)).sum();
        assert!(
            total <= u32::MAX as usize,
            "acceptance graph too large for CSR offsets"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut running = 0usize;
        for v in graph.nodes() {
            running += graph.degree(v);
            offsets.push(running as u32);
        }

        // Pass 1: preference position of every id-ordered slot. Strict
        // preferences (the trait contract) decide every comparison with one
        // `prefers` call; should an implementation still tie (e.g. a bare
        // [`BandedRankPrefs`] outside a lexicographic wrapper), the node-id
        // fallback keeps the comparator a total order — the table then
        // *imposes* the strictness the contract asks for, deterministically,
        // instead of handing `sort_unstable_by` an inconsistent comparator.
        //
        // When the system provides scalar sort keys
        // ([`PreferenceSystem::sort_key`]), each row sorts by its cached
        // `(key, id)` pairs instead: `deg` key evaluations + a scalar sort
        // replace `O(deg log deg)` indirect `prefers` calls. The key
        // contract makes the two paths produce the identical order, so the
        // table — and everything downstream — is bit-identical either way
        // (this is what seeds the generalized engine's cold start the way
        // Algorithm 1's precomputed ranks seed the ranked path).
        let mut pref_pos = vec![0u32; total];
        let mut order: Vec<u32> = Vec::new();
        let mut keys: Vec<f64> = Vec::new();
        for v in graph.nodes() {
            let row = graph.neighbors(v);
            let base = offsets[v.index()] as usize;
            order.clear();
            order.extend(0..row.len() as u32);
            keys.clear();
            let mut keyed = true;
            for &q in row {
                match prefs.sort_key(v, q) {
                    Some(key) => keys.push(key),
                    None => {
                        keyed = false;
                        break;
                    }
                }
            }
            if keyed {
                order.sort_unstable_by(|&a, &b| {
                    keys[a as usize]
                        .total_cmp(&keys[b as usize])
                        .then_with(|| row[a as usize].cmp(&row[b as usize]))
                });
            } else {
                order.sort_unstable_by(|&a, &b| {
                    let (qa, qb) = (row[a as usize], row[b as usize]);
                    if prefs.prefers(v, qa, qb) {
                        Ordering::Less
                    } else if prefs.prefers(v, qb, qa) {
                        Ordering::Greater
                    } else {
                        qa.cmp(&qb)
                    }
                });
            }
            for (pos, &slot) in order.iter().enumerate() {
                pref_pos[base + slot as usize] = pos as u32;
            }
        }

        // Pass 2: reverse slot of every id-ordered slot via cursor
        // counting — adjacency rows ascend by id, so for a fixed target
        // `q` the slots `(v → q)` are visited in exactly the order of
        // `q`'s own row.
        let mut rev_slot = vec![0u32; total];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for v in graph.nodes() {
            let base = offsets[v.index()] as usize;
            for (k, &q) in graph.neighbors(v).iter().enumerate() {
                rev_slot[base + k] = cursor[q.index()];
                cursor[q.index()] += 1;
            }
        }

        // Pass 3: scatter into the preference-sorted layout.
        let mut adj = vec![NodeId::new(0); total];
        let mut adj_keys = vec![Rank::new(0); total];
        let mut rev_keys = vec![Rank::new(0); total];
        for v in graph.nodes() {
            let base = offsets[v.index()] as usize;
            for (k, &q) in graph.neighbors(v).iter().enumerate() {
                let pos = pref_pos[base + k] as usize;
                adj[base + pos] = q;
                adj_keys[base + pos] = Rank::new(pos);
                rev_keys[base + pos] = Rank::new(pref_pos[rev_slot[base + k] as usize] as usize);
            }
        }
        Self {
            offsets,
            adj,
            adj_keys,
            rev_keys,
        }
    }

    /// CSR row bounds of `v`.
    #[inline]
    fn bounds(&self, v: NodeId) -> (usize, usize) {
        (
            self.offsets[v.index()] as usize,
            self.offsets[v.index() + 1] as usize,
        )
    }

    /// Number of acceptable peers of `v`.
    #[inline]
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        let (lo, hi) = self.bounds(v);
        hi - lo
    }

    /// Acceptable peers of `v`, most preferred first.
    #[inline]
    #[must_use]
    pub fn neighbors_best_first(&self, v: NodeId) -> &[NodeId] {
        let (lo, hi) = self.bounds(v);
        &self.adj[lo..hi]
    }
}

impl PreferenceKeys for PrefAcceptance {
    fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn row(&self, v: NodeId) -> (&[NodeId], &[Rank]) {
        let (lo, hi) = self.bounds(v);
        (&self.adj[lo..hi], &self.adj_keys[lo..hi])
    }

    #[inline]
    fn rev_key(&self, v: NodeId, k: usize) -> Rank {
        self.rev_keys[self.offsets[v.index()] as usize + k]
    }

    /// The deterministic round-robin best-mate fixpoint from `C∅` over the
    /// present peers ([`Dynamics::settle`] on a scratch driver): general
    /// systems lose uniqueness, and this is a canonical stable
    /// configuration for any cycle-free one.
    fn instant_stable(&self, caps: &Capacities, present: &[bool]) -> Matching {
        let mut scratch = Dynamics::new(self, caps.clone(), InitiativeStrategy::BestMate)
            .expect("sizes validated at construction");
        for (v, &here) in present.iter().enumerate() {
            if !here {
                scratch.remove_peer(NodeId::new(v));
            }
        }
        scratch
            .settle()
            .expect("instant stable configuration requires a cycle-free system");
        let (matching, _) = scratch.into_parts();
        matching
    }

    fn disorder(&self, matching: &Matching, stable: &Matching) -> f64 {
        distance::distance_keyed(matching, stable)
    }

    fn disorder_general(&self, matching: &Matching, stable: &Matching) -> f64 {
        distance::distance_keyed(matching, stable)
    }
}

/// The classic stable-roommates instance **without** a stable matching:
/// three peers in an odd preference cycle (each prefers its successor)
/// plus an isolated option-less fourth. Returns `(graph, prefs)` where
/// prefs are encoded as explicit per-peer orders.
///
/// Used to demonstrate that general utilities lose the paper's
/// existence/uniqueness guarantees — exactly why the global-ranking class
/// matters.
#[must_use]
pub fn odd_cycle_instance() -> (Graph, ExplicitPrefs) {
    let n = |i: usize| NodeId::new(i);
    // Complete graph on 3 peers.
    let graph =
        Graph::from_edges(3, [(n(0), n(1)), (n(1), n(2)), (n(2), n(0))]).expect("valid triangle");
    // 0 prefers 1 over 2; 1 prefers 2 over 0; 2 prefers 0 over 1.
    let orders = vec![vec![n(1), n(2)], vec![n(2), n(0)], vec![n(0), n(1)]];
    (graph, ExplicitPrefs::new(orders))
}

/// Preferences given as explicit per-peer orders (most preferred first).
/// Peers absent from an order are less preferred than all listed ones,
/// compared by node id among themselves.
#[derive(Debug, Clone)]
pub struct ExplicitPrefs {
    orders: Vec<Vec<NodeId>>,
}

impl ExplicitPrefs {
    /// Builds from explicit orders.
    #[must_use]
    pub fn new(orders: Vec<Vec<NodeId>>) -> Self {
        Self { orders }
    }

    fn position(&self, p: NodeId, a: NodeId) -> usize {
        self.orders[p.index()]
            .iter()
            .position(|&x| x == a)
            .unwrap_or(usize::MAX - a.index())
    }
}

impl PreferenceSystem for ExplicitPrefs {
    fn n(&self) -> usize {
        self.orders.len()
    }

    fn prefers(&self, p: NodeId, a: NodeId, b: NodeId) -> bool {
        self.position(p, a) < self.position(p, b)
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use strat_graph::generators;

    use crate::{stable_configuration, RankedAcceptance};

    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn global_prefs_match_ranking() {
        let prefs = GlobalPrefs::new(GlobalRanking::identity(4));
        assert!(prefs.prefers(n(3), n(0), n(1)));
        assert!(!prefs.prefers(n(3), n(2), n(1)));
        assert_eq!(prefs.best_of(n(0), &[n(2), n(1), n(3)]), Some(n(1)));
        assert_eq!(prefs.worst_of(n(0), &[n(2), n(1), n(3)]), Some(n(3)));
    }

    #[test]
    fn latency_prefs_prefer_nearby() {
        let prefs = LatencyPrefs::new(vec![0.0, 1.0, 5.0, 5.5]);
        assert!(prefs.prefers(n(0), n(1), n(2)));
        assert!(prefs.prefers(n(2), n(3), n(1)));
        assert_eq!(prefs.distance(n(2), n(3)), 0.5);
    }

    #[test]
    fn lexicographic_falls_back_to_secondary() {
        let primary = BandedRankPrefs::new(GlobalRanking::identity(6), 3);
        let secondary = LatencyPrefs::new(vec![0.0, 9.0, 1.0, 2.0, 8.0, 7.0]);
        let prefs = LexicographicPrefs::new(primary, secondary);
        // 1 and 2 share the top class {0,1,2}: latency decides for peer 0.
        assert!(prefs.prefers(n(0), n(2), n(1)));
        // Across classes, the band wins regardless of latency.
        assert!(prefs.prefers(n(0), n(1), n(3)));
    }

    #[test]
    fn global_prefs_dynamics_agree_with_algorithm1() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..5 {
            let graph = generators::erdos_renyi_mean_degree(40, 8.0, &mut rng);
            let ranking = GlobalRanking::random(40, &mut rng);
            let caps = Capacities::constant(40, 2);
            let prefs = GlobalPrefs::new(ranking.clone());
            let outcome = best_mate_dynamics(&graph, &prefs, &caps);
            let PrefDynamicsOutcome::Stable(m) = outcome else {
                panic!("global ranking oscillated");
            };
            let acc = RankedAcceptance::new(graph, ranking).unwrap();
            let reference = stable_configuration(&acc, &caps).unwrap();
            // Same edge sets.
            for v in 0..40 {
                let mut a: Vec<_> = m.mates(n(v)).to_vec();
                let mut b: Vec<_> = reference.mates(n(v)).to_vec();
                a.sort();
                b.sort();
                assert_eq!(a, b, "peer {v}");
            }
        }
    }

    #[test]
    fn latency_prefs_reach_stability_and_cluster_by_distance() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n_peers = 60;
        let positions: Vec<f64> = (0..n_peers).map(|i| (i * 37 % n_peers) as f64).collect();
        let graph = generators::erdos_renyi_mean_degree(n_peers, 12.0, &mut rng);
        let prefs = LatencyPrefs::new(positions.clone());
        let caps = Capacities::constant(n_peers, 2);
        let outcome = best_mate_dynamics(&graph, &prefs, &caps);
        let PrefDynamicsOutcome::Stable(m) = outcome else {
            panic!("symmetric utility oscillated");
        };
        // Mates are nearby in latency on average: compare against random
        // acceptable pairs.
        let mut mate_dist = 0.0;
        let mut mate_count = 0.0;
        for v in 0..n_peers {
            for &w in m.mates(NodeId::new(v)) {
                mate_dist += (positions[v] - positions[w.index()]).abs();
                mate_count += 1.0;
            }
        }
        let mate_mean = mate_dist / mate_count;
        let mut edge_dist = 0.0;
        let mut edge_count = 0.0;
        for (u, w) in graph.edges() {
            edge_dist += (positions[u.index()] - positions[w.index()]).abs();
            edge_count += 1.0;
        }
        let edge_mean = edge_dist / edge_count;
        assert!(
            mate_mean < 0.5 * edge_mean,
            "latency clustering absent: mates {mate_mean:.1} vs acceptable {edge_mean:.1}"
        );
    }

    #[test]
    fn odd_cycle_has_no_stable_matching() {
        let (graph, prefs) = odd_cycle_instance();
        let caps = Capacities::constant(3, 1);
        match best_mate_dynamics(&graph, &prefs, &caps) {
            PrefDynamicsOutcome::Oscillating { steps, .. } => {
                assert!(steps > 0);
            }
            PrefDynamicsOutcome::Stable(m) => {
                panic!("odd preference cycle produced a 'stable' matching: {m:?}")
            }
        }
    }

    #[test]
    fn explicit_prefs_unlisted_peers_rank_last() {
        let prefs = ExplicitPrefs::new(vec![vec![n(2)], vec![], vec![]]);
        assert!(prefs.prefers(n(0), n(2), n(1)));
        // Among unlisted peers, larger index is preferred (usize::MAX - id).
        assert!(prefs.prefers(n(0), n(2), n(1)));
    }

    #[test]
    fn pref_matching_basics() {
        let mut m = PrefMatching::new(3);
        m.connect(n(0), n(2));
        assert!(m.contains(n(2), n(0)));
        assert_eq!(m.edge_count(), 1);
        let f1 = m.fingerprint();
        m.disconnect(n(0), n(2));
        assert_eq!(m.edge_count(), 0);
        m.connect(n(2), n(0));
        assert_eq!(m.fingerprint(), f1, "fingerprint must be order-insensitive");
    }

    #[test]
    fn banded_prefs_group_ranks() {
        let prefs = BandedRankPrefs::new(GlobalRanking::identity(9), 3);
        assert!(!prefs.prefers(n(8), n(1), n(2))); // same class
        assert!(prefs.prefers(n(8), n(2), n(3))); // class 0 vs class 1
    }

    #[test]
    fn pref_acceptance_rows_sorted_and_reciprocal() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let graph = generators::erdos_renyi_mean_degree(50, 9.0, &mut rng);
        let positions: Vec<f64> = (0..50).map(|i| (i * 17 % 50) as f64).collect();
        let prefs = LatencyPrefs::new(positions);
        let keys = PrefAcceptance::build(&graph, &prefs);
        assert_eq!(keys.node_count(), 50);
        for v in 0..50 {
            let v = n(v);
            let (ids, own) = keys.row(v);
            assert_eq!(ids.len(), graph.degree(v));
            assert_eq!(keys.degree(v), ids.len());
            assert_eq!(keys.neighbors_best_first(v), ids);
            // Keys are the local positions, strictly ascending.
            for (k, &key) in own.iter().enumerate() {
                assert_eq!(key.position(), k);
            }
            // Rows are sorted best-first by the owner's preference.
            for w in ids.windows(2) {
                assert!(prefs.prefers(v, w[0], w[1]), "row of {v} out of order");
            }
            // Reciprocal keys point back at the owner's slot in the
            // neighbour's row.
            for (k, &q) in ids.iter().enumerate() {
                let (q_ids, _) = keys.row(q);
                let back = q_ids.iter().position(|&w| w == v).expect("symmetric");
                assert_eq!(keys.rev_key(v, k).position(), back, "({v}, {q})");
            }
        }
    }

    #[test]
    fn keyed_and_comparator_builds_are_identical() {
        // A wrapper hiding the sort keys forces the comparator path; the
        // two tables must agree slot for slot.
        struct NoKeys<P>(P);
        impl<P: PreferenceSystem> PreferenceSystem for NoKeys<P> {
            fn n(&self) -> usize {
                self.0.n()
            }
            fn prefers(&self, p: NodeId, a: NodeId, b: NodeId) -> bool {
                self.0.prefers(p, a, b)
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(55);
        let graph = generators::erdos_renyi_mean_degree(80, 12.0, &mut rng);
        let positions: Vec<f64> = (0..80).map(|i| ((i * 31) % 80) as f64 * 0.5).collect();
        for (keyed, unkeyed) in [
            (
                PrefAcceptance::build(&graph, &LatencyPrefs::new(positions.clone())),
                PrefAcceptance::build(&graph, &NoKeys(LatencyPrefs::new(positions.clone()))),
            ),
            (
                PrefAcceptance::build(&graph, &GlobalPrefs::new(GlobalRanking::identity(80))),
                PrefAcceptance::build(
                    &graph,
                    &NoKeys(GlobalPrefs::new(GlobalRanking::identity(80))),
                ),
            ),
            (
                PrefAcceptance::build(
                    &graph,
                    &BandedRankPrefs::new(GlobalRanking::identity(80), 7),
                ),
                PrefAcceptance::build(
                    &graph,
                    &NoKeys(BandedRankPrefs::new(GlobalRanking::identity(80), 7)),
                ),
            ),
        ] {
            for v in 0..80 {
                let v = n(v);
                assert_eq!(keyed.row(v), unkeyed.row(v), "row of {v}");
                for k in 0..keyed.degree(v) {
                    assert_eq!(keyed.rev_key(v, k), unkeyed.rev_key(v, k), "({v}, {k})");
                }
            }
        }
    }

    #[test]
    fn general_dynamics_settle_reaches_canonical_fixpoint() {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let n_peers = 70;
        let graph = generators::erdos_renyi_mean_degree(n_peers, 11.0, &mut rng);
        let positions: Vec<f64> = (0..n_peers).map(|i| (i * 29 % n_peers) as f64).collect();
        let prefs = LatencyPrefs::new(positions);
        let caps = Capacities::constant(n_peers, 2);
        let mut dynamics = Dynamics::new(
            PrefAcceptance::build(&graph, &prefs),
            caps.clone(),
            InitiativeStrategy::BestMate,
        )
        .unwrap();
        let steps = dynamics.settle().unwrap();
        assert!(dynamics.is_stable());
        assert_eq!(dynamics.disorder(), 0.0);
        // Same sweeps as best_mate_dynamics: identical mate sets and steps.
        let PrefDynamicsOutcome::Stable(reference) = best_mate_dynamics(&graph, &prefs, &caps)
        else {
            panic!("latency prefs oscillated")
        };
        assert!(steps > 0);
        for v in 0..n_peers {
            let v = n(v);
            let mut a: Vec<NodeId> = dynamics.matching().mates(v).to_vec();
            let mut b: Vec<NodeId> = reference.mates(v).to_vec();
            a.sort();
            b.sort();
            assert_eq!(a, b, "peer {v}");
        }
    }

    #[test]
    fn general_dynamics_random_strategy_converges() {
        let mut rng = ChaCha8Rng::seed_from_u64(27);
        let n_peers = 40;
        let graph = generators::erdos_renyi_mean_degree(n_peers, 8.0, &mut rng);
        let positions: Vec<f64> = (0..n_peers).map(|i| (i * 13 % n_peers) as f64).collect();
        let prefs = LatencyPrefs::new(positions);
        let caps = Capacities::constant(n_peers, 2);
        for strategy in [
            InitiativeStrategy::BestMate,
            InitiativeStrategy::Decremental,
            InitiativeStrategy::Random,
        ] {
            let mut dynamics = Dynamics::new(
                PrefAcceptance::build(&graph, &prefs),
                caps.clone(),
                strategy,
            )
            .unwrap();
            for _ in 0..3000 {
                dynamics.run_base_unit(&mut rng);
                if dynamics.is_stable() {
                    break;
                }
            }
            assert!(dynamics.is_stable(), "{strategy:?} failed to converge");
            // The disorder metric reads cleanly at any stable point (it can
            // be nonzero: general systems may have several stable configs).
            assert!(dynamics.disorder() >= 0.0);
        }
    }

    #[test]
    fn general_dynamics_churn_keeps_caches_fresh() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let n_peers = 45;
        let graph = generators::erdos_renyi_mean_degree(n_peers, 9.0, &mut rng);
        let positions: Vec<f64> = (0..n_peers).map(|i| (i * 23 % n_peers) as f64).collect();
        let prefs = LatencyPrefs::new(positions);
        let caps = Capacities::constant(n_peers, 2);
        let mut dynamics = Dynamics::new(
            PrefAcceptance::build(&graph, &prefs),
            caps,
            InitiativeStrategy::BestMate,
        )
        .unwrap();
        for round in 0..200usize {
            dynamics.step(&mut rng);
            if round % 9 == 0 {
                dynamics.remove_peer(n(round % n_peers));
            }
            if round % 13 == 0 {
                dynamics.insert_peer(n((round * 7) % n_peers));
            }
        }
        // Settling from any perturbed state still reaches a stable point,
        // and the memoized disorder agrees with a fresh double read.
        dynamics.settle().unwrap();
        assert!(dynamics.is_stable());
        let d1 = dynamics.disorder();
        let d2 = dynamics.disorder();
        assert_eq!(d1, d2);
        // Absent peers stay unmated.
        for v in 0..n_peers {
            let v = n(v);
            if !dynamics.is_present(v) {
                assert_eq!(dynamics.matching().degree(v), 0);
            }
        }
    }

    #[test]
    fn tied_preference_systems_get_deterministic_id_tiebreak() {
        // A bare banded system ties inside every class; the key table must
        // stay a total order (no inconsistent-comparator panic) with ties
        // resolved by ascending node id.
        let graph = generators::complete(9);
        let prefs = BandedRankPrefs::new(GlobalRanking::identity(9), 3);
        let keys = PrefAcceptance::build(&graph, &prefs);
        for v in 0..9 {
            let v = n(v);
            let (ids, _) = keys.row(v);
            for w in ids.windows(2) {
                assert!(
                    prefs.prefers(v, w[0], w[1]) || (!prefs.prefers(v, w[1], w[0]) && w[0] < w[1]),
                    "row of {v} violates the banded-then-id order: {ids:?}"
                );
            }
        }
        // And the dynamics on such a system still settle.
        let caps = Capacities::constant(9, 2);
        let mut dynamics = Dynamics::new(
            PrefAcceptance::build(&graph, &prefs),
            caps,
            InitiativeStrategy::BestMate,
        )
        .unwrap();
        dynamics.settle().unwrap();
        assert!(dynamics.is_stable());
    }

    #[test]
    fn odd_cycle_settle_reports_no_stable_configuration() {
        let (graph, prefs) = odd_cycle_instance();
        let caps = Capacities::constant(3, 1);
        let mut dynamics = Dynamics::new(
            PrefAcceptance::build(&graph, &prefs),
            caps,
            InitiativeStrategy::BestMate,
        )
        .unwrap();
        assert_eq!(
            dynamics.settle(),
            Err(crate::ModelError::NoStableConfiguration)
        );
    }
}
