//! Zero-cost run observers: a trace tap over all three execution engines.
//!
//! The Legout-group validation experiments (unchoke clustering, overlay
//! diameter under tracker caps, fluid transients) need *per-event* traces
//! — who unchoked whom, which transfers happened, when peers arrived and
//! left — but the engines' hot paths are allocation-free and must stay
//! that way. This module threads a [`RunObserver`] type parameter through
//! [`Swarm::round_with`](crate::Swarm::round_with),
//! [`Swarm::run_rounds_parallel_with`](crate::Swarm::run_rounds_parallel_with),
//! [`Session::run_rounds_with`](crate::session::Session::run_rounds_with)
//! and [`EventEngine::run_for_with`](crate::events::EventEngine::run_for_with);
//! the default [`NullObserver`] sets [`RunObserver::ENABLED`] to `false`,
//! every call site is guarded by that associated constant, and
//! monomorphization deletes the whole tap — the unobserved methods
//! (`round`, `run_rounds`, …) are thin wrappers over their `_with`
//! variants (`bench_observer` asserts the overhead stays under 1 %).
//! `run_rounds_parallel_with` is the exception: it sends a disabled
//! observer to `run_rounds_parallel`, so out-of-crate callers run the
//! crate's own instantiation of the parallel round.
//!
//! # Determinism contract
//!
//! Observers are **pure taps**: every hook takes `&self`, no hook is
//! handed a random-number generator, and the engines never branch on
//! observer state. Attaching any observer therefore changes no swarm
//! state and consumes no randomness — observed and unobserved runs are
//! bit-identical (`tests/observer_differential.rs` proves this for all
//! three engines at 1/2/8 threads).
//!
//! # Time units
//!
//! Hooks report time in *engine-native* units: the round index (as `f64`)
//! for the round engines ([`Swarm`](crate::Swarm) and
//! [`Session`](crate::session::Session); completions stamp `round + 1`,
//! matching [`Peer::completed_round`](crate::Peer::completed_round)), and
//! τ in rechoke-interval units for the
//! [`EventEngine`](crate::events::EventEngine). In the synchronous limit
//! the two coincide.
//!
//! # Ordering under parallel execution
//!
//! On the serial engines every recorded sequence is totally ordered and
//! deterministic. Under [`run_rounds_parallel_with`] the *global*
//! interleaving of events from different workers is nondeterministic,
//! but (a) rounds are barriers, (b) the per-sender subsequence of
//! unchoke events and the per-recipient subsequence of transfer events
//! are each produced by a single worker in deterministic order, and
//! (c) within one round every share a sender emits has the same value —
//! so all the *aggregates* this module computes (kbit sums per peer,
//! class-pair unchoke counts) are exact and thread-invariant.
//!
//! A [`Universe`] stepped with `Some(threads)` runs different torrents'
//! sessions concurrently, so events reaching different torrents'
//! observers `obs[t]` may interleave in time (and a single observer
//! shared by several torrents sees them mixed). Each `obs[t]` is still
//! driven by its own session only, one pass at a time, and keeps that
//! session's ordering contract above.
//!
//! [`run_rounds_parallel_with`]: crate::Swarm::run_rounds_parallel_with
//! [`Universe`]: crate::universe::Universe

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A passive tap on engine events.
///
/// All hooks default to empty bodies, so implementors override only what
/// they record. The `Sync` supertrait lets one observer be shared by the
/// parallel round engine's workers; recorders use interior mutability
/// (a mutex or atomics).
///
/// Peers are identified by arena slot index (the engines' `PeerId`);
/// observers that need bandwidth classes map slots themselves (see
/// [`ClusterObserver`]), keeping the engine hooks class-agnostic.
pub trait RunObserver: Sync {
    /// Whether the engines should emit events at all. Call sites are
    /// guarded by this constant, so a `false` observer (the
    /// [`NullObserver`]) monomorphizes to exactly the unobserved code.
    const ENABLED: bool = true;

    /// `peer` unchoked `target` (a neighbour slot resolved to its arena
    /// index) for the coming interval; `optimistic` distinguishes the
    /// optimistic slot from reciprocation (TFT) slots.
    fn unchoke(&self, _time: f64, _peer: usize, _target: usize, _optimistic: bool) {}

    /// `kbit` kilobits were delivered from `sender` to `recipient`
    /// (`tft` mirrors the unchoke kind the flow rode on).
    fn transfer(&self, _time: f64, _sender: usize, _recipient: usize, _kbit: f64, _tft: bool) {}

    /// A transfer of `kbit` from `sender` was lost in transit (fault
    /// plane): the sender spent the capacity, `recipient` saw nothing.
    fn transfer_lost(&self, _time: f64, _sender: usize, _recipient: usize, _kbit: f64) {}

    /// `recipient` converted accumulated credit into `piece`.
    fn piece_converted(&self, _time: f64, _recipient: usize, _piece: usize) {}

    /// `peer` completed the file. `time` is the completion stamp the
    /// engine records (`round + 1` on the round engines, τ on the event
    /// engine).
    fn completed(&self, _time: f64, _peer: usize) {}

    /// `peer` joined the swarm (session/event-engine arrivals).
    fn arrival(&self, _time: f64, _peer: usize) {}

    /// `peer` left gracefully (completion, seed-leave, exodus or abort).
    fn departure(&self, _time: f64, _peer: usize) {}

    /// `peer` crashed (fault plane) — state torn down, no goodbye.
    fn crash(&self, _time: f64, _peer: usize) {}

    /// `peer` re-announced to the tracker (event engine only).
    fn announce(&self, _time: f64, _peer: usize) {}

    /// `peer`'s rechoke timer fired (event engine only; the round
    /// engines rechoke every peer every round and report
    /// [`round_end`](Self::round_end) instead).
    fn rechoke_tick(&self, _time: f64, _peer: usize) {}

    /// A synchronous round finished; `round` is the completed round's
    /// index (the engine's round counter is now `round + 1`).
    fn round_end(&self, _round: u64) {}
}

/// The do-nothing default observer: `ENABLED = false`, so every guarded
/// hook site compiles away and observed code paths are bit- and
/// cost-identical to the unobserved ones.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NullObserver;

impl RunObserver for NullObserver {
    const ENABLED: bool = false;
}

/// Everything a [`TraceObserver`] recorded, as plain event vectors.
///
/// Tuple layouts mirror the hook signatures:
/// `unchokes: (time, peer, target, optimistic)`,
/// `transfers: (time, sender, recipient, kbit, tft)`,
/// `losses: (time, sender, recipient, kbit)`,
/// `pieces: (time, recipient, piece)`, and the per-peer lifecycle
/// vectors are `(time, peer)`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TraceLog {
    /// Unchoke decisions.
    pub unchokes: Vec<(f64, usize, usize, bool)>,
    /// Delivered transfers.
    pub transfers: Vec<(f64, usize, usize, f64, bool)>,
    /// Transfers lost to the fault plane.
    pub losses: Vec<(f64, usize, usize, f64)>,
    /// Credit-to-piece conversions.
    pub pieces: Vec<(f64, usize, usize)>,
    /// File completions.
    pub completions: Vec<(f64, usize)>,
    /// Arrivals.
    pub arrivals: Vec<(f64, usize)>,
    /// Graceful departures.
    pub departures: Vec<(f64, usize)>,
    /// Crashes.
    pub crashes: Vec<(f64, usize)>,
    /// Tracker announces (event engine).
    pub announces: Vec<(f64, usize)>,
    /// Rechoke timer firings (event engine).
    pub rechokes: Vec<(f64, usize)>,
    /// Completed synchronous rounds.
    pub rounds: u64,
}

impl TraceLog {
    /// Per-slot delivered upload kilobits, summed in recorded order over
    /// `transfers` and `losses` (a lost transfer still spends the
    /// sender's capacity). With `n` arena slots, matches the engine's
    /// [`Peer::total_uploaded`](crate::Peer::total_uploaded) bit-for-bit
    /// on serial runs, and exactly on parallel runs too (equal-share
    /// argument in the module docs).
    #[must_use]
    pub fn uploaded_kbit(&self, n: usize) -> Vec<f64> {
        let mut up = vec![0.0f64; n];
        let mut ti = 0usize;
        let mut li = 0usize;
        // Merge the two streams in time order so each sender's adds
        // replay in the engine's accumulation order.
        while ti < self.transfers.len() || li < self.losses.len() {
            let take_transfer = match (self.transfers.get(ti), self.losses.get(li)) {
                (Some(t), Some(l)) => t.0 <= l.0,
                (Some(_), None) => true,
                _ => false,
            };
            if take_transfer {
                let (_, s, _, kbit, _) = self.transfers[ti];
                up[s] += kbit;
                ti += 1;
            } else {
                let (_, s, _, kbit) = self.losses[li];
                up[s] += kbit;
                li += 1;
            }
        }
        up
    }

    /// Per-slot delivered download kilobits summed in recorded order.
    #[must_use]
    pub fn downloaded_kbit(&self, n: usize) -> Vec<f64> {
        let mut down = vec![0.0f64; n];
        for &(_, _, r, kbit, _) in &self.transfers {
            down[r] += kbit;
        }
        down
    }

    /// Per-slot kilobits lost in transit towards each recipient.
    #[must_use]
    pub fn lost_kbit(&self, n: usize) -> Vec<f64> {
        let mut lost = vec![0.0f64; n];
        for &(_, _, r, kbit) in &self.losses {
            lost[r] += kbit;
        }
        lost
    }

    /// `arrivals − departures − crashes`: the observed net population
    /// change, which must equal the polled population delta.
    #[must_use]
    pub fn net_population_delta(&self) -> i64 {
        self.arrivals.len() as i64 - self.departures.len() as i64 - self.crashes.len() as i64
    }
}

/// Records every event into a [`TraceLog`] behind a mutex.
///
/// Built for tests and analysis passes, not for the hot loop: each hook
/// takes the lock and pushes. The lock is uncontended on the serial
/// engines; under the parallel engine it serializes workers at event
/// granularity (correct, merely slow).
#[derive(Debug, Default)]
pub struct TraceObserver {
    log: Mutex<TraceLog>,
}

impl TraceObserver {
    /// A fresh, empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the recorder and returns its log.
    ///
    /// # Panics
    ///
    /// Panics if a hook panicked while holding the lock.
    #[must_use]
    pub fn into_log(self) -> TraceLog {
        self.log.into_inner().expect("trace mutex poisoned")
    }

    /// Clones the log recorded so far.
    ///
    /// # Panics
    ///
    /// Panics if a hook panicked while holding the lock.
    #[must_use]
    pub fn snapshot(&self) -> TraceLog {
        self.log.lock().expect("trace mutex poisoned").clone()
    }

    fn with<R>(&self, f: impl FnOnce(&mut TraceLog) -> R) -> R {
        f(&mut self.log.lock().expect("trace mutex poisoned"))
    }
}

impl RunObserver for TraceObserver {
    fn unchoke(&self, time: f64, peer: usize, target: usize, optimistic: bool) {
        self.with(|l| l.unchokes.push((time, peer, target, optimistic)));
    }
    fn transfer(&self, time: f64, sender: usize, recipient: usize, kbit: f64, tft: bool) {
        self.with(|l| l.transfers.push((time, sender, recipient, kbit, tft)));
    }
    fn transfer_lost(&self, time: f64, sender: usize, recipient: usize, kbit: f64) {
        self.with(|l| l.losses.push((time, sender, recipient, kbit)));
    }
    fn piece_converted(&self, time: f64, recipient: usize, piece: usize) {
        self.with(|l| l.pieces.push((time, recipient, piece)));
    }
    fn completed(&self, time: f64, peer: usize) {
        self.with(|l| l.completions.push((time, peer)));
    }
    fn arrival(&self, time: f64, peer: usize) {
        self.with(|l| l.arrivals.push((time, peer)));
    }
    fn departure(&self, time: f64, peer: usize) {
        self.with(|l| l.departures.push((time, peer)));
    }
    fn crash(&self, time: f64, peer: usize) {
        self.with(|l| l.crashes.push((time, peer)));
    }
    fn announce(&self, time: f64, peer: usize) {
        self.with(|l| l.announces.push((time, peer)));
    }
    fn rechoke_tick(&self, time: f64, peer: usize) {
        self.with(|l| l.rechokes.push((time, peer)));
    }
    fn round_end(&self, _round: u64) {
        self.with(|l| l.rounds += 1);
    }
}

/// Class marker for peers excluded from clustering statistics (seeds,
/// observers' own bookkeeping slots, …).
pub const UNTRACKED_CLASS: u32 = u32::MAX;

/// The cluster-affinity summary of an unchoke history (Legout et al.,
/// *Clustering and Sharing Incentives in BitTorrent Systems*).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterAffinity {
    /// Fraction of tracked unchoke-time spent on same-class targets.
    pub same_fraction: f64,
    /// The class-blind expectation: the same fraction if every issuer
    /// chose uniformly among the *other* tracked peers, weighted by how
    /// many unchokes each class actually issued.
    pub baseline: f64,
    /// Tracked unchoke events the statistics are over.
    pub unchokes: u64,
}

impl ClusterAffinity {
    /// `same_fraction − baseline`: positive means clustering.
    #[must_use]
    pub fn excess(&self) -> f64 {
        self.same_fraction - self.baseline
    }
}

/// Counts unchoke decisions by (issuer class, target class), separately
/// for TFT and optimistic slots, with lock-free atomic counters — the
/// aggregates are order-independent integers, so parallel runs produce
/// the same matrices as serial ones.
///
/// The slot→class map is fixed at construction; slots mapped to
/// [`UNTRACKED_CLASS`] (or beyond the map) contribute nothing.
#[derive(Debug)]
pub struct ClusterObserver {
    classes: Vec<u32>,
    k: usize,
    /// `k × k` row-major (issuer class, target class) counts.
    tft: Vec<AtomicU64>,
    optimistic: Vec<AtomicU64>,
}

impl ClusterObserver {
    /// Builds an observer over a slot→class map. Classes must be dense
    /// small integers (`0..k`); use [`UNTRACKED_CLASS`] for slots to
    /// ignore.
    #[must_use]
    pub fn new(classes: Vec<u32>) -> Self {
        let k = classes
            .iter()
            .filter(|&&c| c != UNTRACKED_CLASS)
            .map(|&c| c as usize + 1)
            .max()
            .unwrap_or(0);
        let cells = k * k;
        Self {
            classes,
            k,
            tft: (0..cells).map(|_| AtomicU64::new(0)).collect(),
            optimistic: (0..cells).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Builds an observer with a fixed class count and an empty slot
    /// map: every slot starts untracked and is registered through
    /// [`assign_class`](Self::assign_class) as it fills — the shape the
    /// universe experiments need, where arrivals land in arena slots
    /// over time.
    #[must_use]
    pub fn with_class_count(k: usize) -> Self {
        let cells = k * k;
        Self {
            classes: Vec::new(),
            k,
            tft: (0..cells).map(|_| AtomicU64::new(0)).collect(),
            optimistic: (0..cells).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Maps `slot` to `class` from now on (growing the slot map with
    /// untracked entries as needed). Re-assigning a slot is idempotent
    /// for an unchanged class; past counts are never re-bucketed, so a
    /// recycled slot's new class applies only to unchokes recorded after
    /// the call.
    ///
    /// # Panics
    ///
    /// Panics if `class` is neither below the observer's class count nor
    /// [`UNTRACKED_CLASS`].
    pub fn assign_class(&mut self, slot: usize, class: u32) {
        assert!(
            class == UNTRACKED_CLASS || (class as usize) < self.k,
            "class {class} out of range (k = {})",
            self.k
        );
        if slot >= self.classes.len() {
            self.classes.resize(slot + 1, UNTRACKED_CLASS);
        }
        self.classes[slot] = class;
    }

    fn class_of(&self, slot: usize) -> Option<usize> {
        match self.classes.get(slot) {
            Some(&c) if c != UNTRACKED_CLASS => Some(c as usize),
            _ => None,
        }
    }

    /// The (issuer class, target class) TFT unchoke counts, row-major.
    #[must_use]
    pub fn tft_matrix(&self) -> Vec<u64> {
        self.tft.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// The (issuer class, target class) optimistic unchoke counts.
    #[must_use]
    pub fn optimistic_matrix(&self) -> Vec<u64> {
        self.optimistic
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Affinity over TFT (reciprocation) unchokes — the clustering
    /// signal. `None` when no tracked TFT unchoke was observed.
    #[must_use]
    pub fn tft_affinity(&self) -> Option<ClusterAffinity> {
        self.affinity_of(&self.tft_matrix())
    }

    /// Affinity over optimistic unchokes — class-blind by protocol, so
    /// this should sit at the baseline.
    #[must_use]
    pub fn optimistic_affinity(&self) -> Option<ClusterAffinity> {
        self.affinity_of(&self.optimistic_matrix())
    }

    /// Tracked-peer head-counts per class.
    #[must_use]
    pub fn class_sizes(&self) -> Vec<u64> {
        let mut sizes = vec![0u64; self.k];
        for &c in &self.classes {
            if c != UNTRACKED_CLASS {
                sizes[c as usize] += 1;
            }
        }
        sizes
    }

    fn affinity_of(&self, matrix: &[u64]) -> Option<ClusterAffinity> {
        let sizes = self.class_sizes();
        let tracked: u64 = sizes.iter().sum();
        let mut total = 0u64;
        let mut same = 0u64;
        let mut baseline_num = 0.0f64;
        for a in 0..self.k {
            let issued: u64 = matrix[a * self.k..(a + 1) * self.k].iter().sum();
            total += issued;
            same += matrix[a * self.k + a];
            if tracked > 1 {
                baseline_num +=
                    issued as f64 * (sizes[a].saturating_sub(1) as f64) / (tracked - 1) as f64;
            }
        }
        (total > 0).then(|| ClusterAffinity {
            same_fraction: same as f64 / total as f64,
            baseline: baseline_num / total as f64,
            unchokes: total,
        })
    }
}

impl RunObserver for ClusterObserver {
    fn unchoke(&self, _time: f64, peer: usize, target: usize, optimistic: bool) {
        let (Some(a), Some(b)) = (self.class_of(peer), self.class_of(target)) else {
            return;
        };
        let cell = a * self.k + b;
        let matrix = if optimistic {
            &self.optimistic
        } else {
            &self.tft
        };
        matrix[cell].fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn null_observer_is_disabled() {
        const { assert!(!NullObserver::ENABLED) };
        const { assert!(TraceObserver::ENABLED) };
    }

    #[test]
    fn perfect_clustering_scores_one() {
        // Two classes of 3; every peer always unchokes within its class.
        let obs = ClusterObserver::new(vec![0, 0, 0, 1, 1, 1]);
        for round in 0..10 {
            let t = f64::from(round);
            obs.unchoke(t, 0, 1, false);
            obs.unchoke(t, 1, 2, false);
            obs.unchoke(t, 3, 4, false);
            obs.unchoke(t, 4, 5, false);
        }
        let aff = obs.tft_affinity().unwrap();
        assert_close(aff.same_fraction, 1.0);
        // Blind expectation with two equal classes of 3 among 6 peers:
        // (3 − 1) / (6 − 1) = 0.4.
        assert_close(aff.baseline, 0.4);
        assert!(aff.excess() > 0.5);
        assert_eq!(aff.unchokes, 40);
    }

    #[test]
    fn class_blind_history_scores_the_baseline() {
        // Every peer unchokes every *other* peer exactly once: the
        // uniform history, whose same-fraction is the baseline by
        // construction.
        let classes = vec![0, 0, 1, 1, 1];
        let n = classes.len();
        let obs = ClusterObserver::new(classes);
        for p in 0..n {
            for q in 0..n {
                if p != q {
                    obs.unchoke(0.0, p, q, true);
                }
            }
        }
        let aff = obs.optimistic_affinity().unwrap();
        assert_close(aff.same_fraction, aff.baseline);
        assert!(obs.tft_affinity().is_none(), "no TFT unchokes were fed");
    }

    #[test]
    fn free_rider_edge_cases() {
        // A free-rider issues nothing: it dilutes the baseline as a
        // *target* but contributes no unchoke-time.
        let obs = ClusterObserver::new(vec![0, 0, 1]);
        obs.unchoke(0.0, 0, 1, false); // class 0 → class 0
        let aff = obs.tft_affinity().unwrap();
        assert_close(aff.same_fraction, 1.0);
        // Issuer class 0: (2 − 1) / (3 − 1) = 0.5.
        assert_close(aff.baseline, 0.5);

        // All-free-rider history: no events, no affinity.
        let idle = ClusterObserver::new(vec![0, 1]);
        assert!(idle.tft_affinity().is_none());

        // Unchokes touching untracked peers (seeds) are ignored.
        let seeded = ClusterObserver::new(vec![0, 0, UNTRACKED_CLASS]);
        seeded.unchoke(0.0, 2, 0, false); // seed issuing
        seeded.unchoke(0.0, 0, 2, false); // seed targeted
        assert!(seeded.tft_affinity().is_none());
        seeded.unchoke(0.0, 0, 1, false);
        assert_eq!(seeded.tft_affinity().unwrap().unchokes, 1);
    }

    #[test]
    fn single_class_baseline_is_one() {
        // With one tracked class, same-fraction and baseline are both 1:
        // clustering is vacuous, excess is 0.
        let obs = ClusterObserver::new(vec![0, 0, 0]);
        obs.unchoke(0.0, 0, 1, false);
        obs.unchoke(0.0, 1, 2, false);
        let aff = obs.tft_affinity().unwrap();
        assert_close(aff.same_fraction, 1.0);
        assert_close(aff.baseline, 1.0);
        assert_close(aff.excess(), 0.0);
    }

    #[test]
    fn trace_log_sums_follow_recorded_order() {
        let obs = TraceObserver::new();
        obs.transfer(0.0, 0, 1, 100.0, true);
        obs.transfer_lost(0.0, 0, 2, 50.0);
        obs.transfer(1.0, 2, 0, 25.0, false);
        obs.arrival(1.0, 3);
        obs.departure(2.0, 1);
        obs.crash(2.0, 2);
        obs.round_end(0);
        let log = obs.into_log();
        assert_eq!(log.uploaded_kbit(4), vec![150.0, 0.0, 25.0, 0.0]);
        assert_eq!(log.downloaded_kbit(4), vec![25.0, 100.0, 0.0, 0.0]);
        assert_eq!(log.lost_kbit(4), vec![0.0, 0.0, 50.0, 0.0]);
        assert_eq!(log.net_population_delta(), 1 - 2);
        assert_eq!(log.rounds, 1);
    }
}
