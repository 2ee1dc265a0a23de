//! The pluggable half of the incremental dynamics engine.
//!
//! [`crate::Dynamics`] is the one initiative-process driver. Its hot-path
//! machinery — incremental acceptance thresholds, the clean/dirty peer
//! memo, presence versioning and the memoized instant-stable
//! configuration — is written once, against the [`PreferenceKeys`]
//! contract defined here: a precomputed per-neighborhood key table. Keys
//! generalize global ranks — each peer's acceptance row is sorted by
//! *that peer's* preference and annotated with strictly increasing
//! [`Rank`] keys, and `rev_key` answers "what key does my k-th neighbour
//! assign to *me*" (the reciprocal half of every blocking-pair test).
//! The table also supplies the two things that depend on what its keys
//! mean: the instant stable baseline and the disorder metrics. Two
//! instantiations exist:
//!
//! * [`RankedAcceptance`] — keys are global rank positions, `rev_key` is
//!   the owner's own global rank, the baseline is Algorithm 1 and the
//!   metrics are the paper's rank-labelled ones;
//! * [`crate::prefs::PrefAcceptance`] — keys are per-neighborhood
//!   preference positions built from any
//!   [`crate::prefs::PreferenceSystem`], the baseline is the round-robin
//!   best-mate fixpoint and both metrics are the key-space
//!   [`distance::distance_keyed`].

use std::cell::Cell;

use serde::{Deserialize, Serialize};
use strat_graph::NodeId;

use crate::{distance, stable_configuration_masked, Capacities, Matching, Rank, RankedAcceptance};

/// How a peer scans its acceptance list for a blocking mate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum InitiativeStrategy {
    /// Select the best available blocking mate.
    BestMate,
    /// Circularly scan the (preference-sorted) acceptance list starting
    /// just after the last asked peer.
    Decremental,
    /// Probe a single uniformly random acceptable peer.
    Random,
}

/// Outcome of one initiative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum InitiativeOutcome {
    /// The initiative changed the configuration: `peer` matched with `mate`.
    Active {
        /// The initiating peer.
        peer: NodeId,
        /// Its new mate.
        mate: NodeId,
        /// Mate dropped by the initiator to free a slot, if it was saturated.
        dropped_by_peer: Option<NodeId>,
        /// Mate dropped by the contacted peer, if it was saturated.
        dropped_by_mate: Option<NodeId>,
    },
    /// No blocking mate was found (or the probed peer declined).
    Inactive,
}

impl InitiativeOutcome {
    /// Whether the initiative modified the configuration.
    #[must_use]
    pub fn is_active(&self) -> bool {
        matches!(self, InitiativeOutcome::Active { .. })
    }
}

/// Precomputed preference-key access over an acceptance structure — the
/// fast-path contract of [`crate::Dynamics`].
///
/// Implementations must guarantee, for every peer `v`:
///
/// * `row(v)` returns the acceptable peers of `v` sorted **best-first by
///   `v`'s preference**, with a parallel, strictly ascending key slice
///   (`keys[k]` is the key `v` assigns `ids[k]`; strictness encodes the
///   no-ties requirement of §3);
/// * `rev_key(v, k)` returns the key that `ids[k]` assigns to `v` in *its*
///   row — the reciprocal lookup every blocking-pair test needs.
pub trait PreferenceKeys {
    /// Number of peers.
    fn node_count(&self) -> usize;

    /// Acceptance row of `v`: `(ids, keys)`, sorted best-first with keys
    /// strictly ascending.
    fn row(&self, v: NodeId) -> (&[NodeId], &[Rank]);

    /// Key that the `k`-th acceptable peer of `v` assigns to `v`.
    fn rev_key(&self, v: NodeId, k: usize) -> Rank;

    /// The instant stable configuration of the peers with `present[v]`
    /// set, from the empty configuration. It depends only on the table,
    /// the capacities and the present set, never on a current matching.
    ///
    /// # Panics
    ///
    /// Panics if the table admits no stable configuration (an odd
    /// preference cycle) or `caps` does not cover it.
    fn instant_stable(&self, caps: &Capacities, present: &[bool]) -> Matching;

    /// Disorder of `matching` against the baseline `stable` (§3's
    /// 1-matching metric on the ranked table).
    fn disorder(&self, matching: &Matching, stable: &Matching) -> f64;

    /// Disorder of `matching` against `stable` under the generalized
    /// b-matching metric.
    fn disorder_general(&self, matching: &Matching, stable: &Matching) -> f64;
}

/// The ranked instantiation: keys are global rank positions (every row of
/// [`RankedAcceptance`] is already sorted best-rank-first with precomputed
/// ranks), and the key a neighbour assigns to `v` is `v`'s own global rank,
/// independent of the neighbour. The baseline is Algorithm 1 over the
/// present peers, and the metrics are measured against the global ranking.
impl PreferenceKeys for RankedAcceptance {
    fn node_count(&self) -> usize {
        self.node_count()
    }

    #[inline]
    fn row(&self, v: NodeId) -> (&[NodeId], &[Rank]) {
        self.neighbors_with_ranks(v)
    }

    #[inline]
    fn rev_key(&self, v: NodeId, _k: usize) -> Rank {
        self.ranking().rank_of(v)
    }

    fn instant_stable(&self, caps: &Capacities, present: &[bool]) -> Matching {
        stable_configuration_masked(self, caps, |v| present[v.index()])
            .expect("sizes validated at construction")
    }

    fn disorder(&self, matching: &Matching, stable: &Matching) -> f64 {
        distance::disorder(self.ranking(), matching, stable)
    }

    fn disorder_general(&self, matching: &Matching, stable: &Matching) -> f64 {
        distance::distance_general(self.ranking(), matching, stable)
    }
}

/// Key tables can be borrowed: scratch drivers (e.g. the instant-stable
/// computation of [`crate::prefs::PrefAcceptance`]) reuse the owner's
/// table without cloning it.
impl<K: PreferenceKeys> PreferenceKeys for &K {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    #[inline]
    fn row(&self, v: NodeId) -> (&[NodeId], &[Rank]) {
        (**self).row(v)
    }

    #[inline]
    fn rev_key(&self, v: NodeId, k: usize) -> Rank {
        (**self).rev_key(v, k)
    }

    fn instant_stable(&self, caps: &Capacities, present: &[bool]) -> Matching {
        (**self).instant_stable(caps, present)
    }

    fn disorder(&self, matching: &Matching, stable: &Matching) -> f64 {
        (**self).disorder(matching, stable)
    }

    fn disorder_general(&self, matching: &Matching, stable: &Matching) -> f64 {
        (**self).disorder_general(matching, stable)
    }
}

/// A metric-value memo keyed by a driver's
/// `(presence_version, config_version)` pair: reads between events are
/// O(1); any initiative or churn event invalidates. Shared by the driver's
/// two disorder memos so the invalidation semantics live in one place.
#[derive(Debug, Clone, Default)]
pub(crate) struct VersionMemo(Cell<Option<(u64, u64, f64)>>);

impl VersionMemo {
    /// Returns the memoized value for `versions`, computing and storing it
    /// on a version mismatch.
    pub(crate) fn get_or_compute(
        &self,
        versions: (u64, u64),
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        if let Some((pv, cv, value)) = self.0.get() {
            if (pv, cv) == versions {
                return value;
            }
        }
        let value = compute();
        self.0.set(Some((versions.0, versions.1, value)));
        value
    }
}
