//! Global ranking of peers.
//!
//! Every peer `p` carries an intrinsic mark `S(p)` (bandwidth, CPU, storage…)
//! and *all peers agree* on the induced order: this is the "global ranking"
//! utility class the paper analyzes. Ties are rejected (§3, "Note on ties").

use rand::seq::SliceRandom;
use rand::Rng;
use serde::Serialize;
use strat_graph::NodeId;

use crate::ModelError;

/// Position of a peer in the global order; **rank 0 is the best peer**.
///
/// The paper labels peers `1..=n` with 1 best; this crate is zero-based, so
/// paper peer `i` is [`Rank::new`]`(i - 1)`.
///
/// # Examples
///
/// ```
/// use strat_core::Rank;
///
/// let best = Rank::new(0);
/// assert!(best.is_better_than(Rank::new(3)));
/// assert_eq!(format!("{best}"), "r0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[serde(transparent)]
pub struct Rank(u32);

impl Rank {
    /// Creates a rank from a zero-based position (0 = best).
    #[inline]
    #[must_use]
    pub fn new(position: usize) -> Self {
        Self(u32::try_from(position).expect("rank exceeds u32::MAX"))
    }

    /// Zero-based position (0 = best).
    #[inline]
    #[must_use]
    pub fn position(self) -> usize {
        self.0 as usize
    }

    /// Whether `self` is strictly better (smaller position) than `other`.
    #[inline]
    #[must_use]
    pub fn is_better_than(self, other: Rank) -> bool {
        self.0 < other.0
    }

    /// Absolute rank offset `|self - other|`, the stratification distance
    /// used by the Mean Max Offset statistic (§4.2).
    #[inline]
    #[must_use]
    pub fn offset(self, other: Rank) -> usize {
        self.0.abs_diff(other.0) as usize
    }
}

impl core::fmt::Display for Rank {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A total order over the peers `0..n`, shared by everyone.
///
/// Maintains the bijection between [`NodeId`]s and [`Rank`]s in both
/// directions so both lookups are `O(1)`.
///
/// # Examples
///
/// ```
/// use strat_core::GlobalRanking;
/// use strat_graph::NodeId;
///
/// // Node 2 is best, then node 0, then node 1.
/// let ranking = GlobalRanking::from_scores(&[5.0, 2.5, 9.0])?;
/// assert_eq!(ranking.node_at_rank(strat_core::Rank::new(0)), NodeId::new(2));
/// assert!(ranking.prefers(NodeId::new(2), NodeId::new(1)));
/// # Ok::<(), strat_core::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GlobalRanking {
    /// `rank_of[v]` = rank of node `v`.
    rank_of: Vec<Rank>,
    /// `node_at[r]` = node holding rank `r`.
    node_at: Vec<NodeId>,
}

impl GlobalRanking {
    /// The identity ranking: node `i` has rank `i` (node 0 best).
    ///
    /// This matches the paper's simulations, where peers are labeled by rank.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Self {
            rank_of: (0..n).map(Rank::new).collect(),
            node_at: (0..n).map(NodeId::new).collect(),
        }
    }

    /// Builds a ranking from intrinsic scores; **higher score = better rank**.
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidScore`] if any score is NaN.
    /// * [`ModelError::TiedScores`] if two scores are equal — the paper's
    ///   model requires `S(p) ≠ S(q)` (§3).
    pub fn from_scores(scores: &[f64]) -> Result<Self, ModelError> {
        for (v, s) in scores.iter().enumerate() {
            if s.is_nan() {
                return Err(ModelError::InvalidScore {
                    node: NodeId::new(v),
                });
            }
        }
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .expect("NaN scores were rejected above")
        });
        for w in order.windows(2) {
            if scores[w[0]] == scores[w[1]] {
                return Err(ModelError::TiedScores {
                    a: NodeId::new(w[0].min(w[1])),
                    b: NodeId::new(w[0].max(w[1])),
                    score: scores[w[0]],
                });
            }
        }
        Self::from_permutation(order.into_iter().map(NodeId::new).collect())
    }

    /// Builds a ranking from an explicit best-to-worst node order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotAPermutation`] if `order` is not a bijection
    /// on `0..n`.
    pub fn from_permutation(order: Vec<NodeId>) -> Result<Self, ModelError> {
        let n = order.len();
        let mut rank_of = vec![Rank::new(0); n];
        let mut seen = vec![false; n];
        for (r, &v) in order.iter().enumerate() {
            if v.index() >= n || seen[v.index()] {
                return Err(ModelError::NotAPermutation);
            }
            seen[v.index()] = true;
            rank_of[v.index()] = Rank::new(r);
        }
        Ok(Self {
            rank_of,
            node_at: order,
        })
    }

    /// A uniformly random ranking.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut order: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        order.shuffle(rng);
        Self::from_permutation(order).expect("shuffled identity is a permutation")
    }

    /// Number of ranked peers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rank_of.len()
    }

    /// Whether the ranking is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rank_of.is_empty()
    }

    /// Rank of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn rank_of(&self, v: NodeId) -> Rank {
        self.rank_of[v.index()]
    }

    /// Node holding rank `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[inline]
    #[must_use]
    pub fn node_at_rank(&self, r: Rank) -> NodeId {
        self.node_at[r.position()]
    }

    /// Whether everyone (it is a *global* ranking) prefers `a` to `b`.
    #[inline]
    #[must_use]
    pub fn prefers(&self, a: NodeId, b: NodeId) -> bool {
        self.rank_of(a).is_better_than(self.rank_of(b))
    }

    /// Rank offset `|rank(a) - rank(b)|`.
    #[inline]
    #[must_use]
    pub fn offset(&self, a: NodeId, b: NodeId) -> usize {
        self.rank_of(a).offset(self.rank_of(b))
    }

    /// Iterates nodes best-first.
    pub fn nodes_best_first(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        self.node_at.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use super::*;

    #[test]
    fn rank_order_and_offset() {
        assert!(Rank::new(0).is_better_than(Rank::new(1)));
        assert!(!Rank::new(2).is_better_than(Rank::new(2)));
        assert_eq!(Rank::new(3).offset(Rank::new(7)), 4);
        assert_eq!(Rank::new(7).offset(Rank::new(3)), 4);
    }

    #[test]
    fn identity_ranking() {
        let r = GlobalRanking::identity(4);
        assert_eq!(r.len(), 4);
        for i in 0..4 {
            assert_eq!(r.rank_of(NodeId::new(i)), Rank::new(i));
            assert_eq!(r.node_at_rank(Rank::new(i)), NodeId::new(i));
        }
        assert!(r.prefers(NodeId::new(0), NodeId::new(3)));
    }

    #[test]
    fn from_scores_orders_descending() {
        let r = GlobalRanking::from_scores(&[1.0, 3.0, 2.0]).unwrap();
        let order: Vec<_> = r.nodes_best_first().collect();
        assert_eq!(order, vec![NodeId::new(1), NodeId::new(2), NodeId::new(0)]);
    }

    #[test]
    fn ties_rejected() {
        let err = GlobalRanking::from_scores(&[1.0, 2.0, 1.0]).unwrap_err();
        assert!(matches!(err, ModelError::TiedScores { .. }));
    }

    #[test]
    fn nan_rejected() {
        let err = GlobalRanking::from_scores(&[1.0, f64::NAN]).unwrap_err();
        assert_eq!(
            err,
            ModelError::InvalidScore {
                node: NodeId::new(1)
            }
        );
    }

    #[test]
    fn bad_permutations_rejected() {
        assert_eq!(
            GlobalRanking::from_permutation(vec![NodeId::new(0), NodeId::new(0)]).unwrap_err(),
            ModelError::NotAPermutation
        );
        assert_eq!(
            GlobalRanking::from_permutation(vec![NodeId::new(2), NodeId::new(0)]).unwrap_err(),
            ModelError::NotAPermutation
        );
    }

    #[test]
    fn random_is_a_permutation() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let r = GlobalRanking::random(50, &mut rng);
        let mut seen = [false; 50];
        for v in r.nodes_best_first() {
            assert!(!seen[v.index()]);
            seen[v.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Round trip.
        for i in 0..50 {
            let v = NodeId::new(i);
            assert_eq!(r.node_at_rank(r.rank_of(v)), v);
        }
    }

    #[test]
    fn empty_ranking() {
        let r = GlobalRanking::identity(0);
        assert!(r.is_empty());
        assert_eq!(r.nodes_best_first().count(), 0);
    }
}
