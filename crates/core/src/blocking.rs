//! Blocking pairs and stability (§2 of the paper).
//!
//! A **blocking pair** for configuration `C` is an acceptable pair `(p, q)`
//! not matched together such that both would welcome the other — each has a
//! free slot or prefers the other to its worst current mate. A configuration
//! without blocking pairs is **stable** (a Nash equilibrium).
//!
//! The scans here are the innermost loops of every initiative and of every
//! stability check, so they run entirely on precomputed ranks: candidates
//! come from the CSR rows of [`RankedAcceptance`] (ids + ranks side by
//! side), current mates are skipped by a sorted two-pointer merge against
//! the candidate row, and the reciprocal "would accept" test is a single
//! rank comparison against the contacted peer's cached worst-mate rank.
//! No `rank_of` lookups and no membership scans happen per candidate.

use strat_graph::NodeId;

use crate::{Capacities, Matching, Rank, RankedAcceptance};

/// Whether `(p, q)` is a blocking pair of `matching`.
///
/// Checks acceptability, non-matched-ness, and the two reciprocal
/// "would accept" conditions.
///
/// # Examples
///
/// ```
/// use strat_core::{blocking, Capacities, GlobalRanking, Matching, RankedAcceptance};
/// use strat_graph::{generators, NodeId};
///
/// let acc = RankedAcceptance::new(generators::complete(2), GlobalRanking::identity(2))?;
/// let caps = Capacities::constant(2, 1);
/// let empty = Matching::new(2);
/// // Two unmated acceptable peers always block the empty configuration.
/// assert!(blocking::is_blocking_pair(&acc, &caps, &empty, NodeId::new(0), NodeId::new(1)));
/// # Ok::<(), strat_core::ModelError>(())
/// ```
#[must_use]
pub fn is_blocking_pair(
    acc: &RankedAcceptance,
    caps: &Capacities,
    matching: &Matching,
    p: NodeId,
    q: NodeId,
) -> bool {
    if p == q || !acc.accepts(p, q) || matching.contains(p, q) {
        return false;
    }
    let ranking = acc.ranking();
    matching.would_accept_rank(caps, p, ranking.rank_of(q))
        && matching.would_accept_rank(caps, q, ranking.rank_of(p))
}

/// Finds the **best** blocking mate for `p` (the *best mate* initiative):
/// the highest-ranked `q` such that `(p, q)` blocks `matching`, restricted
/// to peers for which `present` returns `true`.
///
/// Exploits the best-first ordering of the acceptance lists for early exit:
/// once a candidate is no longer attractive to `p`, no later one is.
#[must_use]
pub fn best_blocking_mate<F>(
    acc: &RankedAcceptance,
    caps: &Capacities,
    matching: &Matching,
    p: NodeId,
    present: F,
) -> Option<NodeId>
where
    F: Fn(NodeId) -> bool,
{
    // `p` stops being interested at its worst mate's rank once saturated;
    // an unsaturated peer is interested in its whole acceptance row.
    let attractive_below = accept_threshold(matching, caps, p);
    let p_rank = acc.ranking().rank_of(p);
    best_blocking_mate_below(acc, matching, p, p_rank, attractive_below, present, |q| {
        accept_threshold(matching, caps, q)
    })
}

/// Rank bound below which `v` welcomes a new candidate: the worst mate's
/// rank when saturated, "everything" when a slot is free, "nothing" when
/// `b(v) = 0`. Encoded as a raw rank position for branch-free comparisons.
#[inline]
pub(crate) fn accept_threshold(matching: &Matching, caps: &Capacities, v: NodeId) -> u32 {
    let cap = caps.of(v) as usize;
    if matching.degree(v) < cap {
        u32::MAX
    } else {
        // cap == 0 (threshold 0: accept nobody) or saturated (worst rank).
        matching.worst_rank(v).map_or(0, |r| r.position() as u32)
    }
}

/// Core of [`best_blocking_mate`]: scans `p`'s acceptance row best-first,
/// stopping at `attractive_below` (a raw rank position; `u32::MAX` means no
/// bound). The contacted side's acceptance test reads `threshold_of(q)` —
/// either computed on the fly (public entry point) or served from the
/// incrementally-maintained cache inside [`crate::Dynamics`].
pub(crate) fn best_blocking_mate_below<F, G>(
    acc: &RankedAcceptance,
    matching: &Matching,
    p: NodeId,
    p_rank: Rank,
    attractive_below: u32,
    present: F,
    threshold_of: G,
) -> Option<NodeId>
where
    F: Fn(NodeId) -> bool,
    G: Fn(NodeId) -> u32,
{
    if attractive_below == 0 {
        return None; // b(p) = 0, or saturated with the best possible mates
    }
    let p_pos = p_rank.position() as u32;
    let (ids, ranks) = acc.neighbors_with_ranks(p);
    let mate_ranks = matching.mate_ranks(p);
    let mut mate_ptr = 0usize;
    for (&q, &q_rank) in ids.iter().zip(ranks) {
        if q_rank.position() as u32 >= attractive_below {
            // Best-first row: nobody later is attractive to p either.
            return None;
        }
        // Sorted two-pointer merge: skip candidates already mated to p.
        // Ranks are globally unique, so equal rank means the same peer.
        while mate_ptr < mate_ranks.len() && mate_ranks[mate_ptr].is_better_than(q_rank) {
            mate_ptr += 1;
        }
        if mate_ptr < mate_ranks.len() && mate_ranks[mate_ptr] == q_rank {
            mate_ptr += 1;
            continue;
        }
        if present(q) && p_pos < threshold_of(q) {
            // `q` is attractive to p here (checked above) and welcomes p.
            return Some(q);
        }
    }
    None
}

/// Whether `matching` is stable: no blocking pair over all acceptance edges.
///
/// `O(m · b)`; meant for verification, tests, and experiment assertions.
#[must_use]
pub fn is_stable(acc: &RankedAcceptance, caps: &Capacities, matching: &Matching) -> bool {
    first_blocking_pair(acc, caps, matching).is_none()
}

/// Returns some blocking pair if one exists (for diagnostics).
#[must_use]
pub fn first_blocking_pair(
    acc: &RankedAcceptance,
    caps: &Capacities,
    matching: &Matching,
) -> Option<(NodeId, NodeId)> {
    acc.graph()
        .edges()
        .find(|&(u, v)| is_blocking_pair(acc, caps, matching, u, v))
}

#[cfg(test)]
mod tests {
    use strat_graph::generators;

    use crate::GlobalRanking;

    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn complete_setup(count: usize, b0: u32) -> (RankedAcceptance, Capacities) {
        let acc =
            RankedAcceptance::new(generators::complete(count), GlobalRanking::identity(count))
                .unwrap();
        (acc, Capacities::constant(count, b0))
    }

    #[test]
    fn empty_config_blocks_everywhere() {
        let (acc, caps) = complete_setup(4, 1);
        let m = Matching::new(4);
        assert!(!is_stable(&acc, &caps, &m));
        assert!(acc
            .graph()
            .edges()
            .all(|(u, v)| is_blocking_pair(&acc, &caps, &m, u, v)));
    }

    #[test]
    fn stable_pairs_do_not_block() {
        let (acc, caps) = complete_setup(4, 1);
        let mut m = Matching::new(4);
        // Stable 1-matching on complete K4 with identity ranking: (0,1), (2,3).
        m.connect(acc.ranking(), &caps, n(0), n(1)).unwrap();
        m.connect(acc.ranking(), &caps, n(2), n(3)).unwrap();
        assert!(is_stable(&acc, &caps, &m));
        assert_eq!(first_blocking_pair(&acc, &caps, &m), None);
    }

    #[test]
    fn unstable_cross_pairing_detected() {
        let (acc, caps) = complete_setup(4, 1);
        let mut m = Matching::new(4);
        // (0,2), (1,3) is blocked by (0,1): both prefer each other.
        m.connect(acc.ranking(), &caps, n(0), n(2)).unwrap();
        m.connect(acc.ranking(), &caps, n(1), n(3)).unwrap();
        assert!(is_blocking_pair(&acc, &caps, &m, n(0), n(1)));
        let blocking: Vec<_> = acc
            .graph()
            .edges()
            .filter(|&(u, v)| is_blocking_pair(&acc, &caps, &m, u, v))
            .collect();
        assert_eq!(blocking, vec![(n(0), n(1))]);
    }

    #[test]
    fn best_blocking_mate_returns_best() {
        let (acc, caps) = complete_setup(5, 1);
        let mut m = Matching::new(5);
        m.connect(acc.ranking(), &caps, n(3), n(4)).unwrap();
        // Peer 3 is mated to 4 but peers 0, 1, 2 are free: best is 0... but a
        // free better peer must also accept; 0 is free so yes.
        assert_eq!(
            best_blocking_mate(&acc, &caps, &m, n(3), |_| true),
            Some(n(0))
        );
    }

    #[test]
    fn best_blocking_mate_early_exit_when_saturated() {
        let (acc, caps) = complete_setup(4, 1);
        let mut m = Matching::new(4);
        m.connect(acc.ranking(), &caps, n(0), n(1)).unwrap();
        m.connect(acc.ranking(), &caps, n(2), n(3)).unwrap();
        // Stable: nobody has a blocking mate.
        for v in 0..4 {
            assert_eq!(best_blocking_mate(&acc, &caps, &m, n(v), |_| true), None);
        }
    }

    #[test]
    fn present_mask_excludes_peers() {
        let (acc, caps) = complete_setup(3, 1);
        let m = Matching::new(3);
        // Without mask peer 1's best blocking mate is 0; with 0 absent, it is 2.
        assert_eq!(
            best_blocking_mate(&acc, &caps, &m, n(1), |_| true),
            Some(n(0))
        );
        assert_eq!(
            best_blocking_mate(&acc, &caps, &m, n(1), |q| q != n(0)),
            Some(n(2))
        );
    }

    #[test]
    fn zero_capacity_peer_never_blocks() {
        let acc =
            RankedAcceptance::new(generators::complete(3), GlobalRanking::identity(3)).unwrap();
        let caps = Capacities::from_values(vec![0, 1, 1]);
        let m = Matching::new(3);
        assert!(!is_blocking_pair(&acc, &caps, &m, n(0), n(1)));
        assert_eq!(best_blocking_mate(&acc, &caps, &m, n(0), |_| true), None);
        assert_eq!(
            best_blocking_mate(&acc, &caps, &m, n(1), |_| true),
            Some(n(2))
        );
    }

    #[test]
    fn mate_skip_handles_interleaved_mates() {
        // Peer 5's mates sit in the middle of its acceptance row; the merge
        // pointer must skip exactly those and nothing else.
        let (acc, caps) = complete_setup(6, 3);
        let mut m = Matching::new(6);
        m.connect(acc.ranking(), &caps, n(5), n(1)).unwrap();
        m.connect(acc.ranking(), &caps, n(5), n(3)).unwrap();
        // Free slot left, best non-mate is 0.
        assert_eq!(
            best_blocking_mate(&acc, &caps, &m, n(5), |_| true),
            Some(n(0))
        );
        // 0 absent: next non-mates are 2 (free) then 4.
        assert_eq!(
            best_blocking_mate(&acc, &caps, &m, n(5), |q| q != n(0)),
            Some(n(2))
        );
    }
}
