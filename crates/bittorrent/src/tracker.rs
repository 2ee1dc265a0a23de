//! The tracker: the draws every membership path shares.
//!
//! A joining peer's initial pieces and its tracker wiring are drawn the
//! same way whether the join is a session arrival
//! ([`Session`](crate::session::Session)), an external join
//! (`Session::join_with`), a fault-repair request, or an event-core
//! arrival / announce ([`EventEngine`](crate::events::EventEngine)).
//! Each caller supplies its own ChaCha stream, and the candidate pool is
//! the arena's own dense present list, so the two functions here carry no
//! determinism or membership state of their own.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::faults::FaultPlan;
use crate::{PeerId, PieceSet, Swarm};

/// Initial pieces of a joining peer: each of the `piece_count` pieces
/// independently with probability `completion`. `completion == 0.0`
/// draws nothing from `rng`.
pub(crate) fn draw_pieces(piece_count: usize, completion: f64, rng: &mut ChaCha8Rng) -> PieceSet {
    let mut pieces = PieceSet::new(piece_count);
    if completion > 0.0 {
        for piece in 0..piece_count {
            if rng.gen_bool(completion) {
                pieces.insert(piece);
            }
        }
    }
    pieces
}

/// One tracker request: connects `slot` to distinct random peers of the
/// swarm's dense present list until it reaches `target` degree, and
/// returns the number of edges added.
///
/// * **Uncapped** (`cap == None`): rejection-samples uniform positions of
///   the present list, with a budget of `12 · target + 24` attempts that
///   only absorbs self / duplicate / full-row collisions.
/// * **Capped** (`cap == Some(c)`, the peer-list cap of Al-Hamra et al.):
///   the tracker hands out at most `c` *distinct* uniform candidates — a
///   partial Fisher–Yates over a copy of the present list in `scratch` —
///   so a request adds at most `min(c, target)` edges.
///
/// While `partitioned`, cross-half candidates
/// ([`FaultPlan::cross_partition`]) are refused. A request that starts at
/// or above `target`, or with no other present peer, draws nothing.
pub(crate) fn wire(
    swarm: &mut Swarm,
    slot: PeerId,
    target: usize,
    cap: Option<usize>,
    partitioned: bool,
    rng: &mut ChaCha8Rng,
    scratch: &mut Vec<u32>,
) -> usize {
    let before = swarm.degree(slot);
    let pool = swarm.present_slots().len();
    if pool <= 1 || before >= target {
        return 0;
    }
    let refused = |q: PeerId| q == slot || (partitioned && FaultPlan::cross_partition(slot, q));
    // `connect_peers` rejects duplicates and full rows on its own.
    if let Some(cap) = cap {
        scratch.clear();
        scratch.extend_from_slice(swarm.present_slots());
        for i in 0..cap.min(scratch.len()) {
            if swarm.degree(slot) >= target {
                break;
            }
            let j = rng.gen_range(i..scratch.len());
            scratch.swap(i, j);
            let q = scratch[i] as usize;
            if !refused(q) {
                swarm.connect_peers(slot, q);
            }
        }
    } else {
        let max_attempts = 12 * target + 24;
        let mut attempts = 0usize;
        while swarm.degree(slot) < target && attempts < max_attempts {
            attempts += 1;
            let q = swarm.present_slots()[rng.gen_range(0..pool)] as usize;
            if !refused(q) {
                swarm.connect_peers(slot, q);
            }
        }
    }
    swarm.degree(slot) - before
}
