//! The per-peer and per-edge steps shared by the serial round, the
//! indexed round and the event core: one rechoke step, the choke policy
//! and its interest/upload predicates, and one piece-landing step.
//!
//! # Inlining contract
//!
//! Every kernel here that a round driver calls per peer or per edge is
//! `#[inline]`, generic or not. Without the attribute, whether a kernel
//! inlines into the hot loop depends on which codegen unit it lands in:
//! adding unrelated code to the one-file swarm module once made the
//! `swarmbench flash` step about 8% slower, against about 1% for the same
//! code in a small module of its own.

use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use super::{PeerId, Scratch, Swarm, NO_OPT};
use crate::avail::{AvailIndex, AvailShard};
use crate::observer::RunObserver;
use crate::{PeerBehavior, PieceSet, SwarmConfig};

impl Swarm {
    /// Rechokes peer `p` on the whole arena — the serial round's and the
    /// event core's call of [`RechokeView::rechoke`], with the caller's
    /// stream and rate signal (`rate` is indexed by global edge slot).
    /// Returns `p`'s transfer targets.
    #[inline]
    pub(crate) fn rechoke_peer<O: RunObserver>(
        &mut self,
        p: PeerId,
        rng: &mut ChaCha8Rng,
        rotate_optimistic: bool,
        rate: &[f64],
        t: f64,
        obs: &O,
    ) -> &[(u32, bool)] {
        let Swarm {
            ref config,
            ref row_off,
            ref deg,
            ref nbr,
            ref present,
            ref behavior,
            ref pieces,
            ref original_seed,
            ref mut tft_store,
            ref mut tft_len,
            ref mut optimistic,
            ref mut scratch,
            ..
        } = *self;
        let view = RechokeView {
            config,
            row_off,
            deg,
            nbr,
            present,
            behavior,
            pieces,
            original_seed,
        };
        let stride = config.tft_slots;
        view.rechoke(
            p,
            rng,
            rotate_optimistic,
            rate,
            scratch,
            &mut tft_store[p * stride..(p + 1) * stride],
            &mut tft_len[p],
            &mut optimistic[p],
            obs,
            t,
        );
        &scratch.targets
    }
}

/// Piece-mode interest with `O(1)` completion fast paths: a complete `q`
/// lacks nothing, and a complete `p` holds every piece an incomplete `q`
/// lacks. Semantics identical to `q.is_interested_in(p)`.
#[inline]
fn interested_pieces(q: &PieceSet, p: &PieceSet) -> bool {
    if q.is_complete() {
        return false;
    }
    if p.is_complete() {
        return true;
    }
    q.is_interested_in(p)
}

/// Whether `q` is interested in `p`'s content — the single interest
/// predicate of every engine. Fluid mode: non-seed peers are always
/// interested (content never bottlenecks, §6); seeds are interested in
/// nobody. Piece mode: [`interested_pieces`].
#[inline]
pub(super) fn interested_at(
    fluid: bool,
    original_seed: &[bool],
    pieces: &[PieceSet],
    q: usize,
    p: usize,
) -> bool {
    if fluid {
        q != p && !original_seed[q]
    } else {
        interested_pieces(&pieces[q], &pieces[p])
    }
}

/// Whether `p` currently uploads at all (absent slots never do).
#[inline]
pub(super) fn uploads_at(
    config: &SwarmConfig,
    present: &[bool],
    behavior: &[PeerBehavior],
    pieces: &[PieceSet],
    original_seed: &[bool],
    p: usize,
) -> bool {
    if !present[p] || !behavior[p].uploads() {
        return false;
    }
    if !config.fluid_content && pieces[p].is_complete() && !original_seed[p] {
        config.seed_after_completion
    } else {
        true
    }
}

/// Whether `p` rechokes like a seed (no reciprocation signal).
#[inline]
fn acts_seed_at(
    config: &SwarmConfig,
    behavior: &[PeerBehavior],
    pieces: &[PieceSet],
    original_seed: &[bool],
    p: usize,
) -> bool {
    if behavior[p].ignores_reciprocation() {
        return true;
    }
    if config.fluid_content {
        original_seed[p]
    } else {
        pieces[p].is_complete()
    }
}

/// The state a rechoke step reads: the overlay rows and the inputs of
/// [`uploads_at`], [`acts_seed_at`] and [`interested_at`]. No engine
/// changes any of it while a rechoke runs.
#[derive(Clone, Copy)]
pub(super) struct RechokeView<'a> {
    pub(super) config: &'a SwarmConfig,
    pub(super) row_off: &'a [usize],
    pub(super) deg: &'a [u32],
    pub(super) nbr: &'a [u32],
    pub(super) present: &'a [bool],
    pub(super) behavior: &'a [PeerBehavior],
    pub(super) pieces: &'a [PieceSet],
    pub(super) original_seed: &'a [bool],
}

impl RechokeView<'_> {
    /// One peer's rechoke — the step the serial round, the indexed round
    /// and the event core share; they differ only in the stream `rng`,
    /// the rate row `rate` (indexed by global edge slot) and the hook
    /// time `t` they pass. A non-uploading `p` clears its unchoke row;
    /// otherwise [`choke_policy`] runs, its result is committed to `p`'s
    /// row (`tft_row` with `tft_len`, and `optimistic`), and
    /// `scratch.targets` receives the row's [`unchoke_targets`].
    ///
    /// The targets need no interest filter: the policy draws both the TFT
    /// set and the optimistic pick from interested neighbours, and
    /// nothing changes interest before the targets are used — except in
    /// the serial transfer phase, which re-checks live interest because
    /// pieces land during it.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(super) fn rechoke<O: RunObserver>(
        &self,
        p: PeerId,
        rng: &mut ChaCha8Rng,
        rotate_optimistic: bool,
        rate: &[f64],
        scratch: &mut Scratch,
        tft_row: &mut [u32],
        tft_len: &mut u32,
        optimistic: &mut u32,
        obs: &O,
        t: f64,
    ) {
        let RechokeView {
            config,
            row_off,
            deg,
            nbr,
            present,
            behavior,
            pieces,
            original_seed,
        } = *self;
        scratch.targets.clear();
        if !uploads_at(config, present, behavior, pieces, original_seed, p) {
            *tft_len = 0;
            *optimistic = NO_OPT;
            return;
        }
        let base = row_off[p];
        let fluid = config.fluid_content;
        let opt = choke_policy(
            scratch,
            rng,
            deg[p] as usize,
            |k| interested_at(fluid, original_seed, pieces, nbr[base + k] as usize, p),
            |k| rate[base + k],
            acts_seed_at(config, behavior, pieces, original_seed, p),
            config.tft_slots,
            config.optimistic_slots,
            rotate_optimistic,
            *optimistic,
        );
        tft_row[..scratch.ranked.len()].copy_from_slice(&scratch.ranked);
        *tft_len = scratch.ranked.len() as u32;
        *optimistic = opt;
        unchoke_targets(&scratch.ranked, opt, &mut scratch.targets);
        if O::ENABLED {
            for &(k, is_tft) in &scratch.targets {
                obs.unchoke(t, p, nbr[base + k as usize] as usize, !is_tft);
            }
        }
    }
}

/// The transfer targets of a committed unchoke row, as
/// `(local slot, is_tft)`: the TFT set in rank order, then the optimistic
/// pick. [`choke_policy`] keeps the optimistic pick outside the TFT set,
/// so no target repeats.
#[inline]
pub(super) fn unchoke_targets(tft: &[u32], optimistic: u32, targets: &mut Vec<(u32, bool)>) {
    targets.clear();
    targets.extend(tft.iter().map(|&k| (k, true)));
    if optimistic != NO_OPT {
        targets.push((optimistic, false));
    }
}

/// Where a piece landing reads its rarest-first order and records each
/// landed piece: the live index (the serial round), or a frozen snapshot
/// with the worker's shard (the indexed round) or with the live index
/// (the event core).
pub(super) trait Availability {
    fn order(&self) -> &AvailIndex;
    fn record(&mut self, piece: usize);
}

impl Availability for AvailIndex {
    #[inline]
    fn order(&self) -> &AvailIndex {
        self
    }

    #[inline]
    fn record(&mut self, piece: usize) {
        self.increment(piece);
    }
}

impl Availability for (&AvailIndex, &mut AvailShard) {
    #[inline]
    fn order(&self) -> &AvailIndex {
        self.0
    }

    #[inline]
    fn record(&mut self, piece: usize) {
        self.1.add(piece);
    }
}

impl Availability for (&AvailIndex, &mut AvailIndex) {
    #[inline]
    fn order(&self) -> &AvailIndex {
        self.0
    }

    #[inline]
    fn record(&mut self, piece: usize) {
        self.1.increment(piece);
    }
}

/// One edge's piece landing — the step the serial round, the indexed
/// round and the event core share. Spends whole `piece_size` pieces of
/// `credit` while it stays at or above `threshold`, on rarest-first
/// picks of pieces `sender` holds and `recipient` lacks, prefetched from
/// `avail`'s order in one scan (see [`AvailIndex::batch_picks`]); each
/// landed piece is inserted, recorded in `avail` and reported to `obs`
/// at time `t`. Credit left without a useful pick waits for the sender to
/// acquire more. Stamps `completed_round` with `stamp` and returns `true`
/// when this landing completed the recipient `q` (always on its last
/// piece: every pick is a distinct piece the recipient lacked).
#[allow(clippy::too_many_arguments)]
#[inline]
pub(super) fn land_pieces<O: RunObserver>(
    credit: &mut f64,
    piece_size: f64,
    threshold: f64,
    avail: &mut impl Availability,
    recipient: &mut PieceSet,
    sender: &PieceSet,
    completed_round: &mut Option<u64>,
    stamp: u64,
    picks: &mut Vec<u64>,
    obs: &O,
    t: f64,
    q: PeerId,
) -> bool {
    if *credit < threshold {
        return false;
    }
    // Exactly the iterations the credit loop below runs: the same
    // subtractions on a copy of the credit.
    let mut want = 0;
    let mut left = *credit;
    while left >= threshold {
        left -= piece_size;
        want += 1;
    }
    avail.order().batch_picks(recipient, sender, want, picks);
    let mut completed = false;
    for &packed in picks.iter() {
        if *credit < threshold {
            break;
        }
        let piece = (packed & u64::from(u32::MAX)) as usize;
        *credit -= piece_size;
        recipient.insert(piece);
        avail.record(piece);
        if O::ENABLED {
            obs.piece_converted(t, q, piece);
        }
        if recipient.is_complete() && completed_round.is_none() {
            *completed_round = Some(stamp);
            completed = true;
        }
    }
    completed
}

/// One peer's complete choking decision — candidate filter, seed shuffle
/// or TFT top-k, optimistic validity check and rotation. Fills
/// `scratch.cand` (interested neighbour positions) and `scratch.ranked`
/// (the TFT unchoke set, ranked) and returns the optimistic position (or
/// [`NO_OPT`]). `interested` and `rate` take local neighbour positions.
/// Both the TFT set and the optimistic pick are interested neighbours,
/// and the optimistic pick is never in the TFT set.
///
/// Called only from [`RechokeView::rechoke`], the rechoke step the serial
/// round, the indexed round and the event core share (their piece-landing
/// step is [`land_pieces`]), so the policy cannot drift between them.
#[allow(clippy::too_many_arguments)]
#[inline]
fn choke_policy(
    scratch: &mut Scratch,
    rng: &mut ChaCha8Rng,
    deg: usize,
    interested: impl Fn(usize) -> bool,
    rate: impl Fn(usize) -> f64,
    acts_seed: bool,
    tft_slots: usize,
    optimistic_slots: usize,
    rotate_optimistic: bool,
    prev_optimistic: u32,
) -> u32 {
    // Interested candidate neighbour positions.
    scratch.cand.clear();
    for k in 0..deg {
        if interested(k) {
            scratch.cand.push(k as u32);
        }
    }
    scratch.ranked.clear();
    scratch.ranked.extend_from_slice(&scratch.cand);
    if acts_seed {
        // Seeds have no reciprocation signal: random rotation (same
        // Fisher–Yates draws as the reference shuffle).
        scratch.ranked.shuffle(rng);
        scratch.ranked.truncate(tft_slots);
    } else {
        // Tit-for-Tat: top receivers from the last round. The index
        // tie-break makes the order strict, so top-k selection reproduces
        // the reference stable-sort-then-truncate without sorting the
        // tail.
        rank_top_k(&mut scratch.ranked, tft_slots, |&a, &b| {
            rate(b as usize)
                .total_cmp(&rate(a as usize))
                .then(a.cmp(&b))
        });
    }

    // Optimistic slot: rotate periodically among interested,
    // non-TFT-unchoked neighbours; drop it if no longer interested.
    let mut optimistic = prev_optimistic;
    if optimistic != NO_OPT {
        let still_valid =
            scratch.cand.contains(&optimistic) && !scratch.ranked.contains(&optimistic);
        if !still_valid {
            optimistic = NO_OPT;
        }
    }
    if optimistic_slots > 0 && (rotate_optimistic || optimistic == NO_OPT) {
        scratch.pool.clear();
        scratch.pool.extend(
            scratch
                .cand
                .iter()
                .copied()
                .filter(|k| !scratch.ranked.contains(k)),
        );
        optimistic = if scratch.pool.is_empty() {
            NO_OPT
        } else {
            scratch.pool[rng.gen_range(0..scratch.pool.len())]
        };
    }
    optimistic
}

/// Selects the top `k` of `ranked` under `cmp` in sorted order — the exact
/// result of a full stable sort followed by `truncate(k)`, because `cmp`
/// is a strict total order (rate descending, index ascending).
#[inline]
fn rank_top_k(
    ranked: &mut Vec<u32>,
    k: usize,
    mut cmp: impl FnMut(&u32, &u32) -> std::cmp::Ordering,
) {
    if k == 0 {
        ranked.clear();
        return;
    }
    if ranked.len() > k {
        ranked.select_nth_unstable_by(k - 1, &mut cmp);
        ranked.truncate(k);
    }
    ranked.sort_unstable_by(cmp);
}
