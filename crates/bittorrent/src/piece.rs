//! Piece sets: fixed-size bitsets over the pieces of the shared file.
//!
//! One layout, `PieceArena`, holds pieces as rows of `⌈piece_count / 64⌉`
//! words: every engine keeps its per-slot piece state in one, and
//! [`PieceSet`], the owned value a peer arrives with (tracker draws, the
//! reference engine), is an arena of one row. [`PieceView`] is the
//! borrowed read view of one row.

use serde::Serialize;

/// Bitset words covering `piece_count` pieces.
#[inline]
fn word_len(piece_count: usize) -> usize {
    piece_count.div_ceil(64)
}

/// The last word of a full set: every bit below `piece_count`'s tail.
#[inline]
fn tail_mask(piece_count: usize) -> u64 {
    match piece_count % 64 {
        0 => u64::MAX,
        tail => (1u64 << tail) - 1,
    }
}

/// The set bits of `words`, ascending (word-parallel).
fn ones_in(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        core::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(w * 64 + b)
        })
    })
}

/// The pieces `theirs` holds and `mine` lacks, ascending.
pub(crate) fn missing_in_words<'a>(
    mine: &'a [u64],
    theirs: &'a [u64],
) -> impl Iterator<Item = usize> + 'a {
    debug_assert_eq!(mine.len(), theirs.len());
    mine.iter()
        .zip(theirs)
        .enumerate()
        .flat_map(|(w, (mine, theirs))| {
            let mut bits = theirs & !mine;
            core::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + b)
            })
        })
}

/// Whether `theirs` holds a piece `mine` lacks — BitTorrent interest.
/// One AND-NOT sweep with early exit on the first non-zero word.
#[inline]
fn interested_words(mine: &[u64], theirs: &[u64]) -> bool {
    debug_assert_eq!(mine.len(), theirs.len());
    mine.iter()
        .zip(theirs)
        .any(|(mine, theirs)| theirs & !mine != 0)
}

/// Writes the candidate mask `theirs & !mine` (the pieces `theirs` can
/// offer `mine`) into `mask` and returns the candidate count — the
/// word-parallel AND/ANDNOT/`count_ones` sweep the rarest-first pick
/// prefetch masks its permutation walk with. `mask` must hold at least
/// the live word count.
#[inline]
pub(crate) fn candidate_mask_into(mine: &[u64], theirs: &[u64], mask: &mut [u64]) -> usize {
    debug_assert_eq!(mine.len(), theirs.len());
    let mut cand = 0usize;
    for (m, (mine, theirs)) in mask.iter_mut().zip(mine.iter().zip(theirs)) {
        let bits = theirs & !mine;
        cand += bits.count_ones() as usize;
        *m = bits;
    }
    cand
}

/// The set of pieces a peer holds, as a packed bitset: a one-row piece
/// arena.
///
/// # Examples
///
/// ```
/// use strat_bittorrent::PieceSet;
///
/// let mut have = PieceSet::new(10);
/// have.insert(3);
/// assert!(have.contains(3));
/// assert_eq!(have.count(), 1);
/// assert!(!have.is_complete());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PieceSet {
    row: PieceArena,
}

impl PieceSet {
    /// An empty set over `piece_count` pieces.
    #[must_use]
    pub fn new(piece_count: usize) -> Self {
        Self {
            row: PieceArena::new(piece_count, 1),
        }
    }

    /// A complete set (a seed's pieces).
    #[must_use]
    pub fn full(piece_count: usize) -> Self {
        let mut s = Self::new(piece_count);
        s.row.fill(0);
        s
    }

    /// The bitset words (`piece_count.div_ceil(64)` of them).
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        self.row.row(0)
    }

    /// The set as a borrowed read view — the shape an engine's
    /// [`crate::Peer::pieces`] hands out.
    pub(crate) fn view(&self) -> PieceView<'_> {
        self.row.view(0)
    }

    /// Total number of pieces in the file.
    #[must_use]
    pub fn piece_count(&self) -> usize {
        self.row.piece_count
    }

    /// Number of pieces held.
    #[must_use]
    pub fn count(&self) -> usize {
        self.view().count()
    }

    /// Whether all pieces are held.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.row.is_complete(0)
    }

    /// Whether piece `i` is held.
    ///
    /// # Panics
    ///
    /// Panics if `i >= piece_count`.
    #[inline]
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        self.view().contains(i)
    }

    /// Adds piece `i`; returns `true` if it was new.
    ///
    /// # Panics
    ///
    /// Panics if `i >= piece_count`.
    pub fn insert(&mut self, i: usize) -> bool {
        self.row.row_mut(0).insert(i)
    }

    /// Iterates over the held pieces in ascending order (word-parallel).
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.view().ones()
    }

    /// Whether `other` holds at least one piece this set lacks — i.e.
    /// whether we are *interested* in `other` (BitTorrent interest). One
    /// AND-NOT sweep with early exit on the first non-zero word.
    #[must_use]
    pub fn is_interested_in(&self, other: &PieceSet) -> bool {
        self.view().is_interested_in(other.view())
    }

    /// Iterates over the pieces `other` has and `self` lacks.
    pub fn missing_from<'a>(&'a self, other: &'a PieceSet) -> impl Iterator<Item = usize> + 'a {
        debug_assert_eq!(self.piece_count(), other.piece_count());
        missing_in_words(self.words(), other.words())
    }

    /// The **rarest-first** pick: among pieces `other` has and `self`
    /// lacks, the one with the lowest global availability (ties broken by
    /// lowest index, matching a deterministic tie-break).
    #[must_use]
    pub fn rarest_missing_from(&self, other: &PieceSet, availability: &[u32]) -> Option<usize> {
        debug_assert_eq!(availability.len(), self.piece_count());
        self.missing_from(other)
            .min_by_key(|&i| (availability[i], i))
    }
}

/// A borrowed read view of one peer's pieces: a row of an engine's piece
/// arena (from [`crate::Peer::pieces`]) or a [`PieceSet`]. Copies
/// are cheap (three words); equality compares the held pieces.
///
/// # Examples
///
/// ```
/// use strat_bittorrent::{Swarm, SwarmConfig};
///
/// let config = SwarmConfig::builder().leechers(4).seeds(1).piece_count(300).build();
/// let swarm = Swarm::new(config, &[100.0; 5]);
/// let seed = swarm.peer(4).pieces();
/// assert!(seed.is_complete() && seed.contains(299));
/// assert_eq!(seed.ones().count(), 300);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PieceView<'a> {
    words: &'a [u64],
    held: usize,
    piece_count: usize,
}

impl<'a> PieceView<'a> {
    /// Total number of pieces in the file.
    #[must_use]
    pub fn piece_count(&self) -> usize {
        self.piece_count
    }

    /// Number of pieces held.
    #[must_use]
    pub fn count(&self) -> usize {
        self.held
    }

    /// Whether all pieces are held.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.held == self.piece_count
    }

    /// Whether piece `i` is held.
    ///
    /// # Panics
    ///
    /// Panics if `i >= piece_count`.
    #[inline]
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.piece_count, "piece {i} out of range");
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Iterates over the held pieces in ascending order (word-parallel).
    pub fn ones(&self) -> impl Iterator<Item = usize> + 'a {
        ones_in(self.words)
    }

    /// Whether `other` holds at least one piece this view lacks
    /// (BitTorrent interest; see [`PieceSet::is_interested_in`]).
    #[must_use]
    pub fn is_interested_in(&self, other: PieceView<'_>) -> bool {
        debug_assert_eq!(self.piece_count, other.piece_count);
        interested_words(self.words, other.words)
    }
}

/// Every slot's pieces in one flat word array: row `p` is
/// `words[p * stride..][..stride]` with `stride = ⌈piece_count / 64⌉`, and
/// `held[p]` is its popcount. One allocation at any file size, so the
/// per-edge interest checks and pick prefetches of million-peer rounds
/// read `stride` contiguous words per probed peer, and snapshotting,
/// clearing or sliding a range of slots is a block copy. Bits past
/// `piece_count` and the rows of absent slots stay zero (the swarm's
/// consistency check verifies both).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub(crate) struct PieceArena {
    piece_count: usize,
    stride: usize,
    words: Vec<u64>,
    held: Vec<u32>,
}

impl PieceArena {
    /// `slots` empty rows over `piece_count` pieces.
    pub(crate) fn new(piece_count: usize, slots: usize) -> Self {
        let stride = word_len(piece_count);
        Self {
            piece_count,
            stride,
            words: vec![0; slots * stride],
            held: vec![0; slots],
        }
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.held.len()
    }

    /// Row `p`'s words.
    #[inline]
    pub(crate) fn row(&self, p: usize) -> &[u64] {
        &self.words[p * self.stride..][..self.stride]
    }

    /// Whether slot `p` holds every piece.
    #[inline]
    pub(crate) fn is_complete(&self, p: usize) -> bool {
        self.held[p] as usize == self.piece_count
    }

    /// Row `p` as a read view.
    #[inline]
    pub(crate) fn view(&self, p: usize) -> PieceView<'_> {
        PieceView {
            words: self.row(p),
            held: self.held[p] as usize,
            piece_count: self.piece_count,
        }
    }

    /// Whether `q` is interested in `p` (`q` lacks a piece `p` holds):
    /// [`PieceSet::is_interested_in`] on the two rows, bit for bit. The
    /// sweep reads only the two rows; completion fast paths through the
    /// `held` column would add a second random read per probed peer and
    /// measured slower on the benchmark swarms (1–8 words per row).
    #[inline]
    pub(crate) fn interested(&self, q: usize, p: usize) -> bool {
        interested_words(self.row(q), self.row(p))
    }

    /// Row `p`, writable.
    #[inline]
    pub(crate) fn row_mut(&mut self, p: usize) -> PieceRowMut<'_> {
        PieceRowMut {
            words: &mut self.words[p * self.stride..][..self.stride],
            held: &mut self.held[p],
            piece_count: self.piece_count,
        }
    }

    /// Recipient `q`'s row, writable, beside sender `p`'s words — the
    /// serial round's live delivery.
    ///
    /// # Panics
    ///
    /// Panics if `q == p`.
    #[inline]
    pub(crate) fn recipient_and_sender(&mut self, q: usize, p: usize) -> (PieceRowMut<'_>, &[u64]) {
        assert_ne!(q, p, "an edge joins two distinct peers");
        let w = self.stride;
        let (recipient, sender) = if q < p {
            let (lo, hi) = self.words.split_at_mut(p * w);
            (&mut lo[q * w..][..w], &hi[..w])
        } else {
            let (lo, hi) = self.words.split_at_mut(q * w);
            (&mut hi[..w], &lo[p * w..][..w])
        };
        let row = PieceRowMut {
            words: recipient,
            held: &mut self.held[q],
            piece_count: self.piece_count,
        };
        (row, sender)
    }

    /// Fills row `p` with every piece (a seed).
    pub(crate) fn fill(&mut self, p: usize) {
        let row = self.row_mut(p);
        row.words.fill(u64::MAX);
        if let Some(last) = row.words.last_mut() {
            *last = tail_mask(row.piece_count);
        }
        *row.held = row.piece_count as u32;
    }

    /// Empties row `p`.
    pub(crate) fn clear(&mut self, p: usize) {
        let row = self.row_mut(p);
        row.words.fill(0);
        *row.held = 0;
    }

    /// Overwrites row `p` with `src` (same file): an arrival's drawn
    /// pieces, or the event core's rechoke-time sender snapshot.
    pub(crate) fn copy_row(&mut self, p: usize, src: PieceView<'_>) {
        debug_assert_eq!(src.piece_count, self.piece_count);
        let w = self.stride;
        self.words[p * w..][..w].copy_from_slice(src.words);
        self.held[p] = src.held as u32;
    }

    /// Grows (with empty rows) or shrinks the arena to `slots` rows.
    pub(crate) fn resize(&mut self, slots: usize) {
        self.words.resize(slots * self.stride, 0);
        self.held.resize(slots, 0);
    }

    /// Keeps the rows whose `keep` flag is set, in order, sliding each
    /// kept row down over the dropped ones (compaction).
    pub(crate) fn retain(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len());
        let w = self.stride;
        let mut dst = 0;
        for src in (0..keep.len()).filter(|&p| keep[p]) {
            if dst != src {
                self.words.copy_within(src * w..(src + 1) * w, dst * w);
                self.held[dst] = self.held[src];
            }
            dst += 1;
        }
        self.resize(dst);
    }

    /// Splits the leading rows into consecutive disjoint writable chunks
    /// of `lens` rows each (the parallel passes' per-worker ranges).
    pub(crate) fn chunks_mut(&mut self, lens: &[usize]) -> Vec<PieceChunk<'_>> {
        let w = self.stride;
        let word_lens: Vec<usize> = lens.iter().map(|l| l * w).collect();
        let words = strat_par::split_lengths(&mut self.words, &word_lens);
        let held = strat_par::split_lengths(&mut self.held, lens);
        words
            .into_iter()
            .zip(held)
            .map(|(words, held)| PieceChunk {
                words,
                held,
                stride: w,
                piece_count: self.piece_count,
            })
            .collect()
    }

    /// Checks the arena against the slot `present` mask: every `held`
    /// entry is its row's popcount, no row has bits past `piece_count`,
    /// and absent slots' rows are empty.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub(crate) fn validate(&self, present: &[bool]) {
        assert_eq!(present.len(), self.len(), "piece arena slot count");
        assert_eq!(
            self.words.len(),
            self.len() * self.stride,
            "piece arena words"
        );
        let tail = tail_mask(self.piece_count);
        for (p, &here) in present.iter().enumerate() {
            let row = self.row(p);
            let ones: u32 = row.iter().map(|w| w.count_ones()).sum();
            assert_eq!(self.held[p], ones, "held count of slot {p}");
            if let Some(&last) = row.last() {
                assert_eq!(last & !tail, 0, "slot {p} holds bits past the last piece");
            }
            assert!(here || ones == 0, "absent slot {p} keeps pieces");
        }
    }
}

/// One writable arena row: the recipient side of a piece landing.
pub(crate) struct PieceRowMut<'a> {
    words: &'a mut [u64],
    held: &'a mut u32,
    piece_count: usize,
}

impl PieceRowMut<'_> {
    /// The row's words.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        self.words
    }

    /// Whether the row holds every piece.
    #[inline]
    pub(crate) fn is_complete(&self) -> bool {
        *self.held as usize == self.piece_count
    }

    /// Adds piece `i`; returns `true` if it was new.
    ///
    /// # Panics
    ///
    /// Panics if `i >= piece_count`.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.piece_count, "piece {i} out of range");
        let mask = 1u64 << (i % 64);
        let word = &mut self.words[i / 64];
        if *word & mask != 0 {
            return false;
        }
        *word |= mask;
        *self.held += 1;
        true
    }
}

/// A run of consecutive arena rows owned by one parallel worker.
pub(crate) struct PieceChunk<'a> {
    words: &'a mut [u64],
    held: &'a mut [u32],
    stride: usize,
    piece_count: usize,
}

impl PieceChunk<'_> {
    /// Local row `li`, writable.
    #[inline]
    pub(crate) fn row_mut(&mut self, li: usize) -> PieceRowMut<'_> {
        PieceRowMut {
            words: &mut self.words[li * self.stride..][..self.stride],
            held: &mut self.held[li],
            piece_count: self.piece_count,
        }
    }

    /// Overwrites the chunk with `src`'s rows from slot `start` on — one
    /// block copy of the words and one of the counts.
    pub(crate) fn copy_from(&mut self, src: &PieceArena, start: usize) {
        debug_assert_eq!(self.stride, src.stride);
        let rows = self.held.len();
        self.words
            .copy_from_slice(&src.words[start * self.stride..][..rows * self.stride]);
        self.held.copy_from_slice(&src.held[start..start + rows]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let empty = PieceSet::new(70);
        assert_eq!(empty.count(), 0);
        assert!(!empty.is_complete());
        let full = PieceSet::full(70);
        assert_eq!(full.count(), 70);
        assert!(full.is_complete());
        for i in 0..70 {
            assert!(!empty.contains(i));
            assert!(full.contains(i));
        }
    }

    #[test]
    fn insert_and_double_insert() {
        let mut s = PieceSet::new(5);
        assert!(s.insert(4));
        assert!(!s.insert(4));
        assert_eq!(s.count(), 1);
        assert!(s.contains(4));
    }

    #[test]
    fn interest_logic() {
        let mut a = PieceSet::new(4);
        let mut b = PieceSet::new(4);
        a.insert(0);
        b.insert(0);
        // b has nothing a lacks.
        assert!(!a.is_interested_in(&b));
        b.insert(2);
        assert!(a.is_interested_in(&b));
        assert!(!b.is_interested_in(&a));
    }

    #[test]
    fn missing_iteration() {
        let mut a = PieceSet::new(130); // force multiple words
        let mut b = PieceSet::new(130);
        b.insert(0);
        b.insert(64);
        b.insert(129);
        a.insert(64);
        let missing: Vec<usize> = a.missing_from(&b).collect();
        assert_eq!(missing, vec![0, 129]);
        // Nothing flows the other way: `b` holds every piece `a` has.
        assert_eq!(b.missing_from(&a).count(), 0);
    }

    #[test]
    fn sets_past_four_words() {
        // 300 pieces span five words, the last one partial.
        let mut s = PieceSet::new(300);
        assert!(s.insert(257));
        assert!(s.contains(257));
        assert!(!s.contains(256));
        let full = PieceSet::full(300);
        assert_eq!(full.count(), 300);
        assert!(full.is_complete());
        assert_eq!(s.missing_from(&full).count(), 299);
        assert_eq!(full.missing_from(&s).count(), 0);
    }

    #[test]
    fn candidate_mask_counts_and_bits() {
        let mut mine = PieceSet::new(130);
        let mut theirs = PieceSet::new(130);
        theirs.insert(1);
        theirs.insert(65);
        theirs.insert(129);
        mine.insert(65);
        let mut mask = [0u64; 3];
        let cand = candidate_mask_into(mine.words(), theirs.words(), &mut mask);
        assert_eq!(cand, 2);
        assert_eq!(mask[0], 1u64 << 1);
        assert_eq!(mask[1], 0);
        assert_eq!(mask[2], 1u64 << 1);
    }

    #[test]
    fn rarest_first_pick() {
        let a = PieceSet::new(4);
        let mut b = PieceSet::new(4);
        b.insert(1);
        b.insert(3);
        // Piece 3 is rarer (availability 2 vs 5).
        let avail = vec![1, 5, 9, 2];
        assert_eq!(a.rarest_missing_from(&b, &avail), Some(3));
        // Ties break to the lowest index.
        let tie = vec![1, 5, 9, 5];
        assert_eq!(a.rarest_missing_from(&b, &tie), Some(1));
        // Nothing missing → None.
        let full = PieceSet::full(4);
        assert_eq!(full.rarest_missing_from(&b, &avail), None);
    }

    #[test]
    fn full_set_has_no_stray_bits() {
        // 70 pieces = 2 words with 58 bits cleared in the second.
        let full = PieceSet::full(70);
        assert_eq!(full.count(), 70);
        assert_eq!(full.missing_from(&PieceSet::full(70)).count(), 0);
        // Word-multiple counts keep every bit of the last word.
        let exact = PieceSet::full(128);
        assert_eq!(exact.count(), 128);
        assert!(exact.is_complete());
        assert!(exact.contains(127));
    }

    /// Random sets over `pieces` pieces: empty, full and mixed densities.
    fn random_sets(pieces: usize, rng: &mut rand_chacha::ChaCha8Rng) -> Vec<PieceSet> {
        use rand::Rng;
        let mut sets = vec![PieceSet::new(pieces), PieceSet::full(pieces)];
        for density in [0.05, 0.5, 0.95, 1.0] {
            for _ in 0..3 {
                let mut set = PieceSet::new(pieces);
                for i in 0..pieces {
                    if rng.gen_bool(density) {
                        set.insert(i);
                    }
                }
                sets.push(set);
            }
        }
        sets
    }

    fn arena_of(sets: &[PieceSet]) -> PieceArena {
        let mut arena = PieceArena::new(sets[0].piece_count(), sets.len());
        for (p, set) in sets.iter().enumerate() {
            arena.copy_row(p, set.view());
        }
        arena
    }

    /// The arena's interest is `is_interested_in` bit for bit (complete
    /// and empty rows included), and its rows read back as the sets they
    /// were copied from, across word boundaries.
    #[test]
    fn arena_interest_and_views_match_piece_sets() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(29);
        for pieces in [1usize, 63, 64, 65, 130, 256, 300] {
            let sets = random_sets(pieces, &mut rng);
            let arena = arena_of(&sets);
            arena.validate(&vec![true; sets.len()]);
            for (q, mine) in sets.iter().enumerate() {
                assert_eq!(arena.view(q), mine.view(), "{pieces} pieces, row {q}");
                assert_eq!(arena.is_complete(q), mine.is_complete());
                for (p, theirs) in sets.iter().enumerate() {
                    assert_eq!(
                        arena.interested(q, p),
                        mine.is_interested_in(theirs),
                        "{pieces} pieces, {q} in {p}"
                    );
                    assert_eq!(
                        arena.view(q).is_interested_in(arena.view(p)),
                        mine.is_interested_in(theirs)
                    );
                }
            }
        }
    }

    /// Row moves: block snapshot of a chunk, the serial delivery's split
    /// borrow, clearing, compaction's slide, and growth with empty rows.
    #[test]
    fn arena_rows_copy_slide_and_grow() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(300);
        let sets = random_sets(300, &mut rng);
        let n = sets.len();
        let mut arena = arena_of(&sets);

        let mut snapshot = PieceArena::new(300, n);
        let lens = [3, 0, n - 5];
        let mut start = 0;
        for (mut chunk, len) in snapshot.chunks_mut(&lens).into_iter().zip(lens) {
            chunk.copy_from(&arena, start);
            start += len;
        }
        for p in 0..n - 2 {
            assert_eq!(snapshot.view(p), sets[p].view(), "snapshot row {p}");
        }

        let (mut row, sender) = arena.recipient_and_sender(0, 1);
        assert_eq!(sender, sets[1].words());
        assert!(row.insert(299));
        assert!(!row.insert(299));
        assert!(row.is_complete() == (sets[0].count() + 1 == 300));
        arena.clear(0);
        let mut present = vec![true; n];
        present[0] = false;
        arena.validate(&present);

        let keep: Vec<bool> = (0..n).map(|p| p % 3 != 0).collect();
        arena.retain(&keep);
        let kept: Vec<&PieceSet> = (0..n).filter(|p| keep[*p]).map(|p| &sets[p]).collect();
        assert_eq!(arena.len(), kept.len());
        for (p, set) in kept.iter().enumerate() {
            assert_eq!(arena.view(p), set.view(), "slid row {p}");
        }
        arena.resize(kept.len() + 2);
        arena.fill(kept.len() + 1);
        assert!(arena.is_complete(kept.len() + 1));
        assert_eq!(arena.view(kept.len()).count(), 0);
        let mut present = vec![true; kept.len() + 2];
        present[kept.len()] = false;
        arena.validate(&present);
    }

    #[test]
    #[should_panic(expected = "held count")]
    fn arena_validate_catches_a_stale_count() {
        let mut arena = PieceArena::new(70, 2);
        arena.fill(1);
        arena.held[1] -= 1;
        arena.validate(&[true, true]);
    }

    #[test]
    #[should_panic(expected = "past the last piece")]
    fn arena_validate_catches_tail_bits() {
        let mut arena = PieceArena::new(70, 1);
        arena.words[1] |= 1 << 6;
        arena.held[0] = 1;
        arena.validate(&[true]);
    }

    #[test]
    #[should_panic(expected = "absent slot 0 keeps pieces")]
    fn arena_validate_catches_an_absent_row() {
        let mut arena = PieceArena::new(70, 1);
        arena.row_mut(0).insert(3);
        arena.validate(&[false]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_contains_panics() {
        let _ = PieceSet::new(3).contains(3);
    }
}
