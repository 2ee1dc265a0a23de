//! Piece sets: fixed-size bitsets over the pieces of the shared file.

use serde::Serialize;

/// Words stored inline before falling back to the heap: 4 × 64 = 256
/// pieces, covering every configuration the experiments run. Keeping the
/// words inside the `PieceSet` struct keeps `Vec<PieceSet>` — the
/// engine's per-peer piece array — contiguous, so the per-edge interest
/// checks and pick prefetches of million-peer rounds cost one cache line
/// per probed peer instead of a pointer chase into a per-peer heap
/// allocation.
const INLINE_WORDS: usize = 4;

/// Bitset word storage: small files live inline, large ones on the heap.
/// The variant is a pure function of the piece count (≤ 256 pieces ⇒
/// inline), so derived equality never compares across variants.
#[derive(Debug, Clone, PartialEq, Eq)]
enum WordStore {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

/// Serialized as a plain word array, matching the `Vec<u64>` encoding the
/// field had before the inline-storage optimization.
impl Serialize for WordStore {
    fn serialize_json_into(&self, out: &mut String) {
        out.push('[');
        for (i, w) in self.as_full_slice().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&w.to_string());
        }
        out.push(']');
    }
}

impl WordStore {
    /// The backing words, inline padding included (trailing inline words
    /// beyond the live length are kept zero).
    #[inline]
    fn as_full_slice(&self) -> &[u64] {
        match self {
            WordStore::Inline(words) => words,
            WordStore::Heap(words) => words,
        }
    }
}

/// The set of pieces a peer holds, as a packed bitset.
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
    words: WordStore,
    piece_count: usize,
    held: usize,
}

impl PieceSet {
    /// An empty set over `piece_count` pieces.
    #[must_use]
    pub fn new(piece_count: usize) -> Self {
        let word_len = piece_count.div_ceil(64);
        let words = if word_len <= INLINE_WORDS {
            WordStore::Inline([0; INLINE_WORDS])
        } else {
            WordStore::Heap(vec![0; word_len])
        };
        Self {
            words,
            piece_count,
            held: 0,
        }
    }

    /// A complete set (a seed's pieces).
    #[must_use]
    pub fn full(piece_count: usize) -> Self {
        let mut s = Self::new(piece_count);
        let words = s.words_mut();
        words.fill(u64::MAX);
        // Mask the tail bits beyond `piece_count` in the last word.
        let tail = piece_count % 64;
        if tail > 0 {
            let last = words.len() - 1;
            words[last] = (1u64 << tail) - 1;
        }
        s.held = piece_count;
        s
    }

    /// The live bitset words (`piece_count.div_ceil(64)` of them) — the
    /// raw operand of the engine's word-parallel kernels.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words.as_full_slice()[..self.piece_count.div_ceil(64)]
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        let len = self.piece_count.div_ceil(64);
        match &mut self.words {
            WordStore::Inline(words) => &mut words[..len],
            WordStore::Heap(words) => &mut words[..len],
        }
    }

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
        self.words.as_full_slice()[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Adds piece `i`; returns `true` if it was new.
    ///
    /// # Panics
    ///
    /// Panics if `i >= piece_count`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.piece_count, "piece {i} out of range");
        let mask = 1u64 << (i % 64);
        let word = match &mut self.words {
            WordStore::Inline(words) => &mut words[i / 64],
            WordStore::Heap(words) => &mut words[i / 64],
        };
        if *word & mask != 0 {
            return false;
        }
        *word |= mask;
        self.held += 1;
        true
    }

    /// Iterates over the held pieces in ascending order (word-parallel).
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(w, &word)| {
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

    /// Removes every piece, keeping the allocation (the membership
    /// layer's slot-recycling path).
    pub(crate) fn clear(&mut self) {
        self.words_mut().fill(0);
        self.held = 0;
    }

    /// Whether `other` holds at least one piece this set lacks — i.e.
    /// whether we are *interested* in `other` (BitTorrent interest). One
    /// AND-NOT sweep with early exit on the first non-zero word.
    #[must_use]
    pub fn is_interested_in(&self, other: &PieceSet) -> bool {
        debug_assert_eq!(self.piece_count, other.piece_count);
        self.words()
            .iter()
            .zip(other.words())
            .any(|(mine, theirs)| theirs & !mine != 0)
    }

    /// Iterates over the pieces `other` has and `self` lacks.
    pub fn missing_from<'a>(&'a self, other: &'a PieceSet) -> impl Iterator<Item = usize> + 'a {
        debug_assert_eq!(self.piece_count, other.piece_count);
        self.words()
            .iter()
            .zip(other.words())
            .enumerate()
            .flat_map(move |(w, (mine, theirs))| {
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

    /// Iterates over the pieces `self` has and `other` lacks — the dual
    /// of [`PieceSet::missing_from`] (`a.missing_in(b)` ≡
    /// `b.missing_from(a)` with the receiver as the *holder*), so sender
    /// -side kernels can enumerate what they can offer a neighbour with
    /// one ANDNOT sweep.
    pub fn missing_in<'a>(&'a self, other: &'a PieceSet) -> impl Iterator<Item = usize> + 'a {
        other.missing_from(self)
    }

    /// Writes the candidate mask `other & !self` (the pieces `other` can
    /// offer `self`) into `mask` and returns the candidate count — the
    /// word-parallel AND/ANDNOT/`count_ones` sweep the rarest-first pick
    /// prefetch masks its permutation walk with. `mask` must hold at
    /// least the live word count.
    pub(crate) fn candidate_mask_into(&self, other: &PieceSet, mask: &mut [u64]) -> usize {
        debug_assert_eq!(self.piece_count, other.piece_count);
        let mut cand = 0usize;
        for (m, (mine, theirs)) in mask.iter_mut().zip(self.words().iter().zip(other.words())) {
            let bits = theirs & !mine;
            cand += bits.count_ones() as usize;
            *m = bits;
        }
        cand
    }

    /// Overwrites `self` with `src`'s bits without reallocating (the
    /// parallel round loop's snapshot refresh).
    pub(crate) fn copy_bits_from(&mut self, src: &PieceSet) {
        debug_assert_eq!(self.piece_count, src.piece_count);
        self.words_mut().copy_from_slice(src.words());
        self.held = src.held;
    }

    /// The **rarest-first** pick: among pieces `other` has and `self`
    /// lacks, the one with the lowest global availability (ties broken by
    /// lowest index, matching a deterministic tie-break).
    #[must_use]
    pub fn rarest_missing_from(&self, other: &PieceSet, availability: &[u32]) -> Option<usize> {
        debug_assert_eq!(availability.len(), self.piece_count);
        self.missing_from(other)
            .min_by_key(|&i| (availability[i], i))
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
        // The dual enumerates the same pieces from the holder's side.
        let offered: Vec<usize> = b.missing_in(&a).collect();
        assert_eq!(offered, vec![0, 129]);
    }

    #[test]
    fn heap_fallback_beyond_inline_capacity() {
        // 300 pieces exceed the 4 inline words; every operation must
        // behave identically on the heap path.
        let mut s = PieceSet::new(300);
        assert!(s.insert(257));
        assert!(s.contains(257));
        assert!(!s.contains(256));
        let full = PieceSet::full(300);
        assert_eq!(full.count(), 300);
        assert!(full.is_complete());
        assert_eq!(s.missing_from(&full).count(), 299);
        assert_eq!(full.missing_in(&s).count(), 299);
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
        let cand = mine.candidate_mask_into(&theirs, &mut mask);
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

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_contains_panics() {
        let _ = PieceSet::new(3).contains(3);
    }
}
