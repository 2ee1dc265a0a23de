//! Incrementally maintained piece-availability index.
//!
//! The engine's rarest-first pick wants pieces in ascending
//! `(availability, index)` order. The historical implementation rescanned
//! the candidate bitset per delivery ([`crate::reference`] retains it);
//! this structure is a **bucketed counting histogram**: a permutation of
//! the pieces kept contiguous by holder count (bucket `c` holds the
//! pieces with exactly `c` present holders), with a ±1 availability
//! change repositioned by one *swap against the bucket boundary* —
//! strictly `O(1)`, no matter how the counts are distributed.
//!
//! Buckets are internally **unordered**, so each non-empty bucket also
//! keeps a **bitmask row** of its pieces (bit `i` set when piece `i` has
//! that count). Rows come from a pool of at most `piece_count` rows,
//! addressed through a per-piece row id and recycled as buckets empty, so
//! the rows cost `O(pieces × words)` however high counts climb. A ±1
//! change moves the piece's bit between two rows, still `O(1)`.
//!
//! A pick walks the permutation (buckets appear in ascending-count
//! order). A short count segment emits its candidates through a bounded
//! insertion buffer, i.e. in ascending piece index; a segment longer than
//! [`LONG_SEGMENT`] entries is emitted instead from its row ANDed with
//! the candidate mask, in ascending bit order — `O(words)` per long
//! bucket. Either way the emitted sequence is identical to sorting by
//! `(count, index)` — and identical to the reference engine's per-pick
//! scans, which the differential suites in `crates/bittorrent/tests/`
//! pin bit-for-bit.
//!
//! The `O(1)` update is exactly the operation open membership needs: a
//! joining peer adds one holder per piece it brings, a leaving peer
//! removes one per piece it takes away ([`crate::Swarm::arrive`] /
//! [`crate::Swarm::depart`]).

use crate::piece::{candidate_mask_into, missing_in_words};

/// Candidate-mask words kept on the stack: 16 words cover every in-tree
/// piece count (≤ 1024 pieces). Larger files keep no mask rows and take
/// the mask-free scan.
const MASK_WORDS: usize = 16;

/// Entries a pick walks into one count segment before it emits the rest
/// of the segment from the bucket's mask row instead. Short segments
/// (most counts hold one or two pieces in spread-out swarms) never pay
/// the row scan; in near-uniform swarms, where hundreds of pieces share a
/// count, a larger bound only lengthens the per-entry walk.
const LONG_SEGMENT: usize = 2;

/// A parallel worker's thread-local availability delta: holder additions
/// accumulated during a round's delivery pass, drained into the shared
/// [`AvailIndex`] by [`AvailIndex::merge_shard`] once the workers join.
/// The `touched` list makes the drain `O(touched pieces)` per shard
/// rather than a full-population sweep, so the serial merge phase of a
/// million-peer round costs only what the round actually delivered.
#[derive(Debug, Clone, Default)]
pub(crate) struct AvailShard {
    /// Pending holder additions per piece; entries are zeroed as the
    /// shard drains, so a drained shard is reusable as-is.
    delta: Vec<u32>,
    /// Pieces with a non-zero delta, in first-touch order.
    touched: Vec<u32>,
}

impl AvailShard {
    /// Sizes the shard for `pieces` pieces. Cheap when already sized: a
    /// drained shard is all-zero and keeps its buffers.
    pub(crate) fn reset(&mut self, pieces: usize) {
        if self.delta.len() != pieces {
            self.delta = vec![0; pieces];
            self.touched.clear();
        }
        debug_assert!(self.touched.is_empty());
        debug_assert!(self.delta.iter().all(|&d| d == 0));
    }

    /// Records one holder addition for `piece`.
    #[inline]
    pub(crate) fn add(&mut self, piece: usize) {
        if self.delta[piece] == 0 {
            self.touched.push(piece as u32);
        }
        self.delta[piece] += 1;
    }
}

/// Piece availability (present-holder counts) with a bucket-contiguous
/// rarest-first permutation and per-bucket bitmask rows (see the
/// [module docs](self)).
#[derive(Debug, Default)]
pub(crate) struct AvailIndex {
    /// Holder count per piece.
    counts: Vec<u32>,
    /// Permutation of the pieces, contiguous by ascending count; within a
    /// bucket the order is arbitrary.
    order: Vec<u32>,
    /// Inverse of `order`: `pos[piece]` locates the piece in `order`.
    pos: Vec<u32>,
    /// `bucket_start[c]` = first `order` slot whose count is ≥ `c`
    /// (equivalently: number of pieces with count < `c`). Extended lazily
    /// as counts grow; trailing entries equal `order.len()`.
    bucket_start: Vec<u32>,
    /// Words per mask row: the bitset width when it fits [`MASK_WORDS`],
    /// else 0 and no rows are kept.
    row_words: usize,
    /// Mask-row pool, `row_words` words per row: bit `i` of a bucket's
    /// row is set exactly when piece `i` is in that bucket.
    rows: Vec<u64>,
    /// Row id of each piece's bucket (shared by the bucket's pieces).
    row_of: Vec<u32>,
    /// Recycled rows, all-zero.
    free_rows: Vec<u32>,
}

/// Manual so `clone_from` reuses the destination's buffers — the parallel
/// round loop and the event core refresh their start-of-round snapshots
/// this way and must stay allocation-free in the steady state.
impl Clone for AvailIndex {
    fn clone(&self) -> Self {
        Self {
            counts: self.counts.clone(),
            order: self.order.clone(),
            pos: self.pos.clone(),
            bucket_start: self.bucket_start.clone(),
            row_words: self.row_words,
            rows: self.rows.clone(),
            row_of: self.row_of.clone(),
            free_rows: self.free_rows.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.counts.clone_from(&src.counts);
        self.order.clone_from(&src.order);
        self.pos.clone_from(&src.pos);
        self.bucket_start.clone_from(&src.bucket_start);
        self.row_words = src.row_words;
        self.rows.clone_from(&src.rows);
        self.row_of.clone_from(&src.row_of);
        self.free_rows.clone_from(&src.free_rows);
    }
}

impl AvailIndex {
    /// Builds the index from raw holder counts.
    pub(crate) fn from_counts(counts: Vec<u32>) -> Self {
        let n = counts.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| (counts[i as usize], i));
        let mut pos = vec![0u32; n];
        for (j, &i) in order.iter().enumerate() {
            pos[i as usize] = j as u32;
        }
        let max = counts.iter().copied().max().unwrap_or(0) as usize;
        let mut bucket_start = vec![0u32; max + 2];
        for &c in &counts {
            bucket_start[c as usize + 1] += 1;
        }
        for c in 0..max + 1 {
            bucket_start[c + 1] += bucket_start[c];
        }
        let mut idx = Self {
            counts,
            order,
            pos,
            bucket_start,
            ..Self::default()
        };
        let words = n.div_ceil(64);
        if words <= MASK_WORDS {
            idx.row_words = words;
            idx.row_of = vec![0; n];
            let mut row = 0;
            for j in 0..n {
                let i = idx.order[j] as usize;
                if j == 0 || idx.counts[i] != idx.counts[idx.order[j - 1] as usize] {
                    row = idx.alloc_row();
                }
                idx.row_of[i] = row;
                idx.rows[row as usize * words + i / 64] |= 1u64 << (i % 64);
            }
        }
        idx
    }

    /// Holder count per piece.
    #[inline]
    pub(crate) fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Ensures `bucket_start[c]` is addressable.
    #[inline]
    fn ensure_bucket(&mut self, c: usize) {
        if self.bucket_start.len() <= c {
            let end = self.order.len() as u32;
            self.bucket_start.resize(c + 1, end);
        }
    }

    /// Swaps the permutation entries at `a` and `b`.
    #[inline]
    fn swap_slots(&mut self, a: usize, b: usize) {
        if a != b {
            self.order.swap(a, b);
            self.pos[self.order[a] as usize] = a as u32;
            self.pos[self.order[b] as usize] = b as u32;
        }
    }

    /// A zeroed row from the pool: a recycled one, else a fresh one.
    fn alloc_row(&mut self) -> u32 {
        self.free_rows.pop().unwrap_or_else(|| {
            let id = self.rows.len() / self.row_words;
            self.rows.resize(self.rows.len() + self.row_words, 0);
            id as u32
        })
    }

    /// Moves `piece`'s bit from the row of bucket `from`, which it just
    /// left, to the row of the bucket it now sits in. A piece that moved
    /// alone into an empty bucket keeps its row as it is; otherwise the
    /// bit joins a bucket mate's row (or a fresh row when it is alone),
    /// and a bucket the move emptied returns its row, now zero, to the
    /// pool — `O(1)`.
    #[inline]
    fn rebucket_row(&mut self, piece: usize, from: usize) {
        if self.row_words == 0 {
            return;
        }
        let left_empty = self.bucket_start[from] == self.bucket_start[from + 1];
        let c = self.counts[piece] as usize;
        let (lo, hi) = (
            self.bucket_start[c] as usize,
            self.bucket_start[c + 1] as usize,
        );
        let p = self.pos[piece] as usize;
        let mate = if p > lo {
            Some(self.order[p - 1] as usize)
        } else if p + 1 < hi {
            Some(self.order[p + 1] as usize)
        } else {
            None
        };
        if left_empty && mate.is_none() {
            return;
        }
        let (w, bit) = (piece / 64, 1u64 << (piece % 64));
        let old = self.row_of[piece];
        self.rows[old as usize * self.row_words + w] &= !bit;
        if left_empty {
            self.free_rows.push(old);
        }
        let new = match mate {
            Some(m) => self.row_of[m],
            None => self.alloc_row(),
        };
        self.row_of[piece] = new;
        self.rows[new as usize * self.row_words + w] |= bit;
    }

    /// Moves `piece` up one bucket: one swap against the end of its
    /// bucket, then the boundary moves.
    #[inline]
    fn step_up(&mut self, piece: usize) {
        let c = self.counts[piece] as usize;
        self.counts[piece] = (c + 1) as u32;
        self.ensure_bucket(c + 2);
        let last = self.bucket_start[c + 1] as usize - 1;
        self.swap_slots(self.pos[piece] as usize, last);
        self.bucket_start[c + 1] = last as u32;
    }

    /// Adds one holder of `piece`: one swap against the end of its bucket,
    /// then the boundary moves and its bit changes rows — `O(1)`.
    #[inline]
    pub(crate) fn increment(&mut self, piece: usize) {
        self.increment_by(piece, 1);
    }

    /// Removes one holder of `piece`: one swap against the start of its
    /// bucket, then the boundary moves and its bit changes rows — `O(1)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the count is already zero.
    #[inline]
    pub(crate) fn decrement(&mut self, piece: usize) {
        let c = self.counts[piece] as usize;
        debug_assert!(c > 0, "piece {piece} has no holders");
        self.counts[piece] = (c - 1) as u32;
        let first = self.bucket_start[c] as usize;
        self.swap_slots(self.pos[piece] as usize, first);
        self.bucket_start[c] = (first + 1) as u32;
        self.rebucket_row(piece, c);
    }

    /// Applies `by` holder additions to `piece` as the exact swap
    /// sequence of `by` successive [`AvailIndex::increment`] calls, so a
    /// batched shard drain leaves `order`/`pos` bit-identical to the
    /// serial one-increment-at-a-time walk it replaces. The piece's bit
    /// changes rows once, from its first bucket's to its last.
    #[inline]
    pub(crate) fn increment_by(&mut self, piece: usize, by: u32) {
        if by == 0 {
            return;
        }
        let from = self.counts[piece] as usize;
        for _ in 0..by {
            self.step_up(piece);
        }
        self.rebucket_row(piece, from);
    }

    /// Drains one worker's shard into the index: touched pieces applied
    /// in ascending piece order, each as its full delta. Called once per
    /// shard in worker order, this replays the exact increment sequence
    /// of the historical worker-major full-population merge — shards are
    /// `O(touched)` to drain instead of `O(piece_count)`.
    pub(crate) fn merge_shard(&mut self, shard: &mut AvailShard) {
        shard.touched.sort_unstable();
        for &piece in &shard.touched {
            let p = piece as usize;
            let d = std::mem::take(&mut shard.delta[p]);
            self.increment_by(p, d);
        }
        shard.touched.clear();
    }

    /// The first `want` rarest-first picks among the pieces the `other`
    /// row has and the `q` row lacks (bitset words over this index's
    /// pieces), in pick order, packed `(count << 32) | piece` — the
    /// exact sequence `want` successive reference picks
    /// ([`crate::PieceSet::rarest_missing_from`] + insert) produce, because
    /// inserting a pick bumps only its *own* availability and the
    /// remaining candidates' `(count, index)` keys never change.
    ///
    /// One word-parallel ANDNOT + `count_ones` sweep builds the candidate
    /// mask `other & !q` and counts it. Dense candidates — the
    /// seed-feeds-fresh-leecher transfers that dominate flash crowds and
    /// churning swarms — walk the permutation front to back, one mask
    /// probe per entry, inserting each count segment's candidates
    /// index-sorted through the bounded buffer; the walk stops at the
    /// first segment boundary with the buffer full. A segment still going
    /// after [`LONG_SEGMENT`] entries drops its partial picks, emits them
    /// again from its bucket row ANDed with the mask in ascending bit
    /// order, and the walk jumps past the bucket: `O(words)` per long
    /// bucket, the per-piece walk otherwise. Sparse candidates (fewer
    /// than one piece in eight), e.g. nearly-complete recipients, scan
    /// the mask words directly like the retained reference scan, and
    /// files over 1024 pieces take a mask-free scan. Every path emits the
    /// identical canonical `(count, index)` sequence, so the choice is
    /// unobservable.
    #[inline]
    pub(crate) fn batch_picks(&self, q: &[u64], other: &[u64], want: usize, out: &mut Vec<u64>) {
        out.clear();
        if want == 0 {
            return;
        }
        let pieces = self.counts.len();
        let word_len = q.len();
        debug_assert_eq!(word_len, pieces.div_ceil(64));
        if word_len > MASK_WORDS {
            // Mask-free fallback for very large files: enumerate missing
            // pieces word-parallel, insertion-sort the top `want` by key.
            for i in missing_in_words(q, other) {
                let key = (u64::from(self.counts[i]) << 32) | i as u64;
                insert_bounded(out, 0, want, key);
            }
            return;
        }
        let mut mask = [0u64; MASK_WORDS];
        let mask = &mut mask[..word_len];
        let cand = candidate_mask_into(q, other, mask);
        if cand == 0 {
            return;
        }
        if cand * 8 < pieces {
            // Sparse-candidate scan (the reference strategy) over the
            // mask words, insertion-sorting the top `want` by key.
            for (w, &word) in mask.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let key = (u64::from(self.counts[i]) << 32) | i as u64;
                    insert_bounded(out, 0, want, key);
                }
            }
            return;
        }
        // Ordered walk over the bucket-contiguous permutation.
        let mut segment_count = u32::MAX;
        let mut segment_base = 0usize; // finalized picks before this segment
        let mut switch_at = 0usize; // walk slot where the segment counts as long
        let mut j = 0;
        while j < self.order.len() {
            let i = self.order[j] as usize;
            let c = self.counts[i];
            if c != segment_count {
                // A segment boundary: earlier segments' picks are final.
                if out.len() == want {
                    return;
                }
                segment_count = c;
                segment_base = out.len();
                switch_at = j + LONG_SEGMENT;
            } else if j >= switch_at {
                // A long segment: emit it whole from its row, then skip it.
                out.truncate(segment_base);
                let row = self.row_of[i] as usize * word_len;
                for (w, (&bucket, &m)) in self.rows[row..row + word_len]
                    .iter()
                    .zip(&*mask)
                    .enumerate()
                {
                    let mut bits = bucket & m;
                    while bits != 0 {
                        if out.len() == want {
                            return;
                        }
                        let piece = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        out.push((u64::from(c) << 32) | piece as u64);
                    }
                }
                j = self.bucket_start[c as usize + 1] as usize;
                continue;
            }
            if mask[i / 64] & (1u64 << (i % 64)) != 0 {
                // Insert index-sorted within the segment's own region,
                // bounded by the room the buffer still has.
                let key = (u64::from(c) << 32) | i as u64;
                insert_bounded(out, segment_base, want, key);
            }
            j += 1;
        }
    }

    /// Checks the structural invariants: the permutation and its inverse,
    /// bucket contiguity and boundaries, and the mask rows — each
    /// non-empty bucket owns one row holding exactly its pieces, and
    /// every other pooled row is recycled and zero. `O(pieces + max
    /// count + pool words)`.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub(crate) fn validate(&self) {
        let n = self.counts.len();
        assert_eq!(self.order.len(), n);
        assert_eq!(self.pos.len(), n);
        for (j, &i) in self.order.iter().enumerate() {
            assert_eq!(self.pos[i as usize] as usize, j, "pos inverse broken");
        }
        // Buckets are contiguous: counts never decrease along the
        // permutation.
        for w in self.order.windows(2) {
            assert!(
                self.counts[w[0] as usize] <= self.counts[w[1] as usize],
                "bucket contiguity broken at {}/{}",
                w[0],
                w[1]
            );
        }
        let mut below = vec![0usize; self.bucket_start.len().max(1)];
        for &c in &self.counts {
            assert!(
                (c as usize) + 1 < self.bucket_start.len(),
                "count {c} past the buckets"
            );
            below[c as usize + 1] += 1;
        }
        for c in 1..below.len() {
            below[c] += below[c - 1];
        }
        assert_eq!(self.bucket_start.first().copied().unwrap_or(0), 0);
        for (c, &start) in self.bucket_start.iter().enumerate() {
            assert_eq!(start as usize, below[c], "bucket_start[{c}] wrong");
        }
        let words = n.div_ceil(64);
        if words > MASK_WORDS {
            assert_eq!(self.row_words, 0, "mask rows kept past {MASK_WORDS} words");
            assert!(self.rows.is_empty() && self.row_of.is_empty() && self.free_rows.is_empty());
            return;
        }
        assert_eq!(self.row_words, words, "row width");
        assert_eq!(self.row_of.len(), n);
        let pool = self.rows.len().checked_div(words).unwrap_or(0);
        assert_eq!(pool * words, self.rows.len(), "ragged row pool");
        assert!(pool <= n, "row pool past piece_count rows");
        let row = |r: u32| &self.rows[r as usize * words..(r as usize + 1) * words];
        let mut owned = vec![false; pool];
        for bucket in self
            .order
            .chunk_by(|&a, &b| self.counts[a as usize] == self.counts[b as usize])
        {
            let r = self.row_of[bucket[0] as usize];
            assert!((r as usize) < pool, "row {r} outside the pool");
            assert!(!owned[r as usize], "row {r} shared by two buckets");
            owned[r as usize] = true;
            for &i in bucket {
                let i = i as usize;
                assert_eq!(self.row_of[i], r, "piece {i} off its bucket's row");
                assert!(
                    row(r)[i / 64] & (1u64 << (i % 64)) != 0,
                    "piece {i} missing from its row"
                );
            }
            let bits: usize = row(r).iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(
                bits,
                bucket.len(),
                "row {r} holds pieces outside its bucket"
            );
        }
        for &r in &self.free_rows {
            assert!((r as usize) < pool, "free row {r} outside the pool");
            assert!(!owned[r as usize], "row {r} both owned and free");
            owned[r as usize] = true;
            assert!(
                row(r).iter().all(|&w| w == 0),
                "recycled row {r} is not zero"
            );
        }
        assert!(
            owned.iter().all(|&o| o),
            "pooled row neither owned nor free"
        );
    }
}

/// Inserts `key` into the sorted region `out[base..]`, keeping the total
/// length capped at `cap`: the bounded insertion buffer the scans share.
#[inline]
fn insert_bounded(out: &mut Vec<u64>, base: usize, cap: usize, key: u64) {
    if out.len() < cap {
        let p = base + out[base..].partition_point(|&k| k < key);
        out.insert(p, key);
    } else if key < *out.last().expect("cap region is non-empty at capacity") {
        let p = base + out[base..].partition_point(|&k| k < key);
        out.pop();
        out.insert(p, key);
    }
}

#[cfg(test)]
mod tests {
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    use super::*;
    use crate::PieceSet;

    #[test]
    fn build_matches_counts() {
        let counts = vec![3, 0, 7, 3, 1, 0, 3];
        let idx = AvailIndex::from_counts(counts.clone());
        idx.validate();
        assert_eq!(idx.counts(), &counts[..]);
    }

    #[test]
    fn random_updates_keep_invariants() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 40;
        let counts: Vec<u32> = (0..n).map(|_| rng.gen_range(0..6)).collect();
        let mut idx = AvailIndex::from_counts(counts);
        for step in 0..2000 {
            let piece = rng.gen_range(0..n as usize);
            if idx.counts()[piece] == 0 || rng.gen_bool(0.6) {
                idx.increment(piece);
            } else {
                idx.decrement(piece);
            }
            if step % 97 == 0 {
                idx.validate();
            }
        }
        idx.validate();
    }

    /// Every pick path — sparse scan, per-piece walk, long-bucket row
    /// emission, mask-free scan (1025 pieces) — against the reference
    /// scan, across word boundaries, three count regimes, indexes churned
    /// by increments, decrements and shard merges, and `want` 0..=8.
    #[test]
    fn batch_picks_match_reference_scan_on_both_strategies() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for pieces in [1usize, 63, 64, 65, 130, 512, 1024, 1025] {
            for regime in ["shared", "distinct", "few"] {
                for case in 0..12 {
                    let mut counts: Vec<u32> = match regime {
                        "shared" => vec![4; pieces],
                        "distinct" => (1..=pieces as u32).collect(),
                        _ => (0..pieces).map(|_| rng.gen_range(1..=3)).collect(),
                    };
                    // Shuffle so counts are not tied to piece order.
                    for i in (1..pieces).rev() {
                        counts.swap(i, rng.gen_range(0..i + 1));
                    }
                    // Fresh builds are fully sorted; updates shuffle the
                    // within-bucket order and move bits between rows.
                    let mut idx = AvailIndex::from_counts(counts);
                    let steps = if case % 3 == 0 {
                        0
                    } else {
                        rng.gen_range(1..3 * pieces.min(100) + 1)
                    };
                    let mut shard = AvailShard::default();
                    shard.reset(pieces);
                    for _ in 0..steps {
                        let piece = rng.gen_range(0..pieces);
                        match rng.gen_range(0..3u32) {
                            0 => idx.increment(piece),
                            1 if idx.counts()[piece] > 0 => idx.decrement(piece),
                            _ => {
                                shard.add(piece);
                                if rng.gen_bool(0.3) {
                                    idx.merge_shard(&mut shard);
                                }
                            }
                        }
                    }
                    idx.merge_shard(&mut shard);
                    idx.validate();
                    // Sparse (nearly complete), dense and all-missing
                    // recipients, fed by full and half senders.
                    let q_density = [0.0, 0.2, 0.6, 0.95][case % 4];
                    let other_density = if (case / 4) % 2 == 0 { 1.0 } else { 0.5 };
                    let mut q = PieceSet::new(pieces);
                    let mut other = PieceSet::new(pieces);
                    for i in 0..pieces {
                        if rng.gen_bool(q_density) {
                            q.insert(i);
                        }
                        if rng.gen_bool(other_density) {
                            other.insert(i);
                        }
                    }
                    let (mut got, mut expect) = (Vec::new(), Vec::new());
                    for want in 0..=8 {
                        idx.batch_picks(q.words(), other.words(), want, &mut got);
                        crate::reference::batch_rarest_picks_scan(
                            &q,
                            &other,
                            idx.counts(),
                            want,
                            &mut expect,
                        );
                        assert_eq!(
                            got, expect,
                            "{pieces} pieces, {regime} case {case} want {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_count_decrement_roundtrip() {
        let mut idx = AvailIndex::from_counts(vec![1, 2, 1]);
        idx.decrement(0);
        idx.increment(0);
        idx.validate();
        assert_eq!(idx.counts(), &[1, 2, 1]);
    }

    /// `increment_by(p, k)` is exactly `k` single increments: same
    /// counts, same invariants, and the same `batch_picks` output (the
    /// full observable surface — within-bucket order is free to differ).
    #[test]
    fn increment_by_matches_repeated_increments() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xba7c);
        let pieces = 70;
        for case in 0..60 {
            let counts: Vec<u32> = (0..pieces).map(|_| rng.gen_range(0..5)).collect();
            let mut bulk = AvailIndex::from_counts(counts.clone());
            let mut single = AvailIndex::from_counts(counts);
            for _ in 0..40 {
                let piece = rng.gen_range(0..pieces);
                let by = rng.gen_range(0..6u32);
                bulk.increment_by(piece, by);
                for _ in 0..by {
                    single.increment(piece);
                }
            }
            bulk.validate();
            assert_eq!(bulk.counts(), single.counts(), "case {case}");
            let mut q = PieceSet::new(pieces);
            let mut other = PieceSet::new(pieces);
            for i in 0..pieces {
                if rng.gen_bool(0.4) {
                    q.insert(i);
                }
                if rng.gen_bool(0.5) {
                    other.insert(i);
                }
            }
            let (mut got_bulk, mut got_single) = (Vec::new(), Vec::new());
            bulk.batch_picks(q.words(), other.words(), 4, &mut got_bulk);
            single.batch_picks(q.words(), other.words(), 4, &mut got_single);
            assert_eq!(got_bulk, got_single, "case {case} picks");
        }
    }

    /// Draining worker shards in order is exactly the serial increment
    /// walk: `merge_shard` over any partition of the additions leaves the
    /// same counts and invariants, and empties every shard for reuse.
    #[test]
    fn shard_merge_matches_serial_increments() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5a4d);
        let pieces = 90;
        for workers in [1usize, 2, 3, 8] {
            let counts: Vec<u32> = (0..pieces).map(|_| rng.gen_range(0..4)).collect();
            let mut sharded = AvailIndex::from_counts(counts.clone());
            let mut serial = AvailIndex::from_counts(counts);
            let mut shards: Vec<AvailShard> = vec![AvailShard::default(); workers];
            for shard in &mut shards {
                shard.reset(pieces);
            }
            for _ in 0..500 {
                let piece = rng.gen_range(0..pieces);
                let worker = rng.gen_range(0..workers);
                shards[worker].add(piece);
                serial.increment(piece);
            }
            for shard in &mut shards {
                sharded.merge_shard(shard);
            }
            sharded.validate();
            assert_eq!(sharded.counts(), serial.counts(), "workers {workers}");
            // Drained shards are all-zero and immediately reusable.
            for shard in &mut shards {
                shard.reset(pieces);
            }
        }
    }
}
