//! Indexed 4-ary min-heap of piece-transfer crossings.
//!
//! Each recipient-side edge slot holds at most one queued crossing. An
//! entry is one packed `u128` key, `time_key(time) << 64 | recipient << 32
//! | edge`, so the heap order is `(time by total_cmp, recipient, edge)`
//! (the engine's `(time, kind, a, b)` event order restricted to
//! transfers) and the comparator is one integer compare. A per-edge
//! position column maps every slot to its heap index, which lets a
//! re-plan re-key an edge in place and a detach remove it, so no queued
//! crossing is ever stale.

use crate::swarm::PeerId;

/// Children per heap node: a shallower tree than a binary heap, and the
/// four children of a node share one or two cache lines.
const ARITY: usize = 4;

/// Position-column marker of an edge slot with no queued crossing.
const UNQUEUED: u32 = u32::MAX;

/// Maps a timestamp to a `u64` whose unsigned order is `f64::total_cmp`'s
/// order: positive values get their sign bit set, negative values are
/// bit-inverted.
pub(super) fn time_key(time: f64) -> u64 {
    let bits = time.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// Inverse of [`time_key`].
pub(super) fn key_time(key: u64) -> f64 {
    let bits = if key >> 63 == 1 {
        key ^ (1 << 63)
    } else {
        !key
    };
    f64::from_bits(bits)
}

/// Edge slot of a packed key (its low 32 bits).
fn slot_of(key: u128) -> usize {
    key as u32 as usize
}

/// The queued transfer crossings, at most one per edge slot.
#[derive(Debug, Clone, Default)]
pub(super) struct EdgeQueue {
    /// 4-ary min-heap of packed keys.
    heap: Vec<u128>,
    /// Heap index of each edge slot's entry, or [`UNQUEUED`].
    pos: Vec<u32>,
}

impl EdgeQueue {
    /// An empty queue over `slots` edge slots.
    pub(super) fn with_slots(slots: usize) -> Self {
        let mut queue = EdgeQueue::default();
        queue.grow(slots);
        queue
    }

    /// Extends the position column to `slots` edge slots (new slots
    /// start unqueued).
    ///
    /// # Panics
    ///
    /// Panics if `slots` does not fit the key's 32-bit edge field.
    pub(super) fn grow(&mut self, slots: usize) {
        assert!(
            slots < UNQUEUED as usize,
            "edge arena exceeds 2^32 - 1 slots"
        );
        if self.pos.len() < slots {
            self.pos.resize(slots, UNQUEUED);
        }
    }

    /// Number of queued crossings.
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.heap.len()
    }

    /// The earliest crossing as `(time, recipient, edge)`, left queued.
    pub(super) fn peek(&self) -> Option<(f64, PeerId, usize)> {
        self.heap.first().map(|&k| {
            (
                key_time((k >> 64) as u64),
                (k >> 32) as u32 as usize,
                slot_of(k),
            )
        })
    }

    /// Queues edge `e`'s crossing into `recipient` at `time`, re-keying
    /// it in place when the edge already has one.
    pub(super) fn set(&mut self, time: f64, recipient: PeerId, e: usize) {
        // Peer slots fit the 32-bit field (the arena stores neighbour
        // ids as `u32`), and `grow` bounds the edge slots.
        debug_assert!(recipient <= u32::MAX as usize);
        let key = u128::from(time_key(time)) << 64 | (recipient as u128) << 32 | e as u128;
        match self.pos[e] {
            UNQUEUED => {
                let i = self.heap.len();
                self.heap.push(key);
                self.sift_up(i, key);
            }
            i => {
                let i = i as usize;
                if key < self.heap[i] {
                    self.sift_up(i, key);
                } else {
                    self.sift_down(i, key);
                }
            }
        }
        self.debug_check_op(None);
    }

    /// Drops edge `e`'s crossing, if it has one.
    pub(super) fn remove(&mut self, e: usize) {
        let i = self.pos[e];
        if i == UNQUEUED {
            return;
        }
        let i = i as usize;
        self.pos[e] = UNQUEUED;
        let removed = self.heap[i];
        let last = self.heap.pop().expect("a queued slot has an entry");
        if i < self.heap.len() {
            if last < removed {
                self.sift_up(i, last);
            } else {
                self.sift_down(i, last);
            }
        }
        self.debug_check_op(Some(e));
    }

    /// Removes and returns the earliest crossing as `(time, recipient,
    /// edge)`.
    #[cfg(test)]
    pub(super) fn pop(&mut self) -> Option<(f64, PeerId, usize)> {
        let head = self.peek()?;
        self.remove(head.2);
        Some(head)
    }

    /// Moves `key` up from the hole at `i` until its parent is smaller.
    fn sift_up(&mut self, mut i: usize, key: u128) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            let pk = self.heap[parent];
            if pk < key {
                break;
            }
            self.heap[i] = pk;
            self.pos[slot_of(pk)] = i as u32;
            i = parent;
        }
        self.heap[i] = key;
        self.pos[slot_of(key)] = i as u32;
    }

    /// Moves `key` down from the hole at `i` until no child is smaller.
    fn sift_down(&mut self, mut i: usize, key: u128) {
        let len = self.heap.len();
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            let mut best_key = self.heap[first];
            for c in first + 1..(first + ARITY).min(len) {
                let ck = self.heap[c];
                if ck < best_key {
                    best = c;
                    best_key = ck;
                }
            }
            if key < best_key {
                break;
            }
            self.heap[i] = best_key;
            self.pos[slot_of(best_key)] = i as u32;
            i = best;
        }
        self.heap[i] = key;
        self.pos[slot_of(key)] = i as u32;
    }

    /// Checks the queue's invariants: every entry is no smaller than its
    /// parent, the position column is the exact inverse of the heap, and
    /// every other slot is marked unqueued.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub(super) fn validate(&self) -> Result<(), String> {
        self.validate_entries()?;
        let queued = self.pos.iter().filter(|&&p| p != UNQUEUED).count();
        if queued != self.heap.len() {
            return Err(format!(
                "{queued} slots marked queued for {} heap entries",
                self.heap.len()
            ));
        }
        Ok(())
    }

    /// The heap-order and position checks of [`validate`](Self::validate)
    /// over the queued entries only, `O(len)` instead of `O(slots)`.
    fn validate_entries(&self) -> Result<(), String> {
        for (i, &key) in self.heap.iter().enumerate() {
            if i > 0 && self.heap[(i - 1) / ARITY] > key {
                return Err(format!("heap order violated at index {i}"));
            }
            let e = slot_of(key);
            match self.pos.get(e) {
                Some(&p) if p as usize == i => {}
                other => {
                    return Err(format!(
                        "edge {e} sits at heap index {i} but its position reads {other:?}"
                    ))
                }
            }
        }
        Ok(())
    }

    /// [`validate`](Self::validate) in builds with debug assertions;
    /// nothing in release builds.
    pub(super) fn debug_validate(&self) {
        if cfg!(debug_assertions) {
            if let Err(e) = self.validate() {
                panic!("transfer queue invariant: {e}");
            }
        }
    }

    /// The check after every operation in builds with debug assertions:
    /// the entry checks plus the slot the operation dequeued, if any.
    /// An operation writes positions only for entries it leaves queued
    /// and for the slot it dequeues, so when [`validate`](Self::validate)
    /// held before the operation this re-establishes all of it without
    /// scanning every slot. (The engine runs the full check at every
    /// horizon, and the property test after every operation.)
    fn debug_check_op(&self, dequeued: Option<usize>) {
        if cfg!(debug_assertions) {
            let marked = dequeued.is_none_or(|e| self.pos[e] == UNQUEUED);
            if let Err(e) = self.validate_entries() {
                panic!("transfer queue invariant: {e}");
            }
            assert!(marked, "dequeued edge {dequeued:?} is still marked queued");
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::{Ordering, Reverse};
    use std::collections::BinaryHeap;

    use proptest::prelude::*;

    use super::*;

    /// Reference entry ordered `(time by total_cmp, recipient, edge)`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Entry(f64, usize, usize);

    impl Eq for Entry {}

    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            self.0
                .total_cmp(&other.0)
                .then(self.1.cmp(&other.1))
                .then(self.2.cmp(&other.2))
        }
    }

    /// The reference model: a plain `BinaryHeap` with lazy deletion, plus
    /// each slot's live entry. A popped entry that is not its slot's live
    /// one is stale and skipped.
    #[derive(Default)]
    struct Model {
        heap: BinaryHeap<Reverse<Entry>>,
        live: Vec<Option<Entry>>,
    }

    impl Model {
        fn set(&mut self, entry: Entry) {
            self.live[entry.2] = Some(entry);
            self.heap.push(Reverse(entry));
        }

        fn remove(&mut self, e: usize) {
            self.live[e] = None;
        }

        fn pop(&mut self) -> Option<Entry> {
            while let Some(Reverse(entry)) = self.heap.pop() {
                if self.live[entry.2] == Some(entry) {
                    self.live[entry.2] = None;
                    return Some(entry);
                }
            }
            None
        }
    }

    const SLOTS: usize = 48;

    #[test]
    fn time_keys_follow_total_cmp() {
        let times = [
            f64::NEG_INFINITY,
            -3.5,
            -0.0,
            0.0,
            1e-300,
            0.5,
            1.0,
            7.25,
            f64::INFINITY,
        ];
        for &a in &times {
            assert_eq!(key_time(time_key(a)).to_bits(), a.to_bits());
            for &b in &times {
                assert_eq!(time_key(a).cmp(&time_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn rekey_and_remove_keep_positions_inverse() {
        let mut q = EdgeQueue::with_slots(8);
        for e in 0..8 {
            q.set(f64::from(8 - e as u32), e % 3, e);
        }
        q.set(0.25, 1, 5);
        q.set(9.0, 1, 0);
        q.remove(3);
        q.remove(3);
        q.validate().expect("valid queue");
        assert_eq!(q.len(), 7);
        assert_eq!(q.pop(), Some((0.25, 1, 5)));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|h| h.2)).collect();
        assert_eq!(order, vec![7, 6, 4, 2, 1, 0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random set / re-key up / re-key down / remove / pop sequences
        /// over few distinct timestamps (the synchronous limit is all
        /// ties) pop the same sequence from the queue and the model.
        #[test]
        fn queue_pops_like_a_reference_heap(
            ops in proptest::collection::vec((0u32..5, 0usize..SLOTS, 0u32..6), 1..600),
        ) {
            let mut queue = EdgeQueue::with_slots(SLOTS);
            let mut model = Model { live: vec![None; SLOTS], ..Model::default() };
            let recipient = |e: usize| (e * 7) % 5;
            for (op, e, step) in ops {
                let dt = f64::from(step) * 0.5;
                match op {
                    0 => model.set(Entry(dt, recipient(e), e)),
                    1 | 2 => {
                        let Some(Entry(t, _, _)) = model.live[e] else { continue };
                        let t = if op == 1 { t + dt } else { t - dt };
                        model.set(Entry(t, recipient(e), e));
                    }
                    3 => model.remove(e),
                    _ => {
                        let got = queue.pop();
                        let want = model.pop().map(|Entry(t, r, e)| (t, r, e));
                        prop_assert_eq!(got.map(|h| (h.0.to_bits(), h.1, h.2)),
                            want.map(|h| (h.0.to_bits(), h.1, h.2)));
                        prop_assert_eq!(queue.validate(), Ok(()));
                        continue;
                    }
                }
                match model.live[e] {
                    Some(Entry(t, r, _)) => queue.set(t, r, e),
                    None => queue.remove(e),
                }
                prop_assert_eq!(queue.validate(), Ok(()));
            }
            loop {
                let got = queue.pop();
                let want = model.pop().map(|Entry(t, r, e)| (t, r, e));
                prop_assert_eq!(got.map(|h| (h.0.to_bits(), h.1, h.2)),
                    want.map(|h| (h.0.to_bits(), h.1, h.2)));
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
