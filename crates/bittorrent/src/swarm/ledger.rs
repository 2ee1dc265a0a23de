//! Open membership: the primitives the session layer drives (`arrive`,
//! `depart`, `compact`, overlay splicing), the membership-ledger
//! accessors, and the structural invariant checks.

use super::round::ParBuffers;
use super::{PeerId, Swarm, ABSENT, NO_OPT};
use crate::{PeerBehavior, PieceSet};

/// One swap-move of [`Swarm::remove_edge_at`]: `owner`'s last live edge
/// moved from slot `from` into the vacated slot `to` (`from == to` when
/// the removed edge was already last), and `from` was cleared.
#[derive(Clone, Copy)]
pub(crate) struct SlotMove {
    pub(crate) owner: PeerId,
    pub(crate) from: usize,
    pub(crate) to: usize,
}

impl Swarm {
    /// Tight exclusive upper bound on the present arena slots (see the
    /// `live_bound` field).
    pub(crate) fn live_slot_bound(&self) -> usize {
        self.live_bound
    }

    /// Indexed-stream identity of slot `p`: the logical peer index its
    /// `(seed, round, stream)` ChaCha streams are keyed by, and the slot
    /// the same peer occupies on a never-compacted twin. Equal to `p`
    /// until [`Swarm::compact`] remaps slots.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn stream_of(&self, p: PeerId) -> usize {
        self.stream_id[p] as usize
    }

    /// The dense present list (see the `present_slots` field).
    pub(crate) fn present_slots(&self) -> &[u32] {
        &self.present_slots
    }

    /// Generation tag of slot `p` (see the `generation` field).
    pub(crate) fn generation_of(&self, p: PeerId) -> u32 {
        self.generation[p]
    }

    /// Fills `out` with the present slots in indexed-stream order: slot
    /// order, sorted by stream only once an arrival has broken the match.
    /// Stream order keeps a compacting session's sequential passes on
    /// the same peers as its never-compacting twin's.
    pub(crate) fn present_in_stream_order(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend((0..self.live_bound as u32).filter(|&p| self.present[p as usize]));
        if !self.stream_ordered {
            out.sort_unstable_by_key(|&p| self.stream_id[p as usize]);
        }
    }

    /// Re-lays out the overlay arena so every row has `extra` spare
    /// neighbour slots beyond its live degree. Live edges, their
    /// rate/credit state and within-row order are preserved exactly;
    /// only the allocation changes, so rounds behave identically before
    /// and after. Sessions call this once at construction so tracker
    /// rewiring has room to splice in new edges.
    pub fn reserve_overlay_slack(&mut self, extra: usize) {
        if extra == 0 {
            return;
        }
        let n = self.peer_count();
        let old_off = std::mem::take(&mut self.row_off);
        let mut new_off = Vec::with_capacity(n + 1);
        new_off.push(0usize);
        for p in 0..n {
            new_off.push(new_off[p] + self.deg[p] as usize + extra);
        }
        let total = new_off[n];
        let mut nbr = vec![0u32; total];
        let mut rev = vec![0u32; total];
        let mut received_prev = vec![0.0; total];
        let mut received_curr = vec![0.0; total];
        let mut credit = vec![0.0; total];
        for p in 0..n {
            for k in 0..self.deg[p] as usize {
                let old_e = old_off[p] + k;
                let q = self.nbr[old_e] as usize;
                let local_er = self.rev[old_e] as usize - old_off[q];
                let e = new_off[p] + k;
                nbr[e] = q as u32;
                rev[e] = (new_off[q] + local_er) as u32;
                received_prev[e] = self.received_prev[old_e];
                received_curr[e] = self.received_curr[old_e];
                credit[e] = self.credit[old_e];
            }
        }
        self.row_off = new_off;
        self.nbr = nbr;
        self.rev = rev;
        self.received_prev = received_prev;
        self.received_curr = received_curr;
        self.credit = credit;
        // Every dead row — free-listed here, or dropped by a compaction but
        // still a degree-0 row on the never-compacted twin — now holds
        // exactly `extra` slots, and a reuse hands out that capacity.
        for entry in &mut self.reuse_stack {
            entry.1 = extra as u32;
        }
        self.grow_row_cap = self
            .grow_row_cap
            .max(self.config.mean_neighbors.ceil() as usize + extra);
        // Edge-aligned parallel buffers are stale; rebuild on next use.
        self.par = ParBuffers::default();
    }

    /// Admits a peer into the swarm: reuses a free-listed departed slot
    /// when one exists, otherwise grows the arena by one slot with
    /// `row_cap` neighbour-slot capacity. The peer starts with no
    /// overlay edges (wire it with [`Swarm::connect_peers`]); its pieces
    /// join the availability index incrementally. A complete arrival
    /// counts as an original seed (it never "completes a download").
    ///
    /// Returns the arena slot hosting the peer.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is non-positive or `pieces` covers a
    /// different file.
    pub fn arrive(&mut self, upload_kbps: f64, behavior: PeerBehavior, pieces: PieceSet) -> PeerId {
        assert!(
            upload_kbps.is_finite() && upload_kbps > 0.0,
            "upload capacities must be positive"
        );
        assert_eq!(
            pieces.piece_count(),
            self.config.piece_count,
            "piece count mismatch"
        );
        let complete = pieces.is_complete();
        let p = match self.free.pop() {
            Some(slot) => {
                // The reuse stack moves in lockstep with the free list
                // (same LIFO order), so the popped entry is this slot's
                // own stream and capacity pre-compaction — and the dead
                // slot's identity this arrival would have inherited in
                // the uncompacted twin post-compaction.
                let (stream, cap) = self
                    .reuse_stack
                    .pop()
                    .expect("reuse stack tracks the free list");
                let slot = slot as usize;
                debug_assert_eq!(cap as usize, self.row_capacity(slot));
                self.stream_id[slot] = stream;
                slot
            }
            None => match self.reuse_stack.pop() {
                // Post-compaction: the dead slot itself is gone, but its
                // stream id and row capacity live on in a fresh slot, so
                // randomness and wiring acceptance match the uncompacted
                // twin exactly. The recycled stream may sort below a
                // present peer's, so slot order stops being stream order.
                Some((stream, cap)) => {
                    self.stream_ordered = false;
                    self.grow_one_slot(cap as usize, stream)
                }
                None => {
                    let stream = self.logical_len as u32;
                    self.logical_len += 1;
                    self.grow_one_slot(self.grow_row_cap, stream)
                }
            },
        };
        debug_assert!(!self.present[p] && self.deg[p] == 0);
        self.present[p] = true;
        self.live_bound = self.live_bound.max(p + 1);
        self.generation[p] = self.generation[p].wrapping_add(1);
        self.slot_pos[p] = self.present_slots.len() as u32;
        self.present_slots.push(p as u32);
        self.upload_kbps[p] = upload_kbps;
        self.behavior[p] = behavior;
        for i in pieces.ones() {
            self.avail.increment(i);
        }
        self.pieces.copy_row(p, pieces.view());
        self.completed_round[p] = None;
        self.original_seed[p] = complete;
        self.total_up[p] = 0.0;
        self.total_down[p] = 0.0;
        self.tft_up[p] = 0.0;
        self.tft_down[p] = 0.0;
        self.tft_len[p] = 0;
        self.optimistic[p] = NO_OPT;
        if complete {
            self.seeding_now += 1;
        } else {
            self.downloading_now += 1;
        }
        p
    }

    /// Appends one empty arena slot with the given row capacity and
    /// indexed-stream identity and returns it absent. Fresh growth hands
    /// the growth capacity (tracking the slack of
    /// [`Swarm::reserve_overlay_slack`], with a floor of twice the
    /// configured mean degree) and the next logical stream; reuse-driven
    /// growth after compaction carries a dead slot's capacity and stream
    /// instead.
    fn grow_one_slot(&mut self, row_cap: usize, stream: u32) -> PeerId {
        let p = self.peer_count();
        let end = self.row_off[p] + row_cap;
        self.row_off.push(end);
        self.nbr.resize(end, 0);
        self.rev.resize(end, 0);
        self.received_prev.resize(end, 0.0);
        self.received_curr.resize(end, 0.0);
        self.credit.resize(end, 0.0);
        self.deg.push(0);
        self.upload_kbps.push(1.0);
        self.behavior.push(PeerBehavior::Compliant);
        self.pieces.resize(p + 1);
        self.completed_round.push(None);
        self.original_seed.push(false);
        self.present.push(false);
        self.total_up.push(0.0);
        self.total_down.push(0.0);
        self.tft_up.push(0.0);
        self.tft_down.push(0.0);
        self.lost_kbit_by_peer.push(0.0);
        self.tft_store.resize((p + 1) * self.config.tft_slots, 0);
        self.tft_len.push(0);
        self.optimistic.push(NO_OPT);
        self.stream_id.push(stream);
        self.slot_pos.push(ABSENT);
        self.generation.push(self.gen_floor);
        p
    }

    /// Sets the upload capacity of present peer `p` (kbps). The value
    /// takes effect at the next round's share computation — this is the
    /// universe layer's capacity-split write at rechoke boundaries.
    /// Writing a peer's current capacity back is a bitwise no-op.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or absent, or `kbps` is
    /// non-positive.
    pub fn set_upload_kbps(&mut self, p: PeerId, kbps: f64) {
        assert!(self.present[p], "peer {p} is not present");
        assert!(
            kbps.is_finite() && kbps > 0.0,
            "upload capacities must be positive"
        );
        self.upload_kbps[p] = kbps;
    }

    /// Removes peer `p` from the swarm: unlinks every overlay edge
    /// (patching the reverse-edge index in place), withdraws its pieces
    /// from the availability index, and free-lists the slot for reuse by
    /// a later [`Swarm::arrive`]. Cumulative transfer totals stay
    /// readable until the slot is reused.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or already absent.
    pub fn depart(&mut self, p: PeerId) {
        assert!(self.present[p], "peer {p} is not present");
        while self.deg[p] > 0 {
            self.remove_edge_at(p, self.deg[p] as usize - 1);
        }
        let complete = self.pieces.is_complete(p);
        let Swarm {
            ref pieces,
            ref mut avail,
            ..
        } = *self;
        for i in pieces.view(p).ones() {
            avail.decrement(i);
        }
        self.pieces.clear(p);
        self.completed_round[p] = None;
        if complete {
            self.seeding_now -= 1;
        } else {
            self.downloading_now -= 1;
        }
        self.present[p] = false;
        let pos = std::mem::replace(&mut self.slot_pos[p], ABSENT) as usize;
        self.present_slots.swap_remove(pos);
        if let Some(&moved) = self.present_slots.get(pos) {
            self.slot_pos[moved as usize] = pos as u32;
        }
        self.tft_len[p] = 0;
        self.optimistic[p] = NO_OPT;
        self.free.push(p as u32);
        self.reuse_stack
            .push((self.stream_id[p], self.row_capacity(p) as u32));
        // Keep the live bound tight: each scan step undoes one earlier
        // arrival's increment, so maintenance stays amortized O(1).
        while self.live_bound > 0 && !self.present[self.live_bound - 1] {
            self.live_bound -= 1;
        }
    }

    /// Free-listed dead arena slots (the compaction trigger's numerator:
    /// `peer_count() - dead_slots()` peers are present).
    #[must_use]
    pub fn dead_slots(&self) -> usize {
        self.free.len()
    }

    /// Compacts the arena: every present peer moves onto the dense slot
    /// prefix `0..population` **in slot order**, and the free-listed dead
    /// slots are dropped entirely. Returns the old-slot → new-slot map
    /// (`u32::MAX` for dropped slots) so callers holding slot-keyed state
    /// (e.g. the session layer) can follow the move.
    ///
    /// What survives, exactly:
    ///
    /// * live overlay rows keep their **capacities** (capacity is
    ///   observable through [`Swarm::connect_peers`]' full-row
    ///   rejection), their edge order, and every per-edge value; the
    ///   reverse-edge index is recomputed from the preserved local
    ///   positions;
    /// * each peer keeps its indexed-stream identity (`stream_id`), so
    ///   parallel rounds draw exactly the randomness the uncompacted twin
    ///   would — and the reuse stack is kept while the free list is
    ///   cleared, so arrivals that would have recycled a dead slot grow a
    ///   fresh slot carrying the dead slot's stream and capacity instead;
    /// * dead slots' loss accumulators fold into a departed-total bucket
    ///   ([`Swarm::lost_kbit`] is conserved); their cumulative transfer
    ///   totals (readable until reuse on the uncompacted twin) are
    ///   dropped;
    /// * the dense present list keeps its positions (tracker wiring draws
    ///   positions into it) with only its slot values remapped, and every
    ///   survivor takes one generation tag above any tag issued before,
    ///   so no pre-compaction handle resolves afterwards.
    ///
    /// The **serial** round draws peer randomness from one shared stream
    /// in slot order, so a compacted swarm's serial rounds diverge from
    /// its uncompacted twin once churn resumes; the indexed-stream
    /// parallel rounds ([`Swarm::run_rounds_parallel`]) stay bit-identical.
    pub fn compact(&mut self) -> Vec<u32> {
        const DEAD: u32 = u32::MAX;
        let n = self.peer_count();
        let mut remap = vec![DEAD; n];
        let mut live = 0usize;
        for p in 0..n {
            if self.present[p] {
                remap[p] = live as u32;
                live += 1;
            }
        }
        if live == n {
            return remap;
        }
        // New row offsets: live rows keep their exact capacities.
        let old_off = std::mem::take(&mut self.row_off);
        let mut new_off = Vec::with_capacity(live + 1);
        new_off.push(0usize);
        for p in 0..n {
            if self.present[p] {
                let cap = old_off[p + 1] - old_off[p];
                new_off.push(new_off[new_off.len() - 1] + cap);
            }
        }
        // Rewrite nbr/rev in place at their old positions first: the
        // reverse index needs the old offsets of both endpoints to
        // recover each edge's local position in its partner's row.
        for p in 0..n {
            if !self.present[p] {
                continue;
            }
            for k in 0..self.deg[p] as usize {
                let e = old_off[p] + k;
                let q = self.nbr[e] as usize;
                let local_er = self.rev[e] as usize - old_off[q];
                self.nbr[e] = remap[q];
                self.rev[e] = (new_off[remap[q] as usize] + local_er) as u32;
            }
        }
        // Slide live rows down to their new offsets (rows only ever move
        // left, so forward in-place copies never overwrite unread data).
        // Whole-capacity copies carry the rows' slack slots, which the
        // membership ops keep zeroed.
        let mut dst_p = 0usize;
        for p in 0..n {
            if !self.present[p] {
                continue;
            }
            let src = old_off[p];
            let cap = old_off[p + 1] - src;
            let dst = new_off[dst_p];
            if dst != src {
                self.nbr.copy_within(src..src + cap, dst);
                self.rev.copy_within(src..src + cap, dst);
                self.received_prev.copy_within(src..src + cap, dst);
                self.received_curr.copy_within(src..src + cap, dst);
                self.credit.copy_within(src..src + cap, dst);
            }
            dst_p += 1;
        }
        let total = new_off[live];
        self.nbr.truncate(total);
        self.rev.truncate(total);
        self.received_prev.truncate(total);
        self.received_curr.truncate(total);
        self.credit.truncate(total);
        self.row_off = new_off;
        // Unchoke rows (fixed stride) slide the same way.
        let stride = self.config.tft_slots;
        let mut dst_p = 0usize;
        for p in 0..n {
            if !self.present[p] {
                continue;
            }
            if dst_p != p {
                self.tft_store
                    .copy_within(p * stride..(p + 1) * stride, dst_p * stride);
            }
            dst_p += 1;
        }
        self.tft_store.truncate(live * stride);
        for p in 0..n {
            if !self.present[p] {
                self.lost_kbit_departed += self.lost_kbit_by_peer[p];
            }
        }
        // Per-peer arrays: order-preserving retain over the present mask.
        fn retain_present<T>(present: &[bool], v: &mut Vec<T>) {
            let mut i = 0;
            v.retain(|_| {
                let keep = present[i];
                i += 1;
                keep
            });
        }
        let top = self.generation.iter().copied().max().unwrap_or(0);
        self.gen_floor = top.wrapping_add(1);
        for slot in &mut self.present_slots {
            *slot = remap[*slot as usize];
        }
        let present = std::mem::take(&mut self.present);
        retain_present(&present, &mut self.slot_pos);
        retain_present(&present, &mut self.generation);
        self.generation.fill(self.gen_floor);
        retain_present(&present, &mut self.deg);
        retain_present(&present, &mut self.upload_kbps);
        retain_present(&present, &mut self.behavior);
        self.pieces.retain(&present);
        retain_present(&present, &mut self.completed_round);
        retain_present(&present, &mut self.original_seed);
        retain_present(&present, &mut self.total_up);
        retain_present(&present, &mut self.total_down);
        retain_present(&present, &mut self.tft_up);
        retain_present(&present, &mut self.tft_down);
        retain_present(&present, &mut self.lost_kbit_by_peer);
        retain_present(&present, &mut self.tft_len);
        retain_present(&present, &mut self.optimistic);
        retain_present(&present, &mut self.stream_id);
        self.present = vec![true; live];
        self.free.clear();
        self.live_bound = live;
        // Edge-aligned parallel buffers are stale; rebuild on next use.
        self.par = ParBuffers::default();
        remap
    }

    /// Removes the overlay edge `p – q` if it exists. Returns `false`
    /// without changes when the edge is not present (either endpoint
    /// absent or not neighbours). The inverse of
    /// [`Swarm::connect_peers`]; used by the fault plane to sever
    /// cross-partition edges.
    ///
    /// # Panics
    ///
    /// Panics if either slot is out of range.
    pub fn disconnect_peers(&mut self, p: PeerId, q: PeerId) -> bool {
        if p == q || !self.present[p] || !self.present[q] {
            return false;
        }
        let Some(k) =
            (0..self.deg[p] as usize).find(|&k| self.nbr[self.row_off[p] + k] as usize == q)
        else {
            return false;
        };
        self.remove_edge_at(p, k);
        true
    }

    /// Adds the overlay edge `p – q` (tracker wiring). Returns `false`
    /// without changes when the edge cannot be added: endpoints equal or
    /// absent, already neighbours, or either row at capacity.
    ///
    /// # Panics
    ///
    /// Panics if either slot is out of range.
    pub fn connect_peers(&mut self, p: PeerId, q: PeerId) -> bool {
        if p == q || !self.present[p] || !self.present[q] {
            return false;
        }
        if self.deg[p] as usize >= self.row_capacity(p)
            || self.deg[q] as usize >= self.row_capacity(q)
        {
            return false;
        }
        if self.neighbors(p).any(|v| v == q) {
            return false;
        }
        let e = self.row_off[p] + self.deg[p] as usize;
        let er = self.row_off[q] + self.deg[q] as usize;
        self.nbr[e] = q as u32;
        self.nbr[er] = p as u32;
        self.rev[e] = er as u32;
        self.rev[er] = e as u32;
        for slot in [e, er] {
            self.received_prev[slot] = 0.0;
            self.received_curr[slot] = 0.0;
            self.credit[slot] = 0.0;
        }
        self.deg[p] += 1;
        self.deg[q] += 1;
        true
    }

    /// Unlinks the edge at local slot `k` of `p`'s row: swap-removes both
    /// directions (moving the displaced edges' state along and re-pointing
    /// their reverse slots), and returns the two slot moves in the order
    /// they were made — the other endpoint's row first, then `p`'s. The
    /// unchoke state (TFT set and optimistic slot) of both endpoints is
    /// dropped — it stores local row positions, which may have moved; the
    /// next rechoke rebuilds it.
    pub(crate) fn remove_edge_at(&mut self, p: PeerId, k: usize) -> [SlotMove; 2] {
        let e = self.row_off[p] + k;
        let q = self.nbr[e] as usize;
        let er = self.rev[e] as usize;
        // The q-side move never touches p's row: rows hold at most one
        // edge per neighbour.
        let moves = [self.swap_remove_edge(q, er), self.swap_remove_edge(p, e)];
        self.tft_len[p] = 0;
        self.tft_len[q] = 0;
        self.optimistic[p] = NO_OPT;
        self.optimistic[q] = NO_OPT;
        moves
    }

    /// Moves `owner`'s last live edge into the vacated slot `to`
    /// (re-pointing its reverse slot), clears the last slot and shrinks
    /// the row.
    fn swap_remove_edge(&mut self, owner: PeerId, to: usize) -> SlotMove {
        let from = self.row_off[owner] + self.deg[owner] as usize - 1;
        if to != from {
            self.nbr[to] = self.nbr[from];
            self.rev[to] = self.rev[from];
            self.received_prev[to] = self.received_prev[from];
            self.received_curr[to] = self.received_curr[from];
            self.credit[to] = self.credit[from];
            let partner = self.rev[to] as usize;
            self.rev[partner] = to as u32;
        }
        self.clear_edge_slot(from);
        self.deg[owner] -= 1;
        SlotMove { owner, from, to }
    }

    #[inline]
    fn clear_edge_slot(&mut self, e: usize) {
        self.nbr[e] = 0;
        self.rev[e] = 0;
        self.received_prev[e] = 0.0;
        self.received_curr[e] = 0.0;
        self.credit[e] = 0.0;
    }

    /// Checks the engine's structural invariants — reverse-edge symmetry,
    /// degree bounds, zeroed slack slots (no dangling credit or rate
    /// state beyond any live row), free-list consistency (departed slots
    /// exactly once on the free list, never live), the membership ledger
    /// (the dense present list is a permutation of the present slots, the
    /// position index its inverse, and an unbroken order flag means
    /// present streams ascend with slot), the piece arena (each slot's
    /// held count is its row's popcount, no bits past the last piece,
    /// absent slots' rows empty), availability counts and the
    /// population split against a from-scratch recount, and the
    /// availability index's own structure (permutation, buckets, mask
    /// rows). Test support for the membership/fault proptests;
    /// `O(edges + peers · pieces)`.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn validate_consistency(&self) {
        let n = self.peer_count();
        let mut downloading = 0;
        let mut seeding = 0;
        let mut free_seen = vec![false; n];
        for &slot in &self.free {
            let p = slot as usize;
            assert!(p < n, "free-listed slot {p} out of range");
            assert!(!free_seen[p], "slot {p} free-listed twice");
            assert!(!self.present[p], "present peer {p} on the free list");
            free_seen[p] = true;
        }
        assert!(
            self.free.len() <= self.reuse_stack.len(),
            "free list outgrew the reuse stack"
        );
        assert!(self.live_bound <= n, "live bound past the arena");
        assert!(
            self.live_bound == 0 || self.present[self.live_bound - 1],
            "live bound is not tight"
        );
        assert!(
            (self.live_bound..n).all(|p| !self.present[p]),
            "present peer past the live bound"
        );
        // Present peers' stream ids are distinct logical identities, and
        // ascend with slot while the order flag is set.
        let slot_streams: Vec<u32> = (0..n)
            .filter(|&p| self.present[p])
            .map(|p| self.stream_id[p])
            .collect();
        assert!(
            !self.stream_ordered || slot_streams.windows(2).all(|w| w[0] < w[1]),
            "order flag set but present streams do not ascend with slot"
        );
        let mut streams = slot_streams.clone();
        streams.sort_unstable();
        streams.dedup();
        assert_eq!(
            streams.len(),
            slot_streams.len(),
            "duplicate stream id among present peers"
        );
        assert!(
            self.stream_id
                .iter()
                .all(|&s| u64::from(s) < self.logical_len),
            "stream id past the logical arena length"
        );
        // The dense present list is a permutation of the present slots
        // with the position index as its inverse (absent slots carry the
        // sentinel, checked below).
        assert_eq!(
            self.present_slots.len(),
            slot_streams.len(),
            "present list is not the present population"
        );
        for (pos, &slot) in self.present_slots.iter().enumerate() {
            let slot = slot as usize;
            assert!(self.present[slot], "absent slot {slot} on the present list");
            assert_eq!(self.slot_pos[slot] as usize, pos, "position of slot {slot}");
        }
        for p in 0..n {
            assert!(
                self.deg[p] as usize <= self.row_capacity(p),
                "peer {p} over capacity"
            );
            // Slack slots past the live degree must hold no stale edge or
            // transfer state: `clear_edge_slot` zeroes them on every
            // removal, so a crash can never leave dangling credit/rate.
            for e in self.row_off[p] + self.deg[p] as usize..self.row_off[p + 1] {
                assert!(
                    self.nbr[e] == 0
                        && self.rev[e] == 0
                        && self.received_prev[e] == 0.0
                        && self.received_curr[e] == 0.0
                        && self.credit[e] == 0.0,
                    "slack slot {e} of peer {p} holds stale edge state"
                );
            }
            if !self.present[p] {
                assert_eq!(self.deg[p], 0, "absent peer {p} keeps edges");
                assert_eq!(self.slot_pos[p], ABSENT, "absent slot {p} is listed");
                assert!(free_seen[p], "absent slot {p} missing from the free list");
                continue;
            }
            if self.pieces.is_complete(p) {
                seeding += 1;
            } else {
                downloading += 1;
            }
            for e in self.row_off[p]..self.row_off[p] + self.deg[p] as usize {
                let q = self.nbr[e] as usize;
                assert!(self.present[q], "edge {p}–{q} points at an absent peer");
                let er = self.rev[e] as usize;
                assert!(
                    (self.row_off[q]..self.row_off[q] + self.deg[q] as usize).contains(&er),
                    "reverse slot of {p}->{q} outside {q}'s live row"
                );
                assert_eq!(self.nbr[er] as usize, p, "reverse slot mismatch");
                assert_eq!(self.rev[er] as usize, e, "reverse-of-reverse mismatch");
            }
        }
        self.pieces.validate(&self.present);
        assert_eq!(self.downloading_now, downloading, "downloading count");
        assert_eq!(self.seeding_now, seeding, "seeding count");
        for i in 0..self.config.piece_count {
            let holders = (0..n)
                .filter(|&p| self.present[p] && self.pieces.view(p).contains(i))
                .count() as u32;
            assert_eq!(holders, self.availability()[i], "availability of piece {i}");
        }
        self.avail.validate();
    }

    /// Runs [`Swarm::validate_consistency`] in debug builds and is a
    /// no-op in release builds — the hook the differential suites call
    /// after every churn/fault event, cheap enough to leave in hot loops.
    pub fn check_invariants(&self) {
        if cfg!(debug_assertions) {
            self.validate_consistency();
        }
    }
}
