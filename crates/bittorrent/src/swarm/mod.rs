//! The round-based swarm simulator.
//!
//! One round models one rechoke period (10 s). Each round every peer:
//!
//! 1. **rechokes**: ranks its overlay neighbours by the download rate
//!    received from them during the previous round and unchokes the top
//!    `tft_slots` interested ones (Tit-for-Tat); every `optimistic_period`
//!    rounds it also rotates one *optimistic* unchoke to a random interested
//!    choked neighbour — the paper's "generous connection" that powers the
//!    random-initiative discovery of better partners (§6);
//! 2. **transfers**: its upload capacity is split equally among unchoked
//!    interested neighbours; received credit converts into pieces selected
//!    **rarest-first** among the pieces the sender holds.
//!
//! Seeds (and completed leechers, §6 post-flash-crowd) unchoke interested
//! neighbours uniformly at random, rotating every round.
//!
//! # Engine layout
//!
//! The engine is data-oriented, mirroring the `strat-core` treatment of
//! the matching hot paths: the overlay is a CSR-style arena with a
//! precomputed reverse-edge index (`rev[e]` locates the slot of edge
//! `q → p` given `e = p → q`, replacing the reference engine's linear
//! `position()` scan on every delivery), per-peer scalars live in flat
//! parallel arrays, per-edge rate/credit state lives in row-aligned
//! arrays, and unchoke sets live in a fixed-stride arena. Piece state is
//! one flat arena too (`PieceArena`): each slot's bitfield is a row of
//! `⌈piece_count / 64⌉` words in a single `Vec<u64>` beside a `u32`
//! held-count column, so the per-edge interest checks and rarest-first
//! prefetches read contiguous words at any file size, the parallel
//! round's start-of-round snapshot is one block copy per worker, and the
//! membership primitives copy, clear or slide rows. [`Peer::pieces`]
//! hands out a borrowed [`PieceView`] of a row. A persistent
//! [`Scratch`] arena holds the per-peer candidate/rank/pool buffers, so a
//! steady-state [`Swarm::round`] performs **zero heap allocation**.
//!
//! # Open membership
//!
//! Overlay rows are allocated extents (`row_off`) with a live degree
//! (`deg[p] ≤` row capacity), so the arena supports **membership
//! mutation** between rounds without rebuilding: [`Swarm::depart`]
//! removes a peer (unlinking every edge with `O(1)` swap-removes that
//! patch the reverse-edge index in place), [`Swarm::arrive`] admits one
//! into a free-listed slot (or grows the arena), and
//! [`Swarm::connect_peers`] splices a tracker-handed edge into both rows.
//! Piece availability is maintained incrementally through all of it by
//! the ordered availability index (`avail` module), and
//! [`Swarm::population`] / [`Swarm::completed`] read the
//! incrementally-tracked population split and cumulative completions.
//! The session layer ([`crate::session`]) drives these primitives with
//! arrival/departure processes; a closed swarm (no mutation) behaves
//! exactly as the historical fixed-`n` engine — the differential suites
//! against [`crate::reference::RefSwarm`] pin that.
//!
//! Two round semantics are offered:
//!
//! * [`Swarm::round`] / [`Swarm::run_rounds`] — the serial semantics,
//!   bit-identical to the retained reference engine
//!   ([`crate::reference::RefSwarm::round`]): one shared ChaCha stream,
//!   sender-major delivery with live piece/availability state;
//! * [`Swarm::run_rounds_parallel`] — the indexed-stream semantics
//!   ([`crate::reference::RefSwarm::round_indexed`]): per-peer randomness
//!   derived from `(seed, round, peer)`, phase-structured rounds
//!   (rechoke + sender flows, then recipient-major delivery against the
//!   start-of-round snapshot), bit-reproducible for **any** thread count
//!   under the workspace determinism contract (`strat-par`).
//!
//! Both round semantics and the event core ([`crate::events`]) share one
//! per-peer **rechoke step** (`RechokeView::rechoke`: run `choke_policy`,
//! commit the unchoke row, build the transfer targets) and one per-edge
//! **piece-landing step** (`land_pieces`: spend whole pieces of credit on
//! rarest-first picks, insert them, record availability, stamp
//! completion). The engines differ only in the RNG, rate row,
//! availability, sender piece state and crossing threshold they pass in.
//!
//! # Source layout
//!
//! * `mod.rs` — the arena ([`Swarm`], [`Population`], [`Peer`], the
//!   `Scratch` buffers), construction, the public accessors and the
//!   event-core hooks;
//! * `ledger` — membership (`arrive`, `depart`, `compact`, overlay
//!   splicing), the membership-ledger accessors and the invariant
//!   checks;
//! * `round` — the indexed-stream drivers ([`Swarm::run_rounds_parallel`])
//!   and their two parallel passes;
//! * `serial` — the shared-stream serial round ([`Swarm::round`]);
//! * `kernels` — the per-peer and per-edge steps every engine shares
//!   (rechoke, choke policy, interest predicates, piece landing);
//! * `tests` — the unit tests.
//!
//! **Inlining contract:** every kernel a round driver calls per peer or
//! per edge carries `#[inline]`, so the hot round's speed does not depend
//! on which codegen unit the kernel lands in (see `kernels`).

mod kernels;
mod ledger;
mod round;
mod serial;
#[cfg(test)]
mod tests;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use strat_graph::{generators, NodeId};

use crate::avail::AvailIndex;
use crate::observer::RunObserver;
use crate::piece::{PieceArena, PieceView};
use crate::{PeerBehavior, SwarmConfig};

use kernels::land_pieces;
use round::ParBuffers;

/// Index of a peer inside a [`Swarm`] (an arena slot; the session layer
/// pairs it with the slot's generation tag).
pub type PeerId = usize;

/// Sentinel for "no optimistic unchoke" in the flat optimistic array.
pub(crate) const NO_OPT: u32 = u32::MAX;

/// Present-list position of an absent slot.
const ABSENT: u32 = u32::MAX;

/// The present-population split of a swarm: peers still downloading vs
/// peers holding the complete file (original seeds and promoted
/// leechers). Maintained incrementally — reading it never rescans piece
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Population {
    /// Present peers that do not yet hold every piece.
    pub downloading: usize,
    /// Present peers holding the complete file.
    pub seeding: usize,
}

impl Population {
    /// Total present peers.
    #[must_use]
    pub fn total(&self) -> usize {
        self.downloading + self.seeding
    }
}

/// Borrowed view of one peer's state (the accessor surface the old
/// array-of-structs `Peer` offered, now over the flat engine arrays).
///
/// Obtained from [`Swarm::peer`]; copies are cheap (two words).
#[derive(Debug, Clone, Copy)]
pub struct Peer<'a> {
    swarm: &'a Swarm,
    id: PeerId,
}

impl<'a> Peer<'a> {
    /// Upload capacity in kbps.
    #[must_use]
    pub fn upload_kbps(&self) -> f64 {
        self.swarm.upload_kbps[self.id]
    }

    /// The peer's choking behavior.
    #[must_use]
    pub fn behavior(&self) -> PeerBehavior {
        self.swarm.behavior[self.id]
    }

    /// The pieces currently held, as a read view of the peer's row in
    /// the engine's piece arena.
    #[must_use]
    pub fn pieces(&self) -> PieceView<'a> {
        self.swarm.pieces.view(self.id)
    }

    /// Whether this peer entered the swarm holding the complete file (an
    /// original seed, or a complete arrival admitted by
    /// [`Swarm::arrive`]).
    #[must_use]
    pub fn is_original_seed(&self) -> bool {
        self.swarm.original_seed[self.id]
    }

    /// Whether the peer currently holds every piece.
    #[must_use]
    pub fn is_seeding(&self) -> bool {
        self.pieces().is_complete()
    }

    /// Round at which a leecher completed the file.
    #[must_use]
    pub fn completed_round(&self) -> Option<u64> {
        self.swarm.completed_round[self.id]
    }

    /// Cumulative kilobits uploaded.
    #[must_use]
    pub fn total_uploaded(&self) -> f64 {
        self.swarm.total_up[self.id]
    }

    /// Cumulative kilobits downloaded.
    #[must_use]
    pub fn total_downloaded(&self) -> f64 {
        self.swarm.total_down[self.id]
    }

    /// Share ratio `downloaded / uploaded`; `None` when nothing was
    /// uploaded yet.
    #[must_use]
    pub fn share_ratio(&self) -> Option<f64> {
        (self.total_uploaded() > 0.0).then(|| self.total_downloaded() / self.total_uploaded())
    }

    /// Kilobits uploaded through TFT (non-optimistic) slots.
    #[must_use]
    pub fn tft_uploaded(&self) -> f64 {
        self.swarm.tft_up[self.id]
    }

    /// Kilobits received from senders' TFT (non-optimistic) slots.
    #[must_use]
    pub fn tft_downloaded(&self) -> f64 {
        self.swarm.tft_down[self.id]
    }

    /// Share ratio of the **TFT economy only** — the quantity the paper's
    /// Figure 11 models (optimistic-slot windfalls excluded); `None` when
    /// nothing was TFT-uploaded yet.
    #[must_use]
    pub fn tft_share_ratio(&self) -> Option<f64> {
        (self.tft_uploaded() > 0.0).then(|| self.tft_downloaded() / self.tft_uploaded())
    }
}

/// Reusable per-round buffers: candidate positions, the rank working copy,
/// the optimistic pool and the transfer target list. Persisted across
/// rounds so the steady-state serial round never allocates.
#[derive(Debug, Clone, Default)]
struct Scratch {
    cand: Vec<u32>,
    ranked: Vec<u32>,
    pool: Vec<u32>,
    targets: Vec<(u32, bool)>,
    /// Prefetched rarest-first picks, packed `(availability << 32) | piece`.
    picks: Vec<u64>,
}

/// A BitTorrent swarm under Tit-for-Tat choking.
///
/// # Examples
///
/// ```
/// use strat_bittorrent::{Swarm, SwarmConfig};
///
/// let config = SwarmConfig::builder().leechers(30).seeds(1).piece_count(32).build();
/// let uploads: Vec<f64> = (0..31).map(|i| 100.0 + 10.0 * i as f64).collect();
/// let mut swarm = Swarm::new(config, &uploads);
/// for _ in 0..20 {
///     swarm.round();
/// }
/// // Transfers happened and conservation holds.
/// let up: f64 = (0..swarm.peer_count()).map(|p| swarm.peer(p).total_uploaded()).sum();
/// let down: f64 = (0..swarm.peer_count()).map(|p| swarm.peer(p).total_downloaded()).sum();
/// assert!(up > 0.0 && (up - down).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Swarm {
    config: SwarmConfig,
    /// Shared stream of the serial round semantics.
    rng: ChaCha8Rng,
    /// Overlay arena: row `p` is allocated `row_off[p]..row_off[p + 1]`
    /// and live in `nbr[row_off[p]..][..deg[p]]`.
    row_off: Vec<usize>,
    deg: Vec<u32>,
    nbr: Vec<u32>,
    /// `rev[e]` = global slot of the reverse edge: for `e` in `p`'s row
    /// pointing at `q`, the slot of `p` inside `q`'s row.
    rev: Vec<u32>,
    // Per-peer state, struct-of-arrays.
    upload_kbps: Vec<f64>,
    behavior: Vec<PeerBehavior>,
    /// Every slot's bitfield, one flat row of `⌈piece_count / 64⌉` words
    /// per slot.
    pieces: PieceArena,
    completed_round: Vec<Option<u64>>,
    /// Whether the peer entered the swarm holding the complete file.
    original_seed: Vec<bool>,
    /// Membership: departed slots are absent and free-listed for reuse.
    present: Vec<bool>,
    free: Vec<u32>,
    /// Exclusive upper bound on the present slots: every present peer
    /// lives below it, and it is *tight* (`live_bound == 0` or slot
    /// `live_bound - 1` is present). Maintained in amortized `O(1)`
    /// alongside the free list so round loops scan `live_bound` slots
    /// instead of the whole arena when churn has piled up dead slots
    /// past the live population.
    live_bound: usize,
    /// Indexed-stream identity of each slot: the *logical* peer index
    /// its `(seed, round, stream)` ChaCha streams are keyed by. Equal to
    /// the slot index until [`Swarm::compact`] remaps slots; carried
    /// through the reuse stack so a compacted swarm draws exactly the
    /// randomness its uncompacted twin would.
    stream_id: Vec<u32>,
    /// `(stream, row capacity)` of departed slots, pushed by
    /// [`Swarm::depart`] in lockstep with `free` and popped by
    /// [`Swarm::arrive`]. Compaction clears `free` (the dead slots no
    /// longer exist) but keeps this stack: arrivals that would have
    /// reused a dead slot instead grow a fresh slot carrying the dead
    /// slot's stream id and row capacity, keeping stream assignment and
    /// wiring capacity identical to the uncompacted twin.
    reuse_stack: Vec<(u32, u32)>,
    /// Membership ledger: the present slots as a dense list (pushed by
    /// [`Swarm::arrive`], swap-removed by [`Swarm::depart`]) — the
    /// tracker's uniform candidate pool — and each slot's position in
    /// it ([`ABSENT`] while departed).
    present_slots: Vec<u32>,
    slot_pos: Vec<u32>,
    /// Per-slot generation tag, bumped by every arrival into the slot,
    /// so a stale handle or queued event never aliases a later occupant.
    generation: Vec<u32>,
    /// Tag of fresh growth slots; [`Swarm::compact`] lifts it (and every
    /// survivor) past every tag issued so far, since it renames slots.
    gen_floor: u32,
    /// Whether present slots still ascend in stream order; only a
    /// post-compaction growth slot carrying a recycled stream breaks it.
    stream_ordered: bool,
    /// Virtual arena length had no compaction ever run: the stream id
    /// handed to arrivals that grow genuinely fresh slots.
    logical_len: u64,
    /// Row capacity handed to arena slots appended by [`Swarm::arrive`].
    grow_row_cap: usize,
    total_up: Vec<f64>,
    total_down: Vec<f64>,
    tft_up: Vec<f64>,
    tft_down: Vec<f64>,
    // Per-edge state, row-aligned.
    received_prev: Vec<f64>,
    /// Receipts of the running round. Both round engines leave last
    /// round's `received_prev` here at the swap: the parallel pass 2
    /// *stores* into every live slot, and the serial round zeroes the
    /// array when it starts, since it accumulates with `+=`.
    received_curr: Vec<f64>,
    credit: Vec<f64>,
    /// Unchoke arena: row `p` occupies
    /// `tft_store[p * tft_slots..][..tft_len[p]]` (local neighbour
    /// positions).
    tft_store: Vec<u32>,
    tft_len: Vec<u32>,
    /// Local neighbour position of the optimistic unchoke, or [`NO_OPT`].
    optimistic: Vec<u32>,
    /// Global piece availability (present-holder counts), kept
    /// incrementally sorted by `(count, piece)` for rarest-first picks.
    avail: AvailIndex,
    round: u64,
    // Incrementally tracked population split and cumulative completions.
    downloading_now: usize,
    seeding_now: usize,
    completed_total: usize,
    /// Transfer-loss fault injection: per-delivery loss probability and
    /// the fault-stream seed (see [`crate::faults`]). `loss_prob == 0`
    /// disables the hook entirely (no draws, no overhead).
    loss_prob: f64,
    loss_seed: u64,
    /// Cumulative lost deliveries, and lost kbit accumulated per
    /// recipient (peer-owned rows keep the parallel engine's loss totals
    /// bit-identical at any thread count).
    lost_deliveries: u64,
    lost_kbit_by_peer: Vec<f64>,
    /// Loss accumulated by occupants of slots that [`Swarm::compact`]
    /// dropped, so [`Swarm::lost_kbit`] keeps its running total across
    /// compactions.
    lost_kbit_departed: f64,
    scratch: Scratch,
    par: ParBuffers,
}

impl Swarm {
    /// Builds a swarm: `leechers + seeds` peers, random overlay of expected
    /// degree `mean_neighbors`, post-flash-crowd piece initialization.
    ///
    /// `upload_kbps[p]` gives each peer's upload capacity; seeds occupy the
    /// **last** `seeds` indices.
    ///
    /// # Panics
    ///
    /// Panics if `upload_kbps.len() != leechers + seeds` or any capacity is
    /// non-positive.
    #[must_use]
    pub fn new(config: SwarmConfig, upload_kbps: &[f64]) -> Self {
        let behaviors = vec![PeerBehavior::Compliant; config.leechers + config.seeds];
        Self::with_behaviors(config, upload_kbps, &behaviors)
    }

    /// Builds a swarm with an explicit per-peer [`PeerBehavior`] mix (see
    /// the `behavior` module docs). [`Swarm::new`] is the all-compliant
    /// special case and behaves identically to it.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Swarm::new`], or if
    /// `behaviors.len()` disagrees with the peer count.
    #[must_use]
    pub fn with_behaviors(
        config: SwarmConfig,
        upload_kbps: &[f64],
        behaviors: &[PeerBehavior],
    ) -> Self {
        let n = config.leechers + config.seeds;
        assert_eq!(upload_kbps.len(), n, "need one upload capacity per peer");
        assert_eq!(behaviors.len(), n, "need one behavior per peer");
        assert!(
            upload_kbps.iter().all(|&u| u.is_finite() && u > 0.0),
            "upload capacities must be positive"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

        // Tracker overlay: Erdős–Rényi with the requested expected degree
        // (identical RNG consumption to the reference construction). Rows
        // start exactly full (capacity = degree); sessions add slack via
        // `reserve_overlay_slack` before mutating membership.
        let overlay = generators::erdos_renyi_mean_degree(n, config.mean_neighbors, &mut rng);
        let mut row_off = Vec::with_capacity(n + 1);
        row_off.push(0usize);
        let mut nbr: Vec<u32> = Vec::new();
        for p in 0..n {
            for v in overlay.neighbors(NodeId::new(p)) {
                nbr.push(v.index() as u32);
            }
            row_off.push(nbr.len());
        }
        let deg: Vec<u32> = (0..n)
            .map(|p| (row_off[p + 1] - row_off[p]) as u32)
            .collect();
        // Reverse-edge index: slot of (q → p) for every slot (p → q), built
        // with one counting-sort cursor pass instead of a hash map (the
        // construction bottleneck at n ≫ 10⁵). Overlay rows ascend by
        // neighbour id, so for a fixed target q the slots (p → q) are
        // visited (outer loop p ascending) in exactly the order of q's own
        // row — the k-th visit of target q is the reverse of q's k-th slot.
        let mut rev = vec![0u32; nbr.len()];
        let mut cursor: Vec<usize> = row_off[..n].to_vec();
        for p in 0..n {
            for e in row_off[p]..row_off[p + 1] {
                let q = nbr[e] as usize;
                rev[e] = cursor[q] as u32;
                cursor[q] += 1;
            }
        }
        debug_assert!((0..nbr.len()).all(|e| rev[rev[e] as usize] as usize == e));

        // Piece initialization draws in peer order, exactly like the
        // reference engine, counting availability as it goes.
        let mut pieces = PieceArena::new(config.piece_count, n);
        let mut availability = vec![0u32; config.piece_count];
        for p in 0..n {
            if p >= config.leechers {
                pieces.fill(p);
                availability.iter_mut().for_each(|a| *a += 1);
            } else {
                let mut row = pieces.row_mut(p);
                for (i, a) in availability.iter_mut().enumerate() {
                    if rng.gen_bool(config.initial_completion) {
                        row.insert(i);
                        *a += 1;
                    }
                }
            }
        }
        // A leecher may complete by lucky initialization.
        let completed_round: Vec<Option<u64>> = (0..n)
            .map(|p| (p < config.leechers && pieces.is_complete(p)).then_some(0))
            .collect();
        let completed_total = completed_round.iter().filter(|c| c.is_some()).count();
        let seeding_now = (0..n).filter(|&p| pieces.is_complete(p)).count();
        let downloading_now = n - seeding_now;

        let edges = nbr.len();
        let stride = config.tft_slots;
        Self {
            rng,
            row_off,
            deg,
            nbr,
            rev,
            upload_kbps: upload_kbps.to_vec(),
            behavior: behaviors.to_vec(),
            pieces,
            completed_round,
            original_seed: (0..n).map(|p| p >= config.leechers).collect(),
            present: vec![true; n],
            free: Vec::new(),
            live_bound: n,
            stream_id: (0..n as u32).collect(),
            reuse_stack: Vec::new(),
            present_slots: (0..n as u32).collect(),
            slot_pos: (0..n as u32).collect(),
            generation: vec![0; n],
            gen_floor: 0,
            stream_ordered: true,
            logical_len: n as u64,
            grow_row_cap: (config.mean_neighbors.ceil() as usize)
                .saturating_mul(2)
                .max(4),
            total_up: vec![0.0; n],
            total_down: vec![0.0; n],
            tft_up: vec![0.0; n],
            tft_down: vec![0.0; n],
            received_prev: vec![0.0; edges],
            received_curr: vec![0.0; edges],
            credit: vec![0.0; edges],
            tft_store: vec![0; n * stride],
            tft_len: vec![0; n],
            optimistic: vec![NO_OPT; n],
            avail: AvailIndex::from_counts(availability),
            round: 0,
            downloading_now,
            seeding_now,
            completed_total,
            loss_prob: 0.0,
            loss_seed: 0,
            lost_deliveries: 0,
            lost_kbit_by_peer: vec![0.0; n],
            lost_kbit_departed: 0.0,
            scratch: Scratch::default(),
            par: ParBuffers::default(),
            config,
        }
    }

    /// Arms per-delivery transfer loss: every delivery is independently
    /// dropped with probability `prob`, drawn from the fault stream
    /// family of `fault_seed` keyed by `(round, recipient edge slot)` —
    /// identical schedules for the serial and parallel engines at any
    /// thread count. The sender still spends its upload capacity; the
    /// recipient receives no rate, credit or pieces. `prob = 0` disables
    /// the hook (the default; zero overhead).
    ///
    /// # Panics
    ///
    /// Panics unless `prob` is a finite probability in `[0, 1]`.
    pub fn set_transfer_loss(&mut self, prob: f64, fault_seed: u64) {
        assert!(
            prob.is_finite() && (0.0..=1.0).contains(&prob),
            "loss probability must be in [0, 1], got {prob}"
        );
        self.loss_prob = prob;
        self.loss_seed = fault_seed;
    }

    /// Number of deliveries dropped by transfer loss so far.
    #[must_use]
    pub fn lost_deliveries(&self) -> u64 {
        self.lost_deliveries
    }

    /// Total kbit dropped by transfer loss so far (upload capacity spent
    /// by senders that never reached a recipient). Summed over the
    /// per-recipient accumulators in peer order, so the value is
    /// thread-count independent.
    #[must_use]
    pub fn lost_kbit(&self) -> f64 {
        self.lost_kbit_departed + self.lost_kbit_by_peer.iter().sum::<f64>()
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SwarmConfig {
        &self.config
    }

    /// Number of arena slots (present peers plus free-listed departed
    /// slots; equal to the peer count on closed swarms).
    #[must_use]
    pub fn peer_count(&self) -> usize {
        self.upload_kbps.len()
    }

    /// Whether arena slot `p` currently hosts a present peer.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn is_present(&self, p: PeerId) -> bool {
        self.present[p]
    }

    /// Read access to peer `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn peer(&self, p: PeerId) -> Peer<'_> {
        assert!(p < self.peer_count(), "peer {p} out of range");
        Peer { swarm: self, id: p }
    }

    /// Overlay neighbours of `p`, in adjacency order.
    pub fn neighbors(&self, p: PeerId) -> impl ExactSizeIterator<Item = PeerId> + '_ {
        self.nbr[self.row_off[p]..self.row_off[p] + self.deg[p] as usize]
            .iter()
            .map(|&q| q as PeerId)
    }

    /// Live overlay degree of `p`.
    #[must_use]
    pub fn degree(&self, p: PeerId) -> usize {
        self.deg[p] as usize
    }

    /// Allocated overlay-row capacity of `p` (an edge can only be added
    /// while the live degree is below it).
    #[must_use]
    pub fn row_capacity(&self, p: PeerId) -> usize {
        self.row_off[p + 1] - self.row_off[p]
    }

    /// Rounds simulated so far.
    #[must_use]
    pub fn round_count(&self) -> u64 {
        self.round
    }

    /// Global availability (present-holder count) per piece.
    #[must_use]
    pub fn availability(&self) -> &[u32] {
        self.avail.counts()
    }

    /// The present-population split (downloading vs seeding peers),
    /// tracked incrementally across transfers, arrivals and departures.
    #[must_use]
    pub fn population(&self) -> Population {
        Population {
            downloading: self.downloading_now,
            seeding: self.seeding_now,
        }
    }

    /// Cumulative number of download completions: every peer that entered
    /// incomplete and finished the file, **including** peers that have
    /// since departed.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.completed_total
    }

    /// The peers `p` is currently TFT-unchoking.
    #[must_use]
    pub fn tft_unchoked(&self, p: PeerId) -> Vec<PeerId> {
        let stride = self.config.tft_slots;
        let base = self.row_off[p];
        self.tft_store[p * stride..p * stride + self.tft_len[p] as usize]
            .iter()
            .map(|&k| self.nbr[base + k as usize] as PeerId)
            .collect()
    }

    /// The peer `p` is currently optimistically unchoking, if any.
    #[must_use]
    pub fn optimistic_unchoked(&self, p: PeerId) -> Option<PeerId> {
        let k = self.optimistic[p];
        (k != NO_OPT).then(|| self.nbr[self.row_off[p] + k as usize] as PeerId)
    }

    /// Moves `c` completed downloads into the seeding split and the
    /// cumulative completion count.
    fn count_completions(&mut self, c: usize) {
        self.completed_total += c;
        self.downloading_now -= c;
        self.seeding_now += c;
    }

    // ------------------------------------------------------------------
    // Continuous-time hooks (driven by `crate::events`).
    //
    // The event engine owns its own per-edge rate/credit/window arrays
    // and the event clock; the swarm contributes the overlay arena, the
    // shared choke policy and the piece/availability/total bookkeeping.
    // None of the round-engine per-edge state (`received_*`, `credit`)
    // is touched through these hooks, so an event-driven swarm can still
    // be inspected with every public accessor.
    // ------------------------------------------------------------------

    /// Live piece availability index (the event engine snapshots it at
    /// rechoke-tick boundaries, mirroring `avail_prev` of the indexed
    /// round).
    pub(crate) fn avail_index(&self) -> &AvailIndex {
        &self.avail
    }

    /// Total edge-arena length (the event engine sizes its row-aligned
    /// per-edge arrays to this).
    pub(crate) fn edge_arena_len(&self) -> usize {
        self.nbr.len()
    }

    /// Live extent `[start, end)` of peer `p`'s overlay row.
    pub(crate) fn row_bounds(&self, p: PeerId) -> (usize, usize) {
        let b = self.row_off[p];
        (b, b + self.deg[p] as usize)
    }

    /// Neighbour pointed at by global edge slot `e`.
    pub(crate) fn edge_target(&self, e: usize) -> PeerId {
        self.nbr[e] as usize
    }

    /// Global slot of the reverse edge of `e`.
    pub(crate) fn edge_rev(&self, e: usize) -> usize {
        self.rev[e] as usize
    }

    /// The live piece arena (the event core snapshots rows of it at
    /// each peer's rechoke).
    pub(crate) fn piece_arena(&self) -> &PieceArena {
        &self.pieces
    }

    /// Deposits settled upload credit on the sender side (the event-clock
    /// analogue of the pass-1 `up_c[li] += share` accounting).
    pub(crate) fn event_deposit_up(&mut self, p: PeerId, kbit: f64, is_tft: bool) {
        self.total_up[p] += kbit;
        if is_tft {
            self.tft_up[p] += kbit;
        }
    }

    /// Deposits settled download credit on the recipient side — one add
    /// per edge per tick in ascending slot order, reproducing the
    /// recipient-major delivery's accumulation order bit-for-bit in the
    /// synchronous limit.
    pub(crate) fn event_deposit_down(&mut self, q: PeerId, kbit: f64, tft_kbit: f64) {
        self.total_down[q] += kbit;
        if tft_kbit != 0.0 {
            self.tft_down[q] += tft_kbit;
        }
    }

    /// The event core's piece landing on edge credit `credit` into `q`:
    /// [`land_pieces`] ranked by the availability `snapshot`, picking from
    /// the sender's rechoke-time piece snapshot row `sender`, recording into
    /// the live availability and counting a completion stamped `stamp`.
    /// Returns whether `q` completed.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn land_event_pieces<O: RunObserver>(
        &mut self,
        q: PeerId,
        credit: &mut f64,
        threshold: f64,
        snapshot: &AvailIndex,
        sender: &[u64],
        stamp: u64,
        picks: &mut Vec<u64>,
        obs: &O,
        tau: f64,
    ) -> bool {
        let Swarm {
            ref config,
            ref mut pieces,
            ref mut completed_round,
            ref mut avail,
            ..
        } = *self;
        let completed = land_pieces(
            credit,
            config.piece_size_kbit,
            threshold,
            &mut (snapshot, avail),
            pieces.row_mut(q),
            sender,
            &mut completed_round[q],
            stamp,
            picks,
            obs,
            tau,
            q,
        );
        if completed {
            self.count_completions(1);
        }
        completed
    }
}
