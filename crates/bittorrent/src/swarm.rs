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
//! arrays, and unchoke sets live in a fixed-stride arena. A persistent
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

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use strat_graph::{generators, NodeId};
use strat_par::split_lengths;

use crate::avail::{AvailIndex, AvailShard};
use crate::observer::{NullObserver, RunObserver};
use crate::{PeerBehavior, PieceSet, SwarmConfig};

/// Index of a peer inside a [`Swarm`] (an arena slot; the session layer
/// pairs it with the slot's generation tag).
pub type PeerId = usize;

/// Sentinel for "no optimistic unchoke" in the flat optimistic array.
pub(crate) const NO_OPT: u32 = u32::MAX;

/// Present-list position of an absent slot.
const ABSENT: u32 = u32::MAX;

/// One independent ChaCha stream per `(round, peer)` pair: the randomness
/// source of the indexed-round semantics. The stream id packs the round in
/// the high 32 bits and the peer index in the low 32 (both comfortably
/// below 2³² — a 10 s round cadence would take 1 300 years to wrap), and
/// the key is derived from the swarm seed XOR a domain separator so the
/// streams never collide with the shared serial stream.
pub(crate) fn peer_round_rng(seed: u64, round: u64, peer: usize) -> ChaCha8Rng {
    debug_assert!(peer < u32::MAX as usize, "peer index exceeds stream space");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7061_7261_6c6c_656c); // "parallel"
    rng.set_stream((round << 32) | peer as u64);
    rng
}

/// The present-population split of a swarm: peers still downloading vs
/// peers holding the complete file (original seeds and promoted
/// leechers). Maintained incrementally — reading it never rescans piece
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

    /// The pieces currently held.
    #[must_use]
    pub fn pieces(&self) -> &'a PieceSet {
        &self.swarm.pieces[self.id]
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

/// Working state of the parallel round driver — the scatter-write flow
/// mailbox, the start-of-round piece/availability snapshots, per-worker
/// scratches, availability shards and completion counters. Persisted on
/// the [`Swarm`] (like [`Scratch`]) so repeated
/// [`Swarm::run_rounds_parallel`] calls — the sampling pattern of the
/// flash-crowd and session kernels — allocate nothing in the steady
/// state.
///
/// `flow` is one edge-arena-aligned slot per edge, holding an `f64` as
/// bits with the sign carrying the TFT flag (`+share` = TFT flow,
/// `-share` = optimistic, `0` = no flow; shares are strictly positive).
/// Pass 1 *scatters* each sender's share into the reverse-edge slot —
/// every slot has exactly one writing owner, so relaxed stores suffice
/// and the scope join publishes them — and pass 2 then reads each
/// recipient's incoming flows **contiguously** and zeroes the slot,
/// replacing the previous gather of `flow[rev[e]]` (two random reads
/// into multi-megabyte arrays per edge, the dominant cost of the
/// delivery pass at n = 10⁵⁺). Invariant: outside a running parallel
/// round every slot is zero — pass 2 zeroes all it reads, slack slots
/// are never written, and the membership primitives only ever move
/// zeroed slots — so no per-round reset sweep is needed.
#[derive(Debug, Default)]
struct ParBuffers {
    flow: Vec<AtomicU64>,
    pieces_prev: Vec<PieceSet>,
    avail_prev: AvailIndex,
    scratches: Vec<Scratch>,
    shards: Vec<AvailShard>,
    completions: Vec<usize>,
    lost: Vec<u64>,
}

/// Scratch state: cloning a [`Swarm`] starts the copy with fresh buffers
/// (rebuilt on first parallel round; the all-zero `flow` invariant holds
/// vacuously).
impl Clone for ParBuffers {
    fn clone(&self) -> Self {
        Self::default()
    }
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
    pieces: Vec<PieceSet>,
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
        // reference engine.
        let mut pieces = Vec::with_capacity(n);
        for p in 0..n {
            if p >= config.leechers {
                pieces.push(PieceSet::full(config.piece_count));
            } else {
                let mut set = PieceSet::new(config.piece_count);
                for i in 0..config.piece_count {
                    if rng.gen_bool(config.initial_completion) {
                        set.insert(i);
                    }
                }
                pieces.push(set);
            }
        }
        // A leecher may complete by lucky initialization.
        let completed_round: Vec<Option<u64>> = (0..n)
            .map(|p| (p < config.leechers && pieces[p].is_complete()).then_some(0))
            .collect();
        let completed_total = completed_round.iter().filter(|c| c.is_some()).count();
        let seeding_now = pieces.iter().filter(|set| set.is_complete()).count();
        let downloading_now = n - seeding_now;

        let mut availability = vec![0u32; config.piece_count];
        for set in &pieces {
            for (i, a) in availability.iter_mut().enumerate() {
                *a += u32::from(set.contains(i));
            }
        }

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
    /// since departed. Equals [`Swarm::completed_count`] on closed swarms.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.completed_total
    }

    /// Number of leechers that completed the file (cumulative; see
    /// [`Swarm::completed`], which this forwards to).
    #[must_use]
    pub fn completed_count(&self) -> usize {
        self.completed()
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

    /// Simulates one round (rechoke, then transfer) under the serial
    /// semantics — bit-identical to
    /// [`reference::RefSwarm::round`](crate::reference::RefSwarm::round).
    pub fn round(&mut self) {
        self.round_with(&NullObserver);
    }

    /// [`round`](Self::round) with a [`RunObserver`] tap. The observer is
    /// a pure `&self` tap — attaching one changes no swarm state and
    /// consumes no randomness; a disabled observer (`O::ENABLED = false`,
    /// e.g. [`NullObserver`]) compiles every hook away.
    pub fn round_with<O: RunObserver>(&mut self, obs: &O) {
        self.received_curr.fill(0.0);
        self.rechoke(obs);
        self.transfer(obs);
        if O::ENABLED {
            obs.round_end(self.round);
        }
        self.round += 1;
        std::mem::swap(&mut self.received_prev, &mut self.received_curr);
    }

    /// Runs `rounds` serial rounds.
    ///
    /// # Examples
    ///
    /// ```
    /// use strat_bittorrent::{Swarm, SwarmConfig};
    ///
    /// let config = SwarmConfig::builder()
    ///     .leechers(20)
    ///     .seeds(1)
    ///     .piece_count(32)
    ///     .piece_size_kbit(100.0)
    ///     .seed(7)
    ///     .build();
    /// let mut swarm = Swarm::new(config, &vec![500.0; 21]);
    /// swarm.run_rounds(30);
    /// assert_eq!(swarm.round_count(), 30);
    /// // Same seed, same history: the engine is deterministic.
    /// assert!(swarm.peer(0).total_downloaded() > 0.0);
    /// ```
    pub fn run_rounds(&mut self, rounds: u64) {
        self.run_rounds_with(rounds, &NullObserver);
    }

    /// [`run_rounds`](Self::run_rounds) with a [`RunObserver`] tap.
    pub fn run_rounds_with<O: RunObserver>(&mut self, rounds: u64, obs: &O) {
        for _ in 0..rounds {
            self.round_with(obs);
        }
    }

    /// Runs `rounds` rounds under the **indexed-stream** semantics across
    /// up to `threads` worker threads.
    ///
    /// Per-peer randomness derives from `(seed, round, peer index)` and
    /// every phase writes only peer-owned state, so the outcome is
    /// **bit-identical for any thread count** (including 1) — the
    /// workspace `strat-par` determinism contract. The semantics differ
    /// from [`Swarm::round`] only in the randomness source and in reading
    /// piece/availability state from the start-of-round snapshot (see
    /// [`reference::RefSwarm::round_indexed`](crate::reference::RefSwarm::round_indexed),
    /// the serial oracle this method is differentially tested against).
    ///
    /// Round structure: a parallel rechoke-and-flows pass over senders
    /// (which also refreshes the per-peer flags and piece snapshot
    /// chunk-locally and scatters flows into recipient-row mailboxes),
    /// then a parallel delivery pass over recipients draining those
    /// mailboxes contiguously, then an `O(touched pieces)` sharded
    /// availability merge in worker order.
    pub fn run_rounds_parallel(&mut self, rounds: u64, threads: usize) {
        self.run_rounds_parallel_observed(rounds, threads, &NullObserver);
    }

    /// [`run_rounds_parallel`](Self::run_rounds_parallel) with a
    /// [`RunObserver`] tap shared by all workers. Event *aggregates* are
    /// thread-invariant (see [`crate::observer`] for the ordering
    /// contract); the swarm state itself stays bit-identical for any
    /// thread count and any observer. A disabled observer dispatches to
    /// the crate's own instantiation: compiled inside an out-of-crate
    /// caller instead, the flash-crowd round spends about 10% more CPU.
    pub fn run_rounds_parallel_with<O: RunObserver>(
        &mut self,
        rounds: u64,
        threads: usize,
        obs: &O,
    ) {
        if !O::ENABLED {
            return self.run_rounds_parallel(rounds, threads);
        }
        self.run_rounds_parallel_observed(rounds, threads, obs);
    }

    /// The parallel-round body behind both entry points.
    fn run_rounds_parallel_observed<O: RunObserver>(
        &mut self,
        rounds: u64,
        threads: usize,
        obs: &O,
    ) {
        let n = self.peer_count();
        if rounds == 0 || n == 0 {
            return;
        }
        // Workers partition the live prefix only: dead slots past
        // `live_bound` have no edges, draw nothing and write nothing, so
        // skipping them changes no observable state.
        let lb = self.live_bound;
        let threads = threads.max(1);
        let fluid = self.config.fluid_content;
        let piece_count = self.config.piece_count;
        let ranges: Vec<Range<usize>> = strat_par::chunk_ranges(lb as u64, threads)
            .into_iter()
            .map(|r| r.start as usize..r.end as usize)
            .collect();
        let workers = ranges.len();
        // Persistent buffers: sized on first use, reused by every round of
        // every later call (worker-count changes only resize the per-worker
        // vectors). The flow mailbox is rebuilt whenever the edge arena
        // was re-laid-out — a fresh mailbox is all-zero, which is exactly
        // the between-rounds invariant.
        let mut par = std::mem::take(&mut self.par);
        if par.flow.len() != self.nbr.len() {
            par.flow = zeroed_mailbox(self.nbr.len());
        }
        par.shards.resize_with(workers, AvailShard::default);
        par.completions.resize(workers, 0);
        par.lost.resize(workers, 0);
        if !fluid {
            if par.pieces_prev.len() != n {
                par.pieces_prev = self.pieces.clone();
            }
            for shard in &mut par.shards {
                shard.reset(piece_count);
            }
        }
        par.scratches.resize_with(workers, Scratch::default);

        for _ in 0..rounds {
            if !fluid {
                par.avail_prev.clone_from(&self.avail);
            }
            self.par_rechoke_and_flows(
                &ranges,
                &mut par.scratches,
                if fluid { &mut [] } else { &mut par.pieces_prev },
                &par.flow,
                obs,
            );
            self.par_delivery(
                &ranges,
                &par.flow,
                &par.pieces_prev,
                &par.avail_prev,
                &mut par.shards,
                &mut par.completions,
                &mut par.lost,
                &mut par.scratches,
                obs,
            );
            for l in &mut par.lost {
                self.lost_deliveries += *l;
                *l = 0;
            }
            if !fluid {
                for shard in &mut par.shards {
                    self.avail.merge_shard(shard);
                }
                for c in &mut par.completions {
                    self.count_completions(std::mem::take(c));
                }
            }
            if O::ENABLED {
                obs.round_end(self.round);
            }
            self.round += 1;
            // No reset sweep: slack slots and departed rows are zero in
            // both arrays (membership ops maintain that), and the next
            // round's pass 2 *stores* into every live slot of present
            // rows, so the stale receipts left in the new current array
            // are never read.
            std::mem::swap(&mut self.received_prev, &mut self.received_curr);
        }
        self.par = par;
    }

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

    /// The serial rechoke phase: [`Swarm::rechoke_peer`] for every live
    /// slot in slot order, drawing from the shared stream and ranking by
    /// last round's receipts.
    fn rechoke<O: RunObserver>(&mut self, obs: &O) {
        // `rechoke_peer` borrows the whole swarm, so the stream and the
        // rate row leave it for the phase.
        let mut rng = self.rng.clone();
        let received_prev = std::mem::take(&mut self.received_prev);
        let rotate_optimistic = self
            .round
            .is_multiple_of(u64::from(self.config.optimistic_period));
        let t = self.round as f64;
        for p in 0..self.live_bound {
            self.rechoke_peer(p, &mut rng, rotate_optimistic, &received_prev, t, obs);
        }
        self.received_prev = received_prev;
        self.rng = rng;
    }

    /// Rechokes peer `p` on the whole arena — the serial round's and the
    /// event core's call of [`RechokeView::rechoke`], with the caller's
    /// stream and rate signal (`rate` is indexed by global edge slot).
    /// Returns `p`'s transfer targets.
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

    fn transfer<O: RunObserver>(&mut self, obs: &O) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let stride = self.config.tft_slots;
        let fluid = self.config.fluid_content;
        let round_seconds = self.config.round_seconds;
        for p in 0..self.live_bound {
            // Live checks, unlike the rechoke phase: pieces land during
            // this phase, so a peer that completed earlier in it may stop
            // uploading (when `seed_after_completion` is off) and a target
            // may lose interest, exactly like the reference engine.
            let (pieces, original_seed) = (&self.pieces, &self.original_seed);
            if !uploads_at(
                &self.config,
                &self.present,
                &self.behavior,
                pieces,
                original_seed,
                p,
            ) {
                continue;
            }
            let base = self.row_off[p];
            unchoke_targets(
                &self.tft_store[p * stride..][..self.tft_len[p] as usize],
                self.optimistic[p],
                &mut scratch.targets,
            );
            let nbr = &self.nbr[base..];
            scratch.targets.retain(|&(k, _)| {
                interested_at(fluid, original_seed, pieces, nbr[k as usize] as usize, p)
            });
            if scratch.targets.is_empty() {
                continue;
            }
            let share = self.upload_kbps[p] * round_seconds / scratch.targets.len() as f64;
            for &(k, is_tft) in &scratch.targets {
                self.deliver(p, base + k as usize, share, is_tft, &mut scratch.picks, obs);
            }
        }
        self.scratch = scratch;
    }

    /// Delivers `kbit` from `p` along its edge slot `e`, landing whole
    /// pieces of credit against the live availability.
    fn deliver<O: RunObserver>(
        &mut self,
        p: PeerId,
        e: usize,
        kbit: f64,
        is_tft: bool,
        picks: &mut Vec<u64>,
        obs: &O,
    ) {
        let q = self.nbr[e] as usize;
        let er = self.rev[e] as usize;
        let t = self.round as f64;
        if self.loss_prob > 0.0
            && crate::faults::loss_drawn(self.loss_seed, self.round, er, self.loss_prob)
        {
            // Lost in transit: the sender spends the capacity, the
            // recipient sees nothing (no rate signal, credit or pieces).
            self.total_up[p] += kbit;
            if is_tft {
                self.tft_up[p] += kbit;
            }
            self.lost_deliveries += 1;
            self.lost_kbit_by_peer[q] += kbit;
            if O::ENABLED {
                obs.transfer_lost(t, p, q, kbit);
            }
            return;
        }
        self.total_up[p] += kbit;
        self.total_down[q] += kbit;
        if is_tft {
            self.tft_up[p] += kbit;
            self.tft_down[q] += kbit;
        }
        self.received_curr[er] += kbit;
        if O::ENABLED {
            obs.transfer(t, p, q, kbit, is_tft);
        }
        if self.config.fluid_content {
            return; // rates only; no piece bookkeeping in fluid mode
        }
        self.credit[er] += kbit;
        let Swarm {
            ref config,
            ref mut pieces,
            ref mut completed_round,
            ref mut avail,
            ref mut credit,
            round,
            ..
        } = *self;
        let [recipient, sender] = pieces
            .get_disjoint_mut([q, p])
            .expect("an edge joins two distinct peers");
        let piece_size = config.piece_size_kbit;
        if land_pieces(
            &mut credit[er],
            piece_size,
            piece_size,
            avail,
            recipient,
            sender,
            &mut completed_round[q],
            round + 1,
            picks,
            obs,
            t,
            q,
        ) {
            self.count_completions(1);
            if O::ENABLED {
                obs.completed((round + 1) as f64, q);
            }
        }
    }

    /// Moves `c` completed downloads into the seeding split and the
    /// cumulative completion count.
    fn count_completions(&mut self, c: usize) {
        self.completed_total += c;
        self.downloading_now -= c;
        self.seeding_now += c;
    }

    /// Parallel pass 1: rechoke decisions plus outgoing flow computation.
    /// Every write lands in sender-owned rows (unchoke arena, upload
    /// totals, the sender's own `pieces_prev` snapshot chunk) or in the
    /// sender's uniquely-owned reverse-edge flow slots, so peers
    /// partition freely across workers. Folds the piece-snapshot copy
    /// into the workers (pieces are frozen for the whole pass, so
    /// chunk-local evaluation sees exactly the start-of-round state).
    fn par_rechoke_and_flows<O: RunObserver>(
        &mut self,
        ranges: &[Range<usize>],
        scratches: &mut [Scratch],
        pieces_prev: &mut [PieceSet],
        flow: &[AtomicU64],
        obs: &O,
    ) {
        let Swarm {
            ref config,
            ref row_off,
            ref deg,
            ref nbr,
            ref rev,
            ref upload_kbps,
            ref behavior,
            ref pieces,
            ref original_seed,
            ref present,
            ref stream_id,
            ref received_prev,
            ref mut tft_store,
            ref mut tft_len,
            ref mut optimistic,
            ref mut total_up,
            ref mut tft_up,
            round,
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
        let rotate_optimistic = round.is_multiple_of(u64::from(config.optimistic_period));

        let peer_sizes: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
        let tft_sizes: Vec<usize> = peer_sizes.iter().map(|l| l * stride).collect();

        let tft_store_parts = split_lengths(tft_store, &tft_sizes);
        let tft_len_parts = split_lengths(tft_len, &peer_sizes);
        let opt_parts = split_lengths(optimistic, &peer_sizes);
        let up_parts = split_lengths(total_up, &peer_sizes);
        let tftup_parts = split_lengths(tft_up, &peer_sizes);
        // Fluid mode keeps no piece snapshot; hand every worker an empty
        // chunk.
        let pp_parts: Vec<&mut [PieceSet]> = if pieces_prev.is_empty() {
            ranges.iter().map(|_| Default::default()).collect()
        } else {
            split_lengths(pieces_prev, &peer_sizes)
        };

        std::thread::scope(|scope| {
            let mut tft_store_parts = tft_store_parts.into_iter();
            let mut tft_len_parts = tft_len_parts.into_iter();
            let mut opt_parts = opt_parts.into_iter();
            let mut up_parts = up_parts.into_iter();
            let mut tftup_parts = tftup_parts.into_iter();
            let mut pp_parts = pp_parts.into_iter();
            let mut scratch_parts = scratches.iter_mut();
            for range in ranges {
                let range = range.clone();
                let tft_store_c = tft_store_parts.next().expect("one part per range");
                let tft_len_c = tft_len_parts.next().expect("one part per range");
                let opt_c = opt_parts.next().expect("one part per range");
                let up_c = up_parts.next().expect("one part per range");
                let tftup_c = tftup_parts.next().expect("one part per range");
                let pp_c = pp_parts.next().expect("one part per range");
                let scratch = scratch_parts.next().expect("one scratch per range");
                run_or_spawn(scope, ranges.len() == 1, move || {
                    let snap = !pp_c.is_empty();
                    for p in range.clone() {
                        let li = p - range.start;
                        if snap {
                            pp_c[li].copy_bits_from(&pieces[p]);
                        }
                        let mut rng = peer_round_rng(config.seed, round, stream_id[p] as usize);
                        view.rechoke(
                            p,
                            &mut rng,
                            rotate_optimistic,
                            received_prev,
                            scratch,
                            &mut tft_store_c[li * stride..(li + 1) * stride],
                            &mut tft_len_c[li],
                            &mut opt_c[li],
                            obs,
                            round as f64,
                        );
                        if scratch.targets.is_empty() {
                            continue;
                        }
                        let eb = row_off[p];
                        let share =
                            upload_kbps[p] * config.round_seconds / scratch.targets.len() as f64;
                        for &(k, is_tft) in &scratch.targets {
                            // Scatter into the recipient's row: the
                            // reverse-edge slot has exactly one writer (this
                            // sender), so a relaxed store is race-free and
                            // the scope join publishes it to pass 2.
                            let mailbox = rev[eb + k as usize] as usize;
                            let signed = if is_tft { share } else { -share };
                            flow[mailbox].store(signed.to_bits(), Ordering::Relaxed);
                            up_c[li] += share;
                            if is_tft {
                                tftup_c[li] += share;
                            }
                        }
                    }
                });
            }
        });
    }

    /// Parallel pass 2: recipient-major delivery. Each recipient drains
    /// its incoming flows — read **contiguously** out of its own row of
    /// the flow mailbox (pass 1 scattered them there) and zeroed behind
    /// the read, restoring the all-zero invariant — in ascending
    /// neighbour-slot order, converting credit into rarest-first picks
    /// against the start-of-round piece / availability snapshot;
    /// availability increments accumulate into per-worker shards and
    /// completion counts into per-worker counters, merged serially
    /// afterwards.
    #[allow(clippy::too_many_arguments)] // one slot per worker-owned buffer
    fn par_delivery<O: RunObserver>(
        &mut self,
        ranges: &[Range<usize>],
        flow: &[AtomicU64],
        pieces_prev: &[PieceSet],
        avail_prev: &AvailIndex,
        shards: &mut [AvailShard],
        completions: &mut [usize],
        lost: &mut [u64],
        scratches: &mut [Scratch],
        obs: &O,
    ) {
        let Swarm {
            ref config,
            ref row_off,
            ref deg,
            ref nbr,
            ref mut pieces,
            ref mut completed_round,
            ref mut total_down,
            ref mut tft_down,
            ref mut received_curr,
            ref mut credit,
            ref mut lost_kbit_by_peer,
            loss_prob,
            loss_seed,
            round,
            ..
        } = *self;
        let fluid = config.fluid_content;
        let piece_size = config.piece_size_kbit;

        let peer_sizes: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
        let edge_sizes: Vec<usize> = ranges
            .iter()
            .map(|r| row_off[r.end] - row_off[r.start])
            .collect();

        let pieces_parts = split_lengths(pieces, &peer_sizes);
        let completed_parts = split_lengths(completed_round, &peer_sizes);
        let down_parts = split_lengths(total_down, &peer_sizes);
        let tftdown_parts = split_lengths(tft_down, &peer_sizes);
        let rc_parts = split_lengths(received_curr, &edge_sizes);
        let credit_parts = split_lengths(credit, &edge_sizes);
        let lostk_parts = split_lengths(lost_kbit_by_peer, &peer_sizes);

        std::thread::scope(|scope| {
            let mut pieces_parts = pieces_parts.into_iter();
            let mut completed_parts = completed_parts.into_iter();
            let mut down_parts = down_parts.into_iter();
            let mut tftdown_parts = tftdown_parts.into_iter();
            let mut rc_parts = rc_parts.into_iter();
            let mut credit_parts = credit_parts.into_iter();
            let mut lostk_parts = lostk_parts.into_iter();
            let mut shard_parts = shards.iter_mut();
            let mut comp_parts = completions.iter_mut();
            let mut lost_parts = lost.iter_mut();
            let mut scratch_parts = scratches.iter_mut();
            for range in ranges {
                let range = range.clone();
                let pieces_c = pieces_parts.next().expect("one part per range");
                let completed_c = completed_parts.next().expect("one part per range");
                let down_c = down_parts.next().expect("one part per range");
                let tftdown_c = tftdown_parts.next().expect("one part per range");
                let rc_c = rc_parts.next().expect("one part per range");
                let credit_c = credit_parts.next().expect("one part per range");
                let lostk_c = lostk_parts.next().expect("one part per range");
                let shard = shard_parts.next().expect("one shard per range");
                let comp = comp_parts.next().expect("one counter per range");
                let lost_n = lost_parts.next().expect("one counter per range");
                let scratch = scratch_parts.next().expect("one scratch per range");
                run_or_spawn(scope, ranges.len() == 1, move || {
                    let edge_base = row_off[range.start];
                    for q in range.clone() {
                        let li = q - range.start;
                        let eb = row_off[q];
                        let ee = eb + deg[q] as usize;
                        for e in eb..ee {
                            let bits = flow[e].load(Ordering::Relaxed);
                            if bits == 0 {
                                // Store semantics: every live slot is
                                // visited exactly once per round, so the
                                // rate window needs no serial reset sweep.
                                rc_c[e - edge_base] = 0.0;
                                continue;
                            }
                            // Restore the all-zero mailbox invariant; the
                            // sign carried the TFT flag, `abs` recovers the
                            // exact share bits pass 1 computed.
                            flow[e].store(0, Ordering::Relaxed);
                            let signed = f64::from_bits(bits);
                            let is_tft = signed > 0.0;
                            let f = signed.abs();
                            if loss_prob > 0.0
                                && crate::faults::loss_drawn(loss_seed, round, e, loss_prob)
                            {
                                // Lost in transit: the sender's pass-1
                                // capacity accounting stands, the
                                // recipient records nothing.
                                *lost_n += 1;
                                lostk_c[li] += f;
                                rc_c[e - edge_base] = 0.0;
                                if O::ENABLED {
                                    obs.transfer_lost(round as f64, nbr[e] as usize, q, f);
                                }
                                continue;
                            }
                            down_c[li] += f;
                            if is_tft {
                                tftdown_c[li] += f;
                            }
                            rc_c[e - edge_base] = f;
                            if O::ENABLED {
                                obs.transfer(round as f64, nbr[e] as usize, q, f, is_tft);
                            }
                            if fluid {
                                continue;
                            }
                            let cr = &mut credit_c[e - edge_base];
                            *cr += f;
                            if land_pieces(
                                cr,
                                piece_size,
                                piece_size,
                                &mut (avail_prev, &mut *shard),
                                &mut pieces_c[li],
                                &pieces_prev[nbr[e] as usize],
                                &mut completed_c[li],
                                round + 1,
                                &mut scratch.picks,
                                obs,
                                round as f64,
                                q,
                            ) {
                                *comp += 1;
                                if O::ENABLED {
                                    obs.completed((round + 1) as f64, q);
                                }
                            }
                        }
                    }
                });
            }
        });
    }

    // ------------------------------------------------------------------
    // Open-membership primitives (driven by `crate::session`).
    // ------------------------------------------------------------------

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
        self.pieces[p] = pieces;
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
        self.pieces.push(PieceSet::new(self.config.piece_count));
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
        let complete = self.pieces[p].is_complete();
        let Swarm {
            ref pieces,
            ref mut avail,
            ..
        } = *self;
        for i in pieces[p].ones() {
            avail.decrement(i);
        }
        self.pieces[p].clear();
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

    /// Crashes peer `p`: the fault-plane entry point for abrupt
    /// departures. At the arena level a crash performs exactly the
    /// overlay surgery of [`Swarm::depart`] — every edge is severed with
    /// its rate/credit slots zeroed, pieces leave the availability index,
    /// the slot is free-listed — because a half-removed peer would break
    /// the engine's structural invariants. What makes a crash *abrupt*
    /// is what does **not** happen: the session layer records no
    /// completion, draws no graceful-leave randomness and exempts no one
    /// but itself (see `session::Session`'s fault passes).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or already absent.
    pub fn crash(&mut self, p: PeerId) {
        self.depart(p);
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
        retain_present(&present, &mut self.pieces);
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
    /// their reverse slots). The unchoke state (TFT set and optimistic
    /// slot) of both endpoints is dropped — it stores local row positions,
    /// which may have moved; the next rechoke rebuilds it.
    pub(crate) fn remove_edge_at(&mut self, p: PeerId, k: usize) {
        let e = self.row_off[p] + k;
        let q = self.nbr[e] as usize;
        let er = self.rev[e] as usize;
        // q side: move q's last live edge into `er`.
        let q_last = self.row_off[q] + self.deg[q] as usize - 1;
        if er != q_last {
            self.nbr[er] = self.nbr[q_last];
            self.rev[er] = self.rev[q_last];
            self.received_prev[er] = self.received_prev[q_last];
            self.received_curr[er] = self.received_curr[q_last];
            self.credit[er] = self.credit[q_last];
            let partner = self.rev[er] as usize;
            self.rev[partner] = er as u32;
        }
        self.clear_edge_slot(q_last);
        self.deg[q] -= 1;
        // p side: move p's last live edge into `e`. (The q-side move never
        // touches p's row: rows hold at most one edge per neighbour.)
        let p_last = self.row_off[p] + self.deg[p] as usize - 1;
        if e != p_last {
            self.nbr[e] = self.nbr[p_last];
            self.rev[e] = self.rev[p_last];
            self.received_prev[e] = self.received_prev[p_last];
            self.received_curr[e] = self.received_curr[p_last];
            self.credit[e] = self.credit[p_last];
            let partner = self.rev[e] as usize;
            self.rev[partner] = e as u32;
        }
        self.clear_edge_slot(p_last);
        self.deg[p] -= 1;
        self.tft_len[p] = 0;
        self.tft_len[q] = 0;
        self.optimistic[p] = NO_OPT;
        self.optimistic[q] = NO_OPT;
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
    /// present streams ascend with slot), availability counts and the
    /// population split against a from-scratch recount. Test
    /// support for the membership/fault proptests;
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
            if self.pieces[p].is_complete() {
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
        assert_eq!(self.downloading_now, downloading, "downloading count");
        assert_eq!(self.seeding_now, seeding, "seeding count");
        for i in 0..self.config.piece_count {
            let holders = (0..n)
                .filter(|&p| self.present[p] && self.pieces[p].contains(i))
                .count() as u32;
            assert_eq!(holders, self.availability()[i], "availability of piece {i}");
        }
    }

    /// Runs [`Swarm::validate_consistency`] in debug builds and is a
    /// no-op in release builds — the hook the differential suites call
    /// after every churn/fault event, cheap enough to leave in hot loops.
    pub fn check_invariants(&self) {
        if cfg!(debug_assertions) {
            self.validate_consistency();
        }
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

    /// Piece set of peer `p` (borrowed live, unlike [`Swarm::peer`]'s
    /// clone-free accessor this one is crate-internal and infallible).
    pub(crate) fn pieces_at(&self, p: PeerId) -> &PieceSet {
        &self.pieces[p]
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
    /// the sender's rechoke-time piece snapshot `sender`, recording into
    /// the live availability and counting a completion stamped `stamp`.
    /// Returns whether `q` completed.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn land_event_pieces<O: RunObserver>(
        &mut self,
        q: PeerId,
        credit: &mut f64,
        threshold: f64,
        snapshot: &AvailIndex,
        sender: &PieceSet,
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
            &mut pieces[q],
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

/// Runs one parallel-pass job: on the calling thread when the round has a
/// single range, else on its own scoped worker. A round driven at one
/// thread (a universe session whose torrents already share the threads)
/// then spawns nothing, and fresh worker threads cost start-up time and
/// their own allocator arenas.
fn run_or_spawn<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    inline: bool,
    job: impl FnOnce() + Send + 'scope,
) {
    if inline {
        job();
    } else {
        scope.spawn(job);
    }
}

/// A flow mailbox of `len` zero slots, allocated zeroed rather than
/// filled: the pages of slots no round ever writes (row slack) stay
/// untouched and cost no resident memory. A fill loop touches them
/// unless the compiler happens to turn it into a zeroed allocation,
/// which depends on where the round is instantiated; on an open swarm's
/// arena that is about 11 MiB of peak RSS.
fn zeroed_mailbox(len: usize) -> Vec<AtomicU64> {
    let mailbox = Box::<[AtomicU64]>::new_zeroed_slice(len);
    // SAFETY: `AtomicU64` has the same size and bit validity as `u64`, so
    // all-zero bytes are an initialized `AtomicU64::new(0)`.
    unsafe { mailbox.assume_init() }.into_vec()
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
fn interested_at(
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
fn uploads_at(
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
struct RechokeView<'a> {
    config: &'a SwarmConfig,
    row_off: &'a [usize],
    deg: &'a [u32],
    nbr: &'a [u32],
    present: &'a [bool],
    behavior: &'a [PeerBehavior],
    pieces: &'a [PieceSet],
    original_seed: &'a [bool],
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
    fn rechoke<O: RunObserver>(
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
fn unchoke_targets(tft: &[u32], optimistic: u32, targets: &mut Vec<(u32, bool)>) {
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
trait Availability {
    fn order(&self) -> &AvailIndex;
    fn record(&mut self, piece: usize);
}

impl Availability for AvailIndex {
    fn order(&self) -> &AvailIndex {
        self
    }
    fn record(&mut self, piece: usize) {
        self.increment(piece);
    }
}

impl Availability for (&AvailIndex, &mut AvailShard) {
    fn order(&self) -> &AvailIndex {
        self.0
    }
    fn record(&mut self, piece: usize) {
        self.1.add(piece);
    }
}

impl Availability for (&AvailIndex, &mut AvailIndex) {
    fn order(&self) -> &AvailIndex {
        self.0
    }
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
fn land_pieces<O: RunObserver>(
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
    // The bound covers every iteration the credit loop can run.
    let want = (*credit / piece_size) as usize + 2;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_uploads(n: usize, kbps: f64) -> Vec<f64> {
        vec![kbps; n]
    }

    fn small_config(leechers: usize, seeds: usize) -> SwarmConfig {
        SwarmConfig::builder()
            .leechers(leechers)
            .seeds(seeds)
            .piece_count(64)
            .piece_size_kbit(400.0)
            .seed(42)
            .build()
    }

    #[test]
    fn construction_shapes() {
        let cfg = small_config(20, 2);
        let swarm = Swarm::new(cfg, &uniform_uploads(22, 500.0));
        assert_eq!(swarm.peer_count(), 22);
        // Seeds are the last indices and complete.
        assert!(swarm.peer(20).is_original_seed());
        assert!(swarm.peer(21).pieces().is_complete());
        assert!(!swarm.peer(0).is_original_seed());
        // Availability counts all holders.
        assert!(swarm.availability().iter().all(|&a| a >= 2));
        swarm.validate_consistency();
    }

    #[test]
    fn reverse_edges_are_consistent() {
        let cfg = small_config(25, 1);
        let swarm = Swarm::new(cfg, &uniform_uploads(26, 500.0));
        for p in 0..26 {
            for e in swarm.row_off[p]..swarm.row_off[p] + swarm.deg[p] as usize {
                let q = swarm.nbr[e] as usize;
                let er = swarm.rev[e] as usize;
                assert!((swarm.row_off[q]..swarm.row_off[q] + swarm.deg[q] as usize).contains(&er));
                assert_eq!(swarm.nbr[er] as usize, p);
                assert_eq!(swarm.rev[er] as usize, e);
            }
        }
    }

    #[test]
    fn conservation_of_traffic() {
        let cfg = small_config(25, 1);
        let mut swarm = Swarm::new(cfg, &uniform_uploads(26, 400.0));
        swarm.run_rounds(30);
        let up: f64 = (0..26).map(|p| swarm.peer(p).total_uploaded()).sum();
        let down: f64 = (0..26).map(|p| swarm.peer(p).total_downloaded()).sum();
        assert!(up > 0.0);
        assert!((up - down).abs() < 1e-6, "up {up} vs down {down}");
    }

    #[test]
    fn pieces_only_increase_and_availability_consistent() {
        let cfg = small_config(15, 1);
        let mut swarm = Swarm::new(cfg, &uniform_uploads(16, 600.0));
        let mut prev: Vec<usize> = (0..16).map(|p| swarm.peer(p).pieces().count()).collect();
        for _ in 0..25 {
            swarm.round();
            for p in 0..16 {
                let now = swarm.peer(p).pieces().count();
                assert!(now >= prev[p], "peer {p} lost pieces");
                prev[p] = now;
            }
            // Recount availability from scratch.
            for i in 0..swarm.config().piece_count {
                let holders = (0..16)
                    .filter(|&p| swarm.peer(p).pieces().contains(i))
                    .count() as u32;
                assert_eq!(holders, swarm.availability()[i], "piece {i}");
            }
        }
    }

    #[test]
    fn seeds_never_download() {
        let cfg = small_config(12, 2);
        let mut swarm = Swarm::new(cfg, &uniform_uploads(14, 500.0));
        swarm.run_rounds(20);
        for p in 12..14 {
            assert_eq!(swarm.peer(p).total_downloaded(), 0.0);
            assert!(swarm.peer(p).total_uploaded() > 0.0);
        }
    }

    #[test]
    fn swarm_completes_with_enough_rounds() {
        let cfg = SwarmConfig::builder()
            .leechers(10)
            .seeds(1)
            .piece_count(32)
            .piece_size_kbit(100.0)
            .initial_completion(0.5)
            .seed(3)
            .build();
        let mut swarm = Swarm::new(cfg, &uniform_uploads(11, 1000.0));
        for _ in 0..400 {
            swarm.round();
            if swarm.completed_count() == 10 {
                break;
            }
        }
        assert_eq!(swarm.completed_count(), 10, "swarm failed to complete");
        // Completion rounds recorded and within the horizon.
        for p in 0..10 {
            assert!(swarm.peer(p).completed_round().is_some());
        }
        // The incrementally tracked population agrees: everyone seeds now.
        assert_eq!(swarm.population().downloading, 0);
        assert_eq!(swarm.population().seeding, 11);
        assert_eq!(swarm.completed(), 10);
    }

    #[test]
    fn upload_capacity_respected_per_round() {
        let cfg = small_config(20, 1);
        let uploads = uniform_uploads(21, 300.0);
        let mut swarm = Swarm::new(cfg, &uploads);
        for _ in 0..10 {
            let before: Vec<f64> = (0..21).map(|p| swarm.peer(p).total_uploaded()).collect();
            swarm.round();
            for p in 0..21 {
                let sent = swarm.peer(p).total_uploaded() - before[p];
                let cap = uploads[p] * swarm.config().round_seconds;
                assert!(sent <= cap + 1e-9, "peer {p} sent {sent} above cap {cap}");
            }
        }
    }

    #[test]
    fn unchoke_counts_bounded_by_slots() {
        let cfg = small_config(30, 1);
        let mut swarm = Swarm::new(cfg, &uniform_uploads(31, 500.0));
        for _ in 0..15 {
            swarm.round();
            for p in 0..31 {
                assert!(swarm.tft_unchoked(p).len() <= swarm.config().tft_slots);
                // Optimistic target is never also a TFT target.
                if let Some(o) = swarm.optimistic_unchoked(p) {
                    assert!(!swarm.tft_unchoked(p).contains(&o));
                }
            }
        }
    }

    #[test]
    fn determinism_for_fixed_seed() {
        let mk = || {
            let cfg = small_config(18, 1);
            let mut swarm = Swarm::new(cfg, &uniform_uploads(19, 450.0));
            swarm.run_rounds(12);
            (0..19)
                .map(|p| swarm.peer(p).total_downloaded())
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn parallel_rounds_identical_for_any_thread_count() {
        // The strat-par determinism contract, at the engine level: the
        // indexed semantics must not depend on the worker count.
        for fluid in [false, true] {
            let mk = |threads: usize| {
                let mut cfg = small_config(23, 2);
                cfg.fluid_content = fluid;
                let uploads: Vec<f64> = (0..25).map(|i| 150.0 + 30.0 * i as f64).collect();
                let mut swarm = Swarm::new(cfg, &uploads);
                swarm.run_rounds_parallel(17, threads);
                let state: Vec<(f64, f64, f64, f64, usize)> = (0..25)
                    .map(|p| {
                        (
                            swarm.peer(p).total_uploaded(),
                            swarm.peer(p).total_downloaded(),
                            swarm.peer(p).tft_uploaded(),
                            swarm.peer(p).tft_downloaded(),
                            swarm.peer(p).pieces().count(),
                        )
                    })
                    .collect();
                (state, swarm.availability().to_vec())
            };
            let baseline = mk(1);
            for threads in [2, 3, 8, 64] {
                assert_eq!(
                    mk(threads),
                    baseline,
                    "threads = {threads}, fluid = {fluid}"
                );
            }
        }
    }

    #[test]
    fn parallel_rounds_conserve_traffic() {
        let cfg = small_config(20, 1);
        let mut swarm = Swarm::new(cfg, &uniform_uploads(21, 400.0));
        swarm.run_rounds_parallel(25, 4);
        let up: f64 = (0..21).map(|p| swarm.peer(p).total_uploaded()).sum();
        let down: f64 = (0..21).map(|p| swarm.peer(p).total_downloaded()).sum();
        assert!(up > 0.0);
        assert!((up - down).abs() < 1e-6, "up {up} vs down {down}");
        // Availability stays consistent with the piece sets.
        for i in 0..swarm.config().piece_count {
            let holders = (0..21)
                .filter(|&p| swarm.peer(p).pieces().contains(i))
                .count() as u32;
            assert_eq!(holders, swarm.availability()[i], "piece {i}");
        }
        swarm.validate_consistency();
    }

    #[test]
    fn completed_leechers_keep_seeding_when_configured() {
        let cfg = SwarmConfig::builder()
            .leechers(8)
            .seeds(1)
            .piece_count(16)
            .piece_size_kbit(50.0)
            .initial_completion(0.8)
            .seed_after_completion(true)
            .seed(5)
            .build();
        let mut swarm = Swarm::new(cfg, &uniform_uploads(9, 2000.0));
        swarm.run_rounds(100);
        assert_eq!(swarm.completed_count(), 8);
        // Completed leechers continued to upload after completing.
        let up: f64 = (0..8).map(|p| swarm.peer(p).total_uploaded()).sum();
        assert!(up > 0.0);
    }

    #[test]
    #[should_panic(expected = "one upload capacity per peer")]
    fn wrong_capacity_count_panics() {
        let cfg = small_config(5, 1);
        let _ = Swarm::new(cfg, &uniform_uploads(3, 100.0));
    }

    #[test]
    #[should_panic(expected = "one behavior per peer")]
    fn wrong_behavior_count_panics() {
        let cfg = small_config(5, 1);
        let _ = Swarm::with_behaviors(
            cfg,
            &uniform_uploads(6, 100.0),
            &[PeerBehavior::Compliant; 2],
        );
    }

    #[test]
    fn all_compliant_behaviors_match_default_constructor() {
        let mk = |explicit: bool| {
            let cfg = small_config(18, 1);
            let uploads = uniform_uploads(19, 450.0);
            let mut swarm = if explicit {
                Swarm::with_behaviors(cfg, &uploads, &[PeerBehavior::Compliant; 19])
            } else {
                Swarm::new(cfg, &uploads)
            };
            swarm.run_rounds(12);
            (0..19)
                .map(|p| swarm.peer(p).total_downloaded())
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(true), mk(false));
    }

    #[test]
    fn free_riders_upload_nothing_but_still_download() {
        let mut cfg = small_config(20, 2);
        cfg.fluid_content = true;
        // Heterogeneous capacities so TFT ranks carry signal; free riders
        // occupy the last leecher indices (the scenario layer's convention).
        let uploads: Vec<f64> = (0..22).map(|i| 300.0 + 40.0 * i as f64).collect();
        let mut behaviors = vec![PeerBehavior::Compliant; 22];
        behaviors[18] = PeerBehavior::FreeRider;
        behaviors[19] = PeerBehavior::FreeRider;
        let mut swarm = Swarm::with_behaviors(cfg, &uploads, &behaviors);
        swarm.run_rounds(40);
        for p in [18, 19] {
            assert_eq!(
                swarm.peer(p).total_uploaded(),
                0.0,
                "free rider {p} uploaded"
            );
            // Optimistic slots still feed them.
            assert!(swarm.peer(p).total_downloaded() > 0.0);
            assert!(swarm.tft_unchoked(p).is_empty());
            assert!(swarm.optimistic_unchoked(p).is_none());
        }
        // Free riders live off the optimistic economy alone: they download
        // strictly less than the median compliant leecher.
        let mut compliant: Vec<f64> = (0..18).map(|p| swarm.peer(p).total_downloaded()).collect();
        compliant.sort_by(f64::total_cmp);
        let median = compliant[compliant.len() / 2];
        for p in [18, 19] {
            assert!(
                swarm.peer(p).total_downloaded() < median,
                "free rider {p} outperformed the median compliant peer"
            );
        }
    }

    #[test]
    fn altruists_upload_without_reciprocation_signal() {
        let mut cfg = small_config(20, 1);
        cfg.fluid_content = true;
        let mut behaviors = vec![PeerBehavior::Compliant; 21];
        behaviors[3] = PeerBehavior::Altruistic;
        let mut swarm = Swarm::with_behaviors(cfg, &uniform_uploads(21, 500.0), &behaviors);
        swarm.run_rounds(30);
        assert_eq!(swarm.peer(3).behavior(), PeerBehavior::Altruistic);
        // Altruists keep uploading and (being leechers) keep downloading.
        assert!(swarm.peer(3).total_uploaded() > 0.0);
        assert!(swarm.peer(3).total_downloaded() > 0.0);
    }

    #[test]
    fn slack_preserves_rounds_bit_for_bit() {
        // Re-laying out the arena with spare row capacity must not change
        // behaviour: identical seeds and rounds, identical state.
        let run = |slack: usize| {
            let cfg = small_config(20, 2);
            let uploads: Vec<f64> = (0..22).map(|i| 150.0 + 25.0 * i as f64).collect();
            let mut swarm = Swarm::new(cfg, &uploads);
            swarm.reserve_overlay_slack(slack);
            swarm.run_rounds(15);
            (0..22)
                .map(|p| {
                    (
                        swarm.peer(p).total_downloaded(),
                        swarm.peer(p).pieces().count(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(0), run(7));
    }

    #[test]
    fn slack_preserves_parallel_rounds_bit_for_bit() {
        let run = |slack: usize| {
            let cfg = small_config(19, 2);
            let uploads: Vec<f64> = (0..21).map(|i| 150.0 + 25.0 * i as f64).collect();
            let mut swarm = Swarm::new(cfg, &uploads);
            swarm.reserve_overlay_slack(slack);
            swarm.run_rounds_parallel(9, 3);
            swarm.run_rounds_parallel(6, 3);
            (0..21)
                .map(|p| {
                    (
                        swarm.peer(p).total_downloaded(),
                        swarm.peer(p).pieces().count(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(0), run(5));
    }

    #[test]
    fn depart_then_arrive_reuses_slot_and_keeps_invariants() {
        let cfg = small_config(14, 2);
        let mut swarm = Swarm::new(cfg, &uniform_uploads(16, 500.0));
        swarm.reserve_overlay_slack(6);
        swarm.run_rounds(4);
        let before_pop = swarm.population();
        let departed_complete = swarm.peer(5).pieces().is_complete();
        swarm.depart(5);
        assert!(!swarm.is_present(5));
        assert_eq!(swarm.degree(5), 0);
        swarm.validate_consistency();
        let mid_pop = swarm.population();
        assert_eq!(mid_pop.total() + 1, before_pop.total());
        let _ = departed_complete;

        // The freed slot is reused by the next arrival.
        let slot = swarm.arrive(700.0, PeerBehavior::Compliant, PieceSet::new(64));
        assert_eq!(slot, 5);
        assert!(swarm.is_present(5));
        assert_eq!(swarm.peer(5).upload_kbps(), 700.0);
        assert_eq!(swarm.peer(5).total_downloaded(), 0.0);
        // Wire it to a few present peers and keep simulating.
        for q in [0usize, 1, 2] {
            assert!(swarm.connect_peers(slot, q));
        }
        assert_eq!(swarm.degree(slot), 3);
        swarm.validate_consistency();
        swarm.run_rounds(6);
        swarm.validate_consistency();
        assert!(swarm.peer(slot).total_downloaded() > 0.0);
    }

    #[test]
    fn depart_drops_stale_unchoke_state_of_survivors() {
        // TFT sets store local row positions; a swap-removing departure
        // invalidates them, so the survivors' unchoke state must be
        // cleared rather than left pointing at reshuffled slots.
        let cfg = small_config(16, 2);
        let mut swarm = Swarm::new(cfg, &uniform_uploads(18, 500.0));
        swarm.reserve_overlay_slack(4);
        swarm.run_rounds(6); // populate TFT sets and optimistic slots
        let victim = 3;
        let neighbors: Vec<PeerId> = swarm.neighbors(victim).collect();
        swarm.depart(victim);
        for &q in &neighbors {
            assert!(swarm.tft_unchoked(q).is_empty(), "stale TFT set on {q}");
            assert!(swarm.optimistic_unchoked(q).is_none());
        }
        // Every remaining unchoke reference across the swarm is a live
        // neighbor.
        for p in 0..swarm.peer_count() {
            if !swarm.is_present(p) {
                continue;
            }
            let nbrs: Vec<PeerId> = swarm.neighbors(p).collect();
            for t in swarm.tft_unchoked(p) {
                assert!(nbrs.contains(&t), "peer {p} TFT-unchokes non-neighbor {t}");
            }
        }
        swarm.run_rounds(4); // and the engine keeps simulating cleanly
        swarm.validate_consistency();
    }

    #[test]
    fn arrival_growth_appends_fresh_slots() {
        let cfg = small_config(6, 1);
        let mut swarm = Swarm::new(cfg, &uniform_uploads(7, 500.0));
        swarm.reserve_overlay_slack(4);
        let n0 = swarm.peer_count();
        let p = swarm.arrive(333.0, PeerBehavior::Compliant, PieceSet::new(64));
        assert_eq!(p, n0);
        assert_eq!(swarm.peer_count(), n0 + 1);
        assert!(swarm.row_capacity(p) >= 4);
        assert!(swarm.connect_peers(p, 0));
        swarm.validate_consistency();
        // A complete arrival is an original seed and counts as seeding.
        let seeds_before = swarm.population().seeding;
        let s = swarm.arrive(900.0, PeerBehavior::Compliant, PieceSet::full(64));
        assert!(swarm.peer(s).is_original_seed());
        assert_eq!(swarm.population().seeding, seeds_before + 1);
        swarm.validate_consistency();
    }

    #[test]
    fn connect_rejects_duplicates_and_full_rows() {
        let cfg = small_config(6, 1);
        let mut swarm = Swarm::new(cfg, &uniform_uploads(7, 500.0));
        // No slack: every initial row is exactly full.
        let p = 0;
        if swarm.degree(p) > 0 {
            let q = swarm.neighbors(p).next().unwrap();
            assert!(!swarm.connect_peers(p, q), "duplicate edge accepted");
        }
        assert!(!swarm.connect_peers(p, p), "self edge accepted");
    }

    #[test]
    #[should_panic(expected = "is not present")]
    fn double_depart_panics() {
        let cfg = small_config(6, 1);
        let mut swarm = Swarm::new(cfg, &uniform_uploads(7, 500.0));
        swarm.depart(2);
        swarm.depart(2);
    }
}
