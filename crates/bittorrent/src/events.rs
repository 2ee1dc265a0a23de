//! Continuous-time discrete-event swarm core with heterogeneous peer
//! speeds.
//!
//! The round engine ([`Swarm::round`] and its indexed/parallel variants)
//! forces every peer onto one synchronous clock. Real clients rechoke on
//! wall-clock timers and transfer pieces at rates set by whoever unchoked
//! them, so stratification emerges from *asynchronous* timing — Legout et
//! al. measure clustering over 10-second rechoke intervals, and Xu's
//! multi-class fluid model prices per-bandwidth-class completion times
//! that only a heterogeneous-speed engine can be checked against. This
//! module provides that engine: [`EventEngine`] runs the existing swarm
//! arena under an event loop in which rechoke ticks, piece transfers,
//! tracker announces, and session arrivals / departures are timestamped
//! events.
//!
//! # Event model
//!
//! Five event kinds are dispatched in one total order,
//! `(time, kind, a, b, seq)` with `total_cmp` on time — ties are broken
//! deterministically, never by heap insertion accident:
//!
//! | kind | order | payload |
//! |---|---|---|
//! | transfer | 0 | recipient slot `a`, global edge slot `b` |
//! | departure | 1 | peer slot `a`, abort-only flag `b`, generation `tag` |
//! | arrival | 2 | `a = 0`, chain flag `b` |
//! | rechoke | 3 | peer slot `a`, tick `b`, generation `tag` |
//! | announce | 4 | peer slot `a`, generation `tag` |
//!
//! The kind order at an equal timestamp mirrors one session round: the
//! closing interval's transfers land first, then departures and arrivals
//! edit the membership, then the new interval's rechokes re-plan flows.
//! A peer's `tag` is its generation tag in the swarm arena, which every
//! arrival into the slot bumps, so events queued for a departed occupant
//! die at fire time. Tags are equality guards only: never order, never keys.
//! Arrivals carry no index: the chain flag is the same for every arrival
//! of a run (all Poisson or all trace), so `seq`, assigned at push time,
//! orders same-time arrivals in push order.
//!
//! Transfers live in their own indexed queue (`queue::EdgeQueue`) holding
//! at most one crossing per edge slot; departures, arrivals, rechokes and
//! announces share a binary heap. The loop takes the transfer head
//! whenever its time is at most the heap head's, which is the kind-0-first
//! order above. An edge's slot identifies its crossing, so `(time, a, b)`
//! already orders transfers totally and they carry no `seq`.
//!
//! # Flows, credit, and re-planning
//!
//! Each unchoke plans a constant-rate flow on the recipient-side edge
//! slot (`upload · multiplier · interval / targets`, in kbit per rechoke
//! interval). The edge's crossing is queued for the moment its credit
//! crosses one piece (`duration = piece_size / allocated rate`). Whenever
//! a rechoke re-plans the rate, or a swap-remove moves the edge to
//! another slot, the crossing is re-predicted and re-keyed in place; a
//! choked or detached edge leaves the queue. No queued crossing is ever
//! stale, so every transfer dispatch fires. Fired transfers re-check the
//! settled credit, so an early prediction is a harmless no-op. The
//! per-edge state the settle and re-plan paths touch together (flow,
//! credit, pending deposits, last settle time) is one record per slot;
//! the receipt window stays a column because rechokes rank by a row of
//! it. All internal timestamps are kept in **rechoke-interval units**
//! (tick `k` is exactly the float `k`), which makes interval-boundary
//! arithmetic exact and is the backbone of the synchronous-limit
//! guarantee below.
//!
//! # Determinism contract
//!
//! Every random draw comes from a ChaCha stream keyed by purpose:
//! rechokes reuse the round engine's `(seed, tick, peer)` streams, and
//! churn / announce / arrival draws use per-event streams keyed
//! `(session_seed, event_seq)` where `event_seq` is the global event
//! sequence number assigned at scheduling time. Every scheduled transfer
//! crossing still consumes one sequence number, so the streams do not
//! depend on how the queue stores crossings. Replays are bit-identical
//! regardless of wall-clock or platform.
//!
//! # Synchronous limit
//!
//! With [`EventTiming::synchronous_limit`] — homogeneous speeds, transfer
//! quantum equal to the rechoke interval — the engine reproduces the
//! round engine **bit-for-bit**: same rechoke RNG streams, the same
//! `upload · round_seconds / targets` share expression, deliveries
//! deposited one add per edge per round in the recipient-major ascending
//! order of `par_delivery`, and piece conversions against the same
//! start-of-round availability / piece snapshots. The differential suite
//! in `tests/` pins this equivalence on full swarm state.

mod queue;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::avail::AvailIndex;
use crate::behavior::PeerBehavior;
use crate::observer::{NullObserver, RunObserver};
use crate::piece::PieceArena;
use crate::session::{ArrivalProcess, SessionConfig};
use crate::streams;
use crate::swarm::{PeerId, Swarm};
use crate::tracker;
use queue::{key_time, time_key, EdgeQueue};

/// Peer departure — churn leave, abort, or seed exodus (kind 1).
const K_DEPART: u8 = 1;
/// Peer arrival via the tracker (kind 2).
const K_ARRIVAL: u8 = 2;
/// Rechoke tick: one peer re-plans its unchokes and flows (kind 3).
const K_RECHOKE: u8 = 3;
/// Tracker announce: a peer below target degree asks for neighbours
/// (kind 4).
const K_ANNOUNCE: u8 = 4;

/// One scheduled non-transfer event. The derived order compares the
/// fields in declaration order, which is `(time, kind, a, b, seq)` with
/// `f64::total_cmp` on the timestamp; `seq` is unique, so `tag` never
/// decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ev {
    /// Timestamp in rechoke-interval units, as a `queue::time_key`.
    time: u64,
    /// `kind << KIND_SHIFT | a`.
    kind_a: u64,
    b: u64,
    /// Global sequence number, assigned at scheduling time; final
    /// tie-breaker and the per-event RNG stream key.
    seq: u64,
    /// Guard token: the peer's arena generation tag for departure /
    /// rechoke / announce events. Stale events (token mismatch at fire
    /// time) are dropped.
    tag: u64,
}

/// Bit offset of the kind in [`Ev::kind_a`]; `a` (a peer slot, or 0 for
/// an arrival) fits below it.
const KIND_SHIFT: u32 = 56;

impl Ev {
    fn time(&self) -> f64 {
        key_time(self.time)
    }

    fn kind(&self) -> u8 {
        (self.kind_a >> KIND_SHIFT) as u8
    }

    fn a(&self) -> u64 {
        self.kind_a & ((1 << KIND_SHIFT) - 1)
    }
}

/// Engine state of one recipient-side edge slot (the slot in the
/// downloader's row pointing back at the sender, so `edge_target` of the
/// slot is the sender).
#[derive(Debug, Clone, Copy, Default)]
struct EdgeState {
    /// Planned rate in kbit per rechoke interval (0 = choked).
    flow: f64,
    /// Settled kbit toward the next piece conversion.
    credit: f64,
    /// Settled download kbit awaiting deposit into the recipient's
    /// totals (flushed one add per edge at the recipient's tick, so the
    /// accumulation order matches the round engine's delivery pass).
    pend_down: f64,
    /// TFT share of `pend_down`.
    pend_tft: f64,
    /// Time (interval units) up to which the edge has been settled; read
    /// only while the edge flows (an unchoke settles the edge first).
    last_settle: f64,
    /// Whether the planned flow fills a TFT slot (vs optimistic).
    ftft: bool,
}

impl EdgeState {
    /// A fresh, choked edge settled up to `tau`.
    fn settled_at(tau: f64) -> Self {
        EdgeState {
            last_settle: tau,
            ..EdgeState::default()
        }
    }
}

/// Timing axis of the event engine: rechoke cadence, transfer
/// quantization, tracker announce cadence, and per-class speed
/// multipliers.
///
/// Peers are assigned to speed classes round-robin (initial peers by
/// slot, arrivals by arrival order); class `i` uploads at
/// `upload_kbps · speed_multipliers[i]`. One class with multiplier 1.0
/// (the default) keeps the configured capacities untouched.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventTiming {
    /// Seconds between a peer's rechoke ticks (Legout et al.'s
    /// wall-clock rechoke period; BitTorrent's classic value is 10 s).
    pub rechoke_interval: f64,
    /// Transfer-completion quantum in seconds: piece-crossing events are
    /// snapped *up* to the next multiple. `None` fires them at the exact
    /// continuous crossing time; `Some(rechoke_interval)` is the
    /// synchronous limit where the engine equals the round engine.
    pub transfer_quantum: Option<f64>,
    /// Seconds between a peer's tracker announces (re-wiring below the
    /// churn target degree); `None` disables periodic announces.
    pub announce_interval: Option<f64>,
    /// Per-class upload-speed multipliers; peers join classes
    /// round-robin. Must be non-empty, finite, and positive.
    pub speed_multipliers: Vec<f64>,
}

impl Default for EventTiming {
    fn default() -> Self {
        EventTiming {
            rechoke_interval: 10.0,
            transfer_quantum: None,
            announce_interval: None,
            speed_multipliers: vec![1.0],
        }
    }
}

impl EventTiming {
    /// The synchronous limit: homogeneous speeds, transfer quantum equal
    /// to the rechoke interval set to the round engine's
    /// `round_seconds`. Under this timing the event engine reproduces
    /// the round engine bit-for-bit.
    #[must_use]
    pub fn synchronous_limit(round_seconds: f64) -> Self {
        EventTiming {
            rechoke_interval: round_seconds,
            transfer_quantum: Some(round_seconds),
            announce_interval: None,
            speed_multipliers: vec![1.0],
        }
    }

    /// Validates the timing axis.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: the
    /// rechoke interval, transfer quantum, and announce interval must be
    /// finite and positive, and the multiplier list non-empty with every
    /// entry finite and positive.
    pub fn validate(&self) -> Result<(), String> {
        if !self.rechoke_interval.is_finite() || self.rechoke_interval <= 0.0 {
            return Err(format!(
                "rechoke_interval must be finite and positive, got {}",
                self.rechoke_interval
            ));
        }
        if let Some(q) = self.transfer_quantum {
            if !q.is_finite() || q <= 0.0 {
                return Err(format!(
                    "transfer_quantum must be finite and positive, got {q}"
                ));
            }
        }
        if let Some(a) = self.announce_interval {
            if !a.is_finite() || a <= 0.0 {
                return Err(format!(
                    "announce_interval must be finite and positive, got {a}"
                ));
            }
        }
        if self.speed_multipliers.is_empty() {
            return Err("speed_multipliers must not be empty".into());
        }
        for &m in &self.speed_multipliers {
            if !m.is_finite() || m <= 0.0 {
                return Err(format!(
                    "speed multipliers must be finite and positive, got {m}"
                ));
            }
        }
        Ok(())
    }
}

/// One download completion under the event clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionRecord {
    /// Arena slot of the completing peer.
    pub slot: u32,
    /// Speed class of the completing peer.
    pub class: u32,
    /// Arrival time in seconds (0 for initial peers).
    pub arrival_time: f64,
    /// Completion time in seconds.
    pub completion_time: f64,
    /// Completion time in rechoke-interval units, rounded up — equals
    /// the round-engine completion round in the synchronous limit.
    pub completion_round: u64,
}

/// Cumulative event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Peers admitted by arrival events.
    pub arrivals: u64,
    /// Peers removed by departure events (leaves, aborts, exodus).
    pub departures: u64,
    /// Piece-transfer crossings fired. Every queued crossing is live, so
    /// every transfer dispatch counts here.
    pub transfers: u64,
    /// Rechoke ticks fired.
    pub rechokes: u64,
    /// Tracker announces fired.
    pub announces: u64,
    /// Total events dispatched: every transfer, plus departure, arrival,
    /// rechoke and announce events, including timers of a departed peer
    /// that dispatch but fire uncounted.
    pub events: u64,
}

/// Continuous-time discrete-event engine over a [`Swarm`] arena.
///
/// Construct with [`EventEngine::new`], then drive with
/// [`EventEngine::run_sync_rounds`] (tick-aligned horizons, comparable
/// round-for-round with the round engine) or [`EventEngine::run_for`]
/// (arbitrary horizons in seconds). The two driving styles cannot be
/// mixed on one engine. The wrapped swarm stays inspectable through
/// every public accessor; its own `round()` methods must not be called
/// while the engine owns it (the engine never calls them, so
/// `round_count()` stays 0 and completion rounds are stamped from event
/// time).
#[derive(Debug, Clone)]
pub struct EventEngine {
    swarm: Swarm,
    timing: EventTiming,
    churn: Option<SessionConfig>,
    /// Transfer quantum in rechoke-interval units (1.0 in the
    /// synchronous limit — exactly, since it is computed as `q / q`).
    quantum_intervals: Option<f64>,
    /// Announce interval in rechoke-interval units.
    announce_intervals: Option<f64>,
    /// Queued transfer crossings, at most one per edge slot.
    transfers: EdgeQueue,
    /// Every other event: departures, arrivals, rechokes, announces.
    heap: BinaryHeap<Reverse<Ev>>,
    /// Current time in rechoke-interval units.
    clock: f64,
    /// Next global event sequence number.
    seq: u64,
    /// Tick-aligned rounds driven so far by `run_sync_rounds`.
    rounds_run: u64,
    /// Whether `run_for` has been used (excludes `run_sync_rounds`).
    continuous: bool,

    // Per-edge state, indexed by global edge slot on the *recipient*
    // side.
    /// Flow, credit and pending deposits of each edge slot.
    edges: Vec<EdgeState>,
    /// Settled kbit received over the current interval — the rate signal
    /// the next rechoke ranks by (the event-clock `received_prev`).
    window: Vec<f64>,

    // Per-peer state, indexed by arena slot.
    /// Speed class (round-robin over `timing.speed_multipliers`).
    class: Vec<u32>,
    /// Sender piece snapshot taken at the peer's last rechoke — the
    /// event-clock `pieces_prev` that piece picks draw from.
    plan_pieces: PieceArena,
    /// Arrival time in interval units (0 for initial peers).
    arrival_time: Vec<f64>,

    /// Availability snapshot refreshed on timestamp advance after any
    /// rechoke — the event-clock `avail_prev` that piece picks draw
    /// from.
    snapshot: AvailIndex,
    snapshot_dirty: bool,

    // Reusable scratch.
    targets: Vec<(u32, bool)>,
    picks: Vec<u64>,
    wire_scratch: Vec<u32>,

    /// Arrivals admitted so far (drives round-robin class assignment).
    arrival_counter: u64,
    completions: Vec<CompletionRecord>,
    stats: EventStats,
}

impl EventEngine {
    /// Wraps `swarm` in an event engine with the given timing axis and
    /// optional open-membership churn (arrival process, departure rules,
    /// and tracker wiring reuse the session vocabulary).
    ///
    /// # Panics
    ///
    /// Panics if the swarm runs fluid content (the event clock needs
    /// piece-grained transfers), if `timing` fails validation, or if a
    /// provided churn config fails validation.
    #[must_use]
    pub fn new(mut swarm: Swarm, timing: EventTiming, churn: Option<SessionConfig>) -> Self {
        assert!(
            !swarm.config().fluid_content,
            "event engine requires piece-mode content"
        );
        if let Err(e) = timing.validate() {
            panic!("invalid event timing: {e}");
        }
        if let Some(ch) = &churn {
            if let Err(e) = ch.validate() {
                panic!("invalid churn config: {e}");
            }
            swarm.reserve_overlay_slack(ch.target_degree.max(4));
        }
        let n = swarm.peer_count();
        let m = swarm.edge_arena_len();
        let interval = timing.rechoke_interval;
        let quantum_intervals = timing.transfer_quantum.map(|q| q / interval);
        let announce_intervals = timing.announce_interval.map(|a| a / interval);
        let snapshot = swarm.avail_index().clone();
        let plan_pieces = swarm.piece_arena().clone();
        let mut engine = EventEngine {
            swarm,
            timing,
            churn,
            quantum_intervals,
            announce_intervals,
            transfers: EdgeQueue::with_slots(m),
            heap: BinaryHeap::new(),
            clock: 0.0,
            seq: 0,
            rounds_run: 0,
            continuous: false,
            edges: vec![EdgeState::default(); m],
            window: vec![0.0; m],
            class: vec![0; n],
            plan_pieces,
            arrival_time: vec![0.0; n],
            snapshot,
            snapshot_dirty: false,
            targets: Vec::new(),
            picks: Vec::new(),
            wire_scratch: Vec::new(),
            arrival_counter: 0,
            completions: Vec::new(),
            stats: EventStats::default(),
        };
        let classes = engine.timing.speed_multipliers.len() as u32;
        for (p, c) in engine.class.iter_mut().enumerate() {
            *c = p as u32 % classes;
        }
        engine.schedule_genesis();
        engine
    }

    /// Queues the genesis events: tick-0 rechokes for every present
    /// peer, then the churn plane (first Poisson gap or the burst/trace
    /// schedule, seed exodus, abort timers) and periodic announces.
    fn schedule_genesis(&mut self) {
        let n = self.swarm.peer_count();
        for p in 0..n {
            if self.swarm.is_present(p) {
                self.push(0.0, K_RECHOKE, p as u64, 0, self.tag_of(p));
            }
        }
        let Some(ch) = self.churn.clone() else {
            return;
        };
        let seed = ch.session_seed;
        match &ch.arrival {
            ArrivalProcess::None => {}
            ArrivalProcess::Poisson { rate } => {
                if *rate > 0.0 {
                    let sq = self.alloc_seq();
                    let mut rng = streams::keyed(seed, streams::EVENT_SEQ, sq);
                    let gap = exp_gap(&mut rng, 1.0 / rate);
                    self.push(gap, K_ARRIVAL, 0, 1, 0);
                }
            }
            ArrivalProcess::Trace { arrivals } => {
                for &(round, count) in arrivals {
                    for _ in 0..count {
                        self.push(round as f64, K_ARRIVAL, 0, 0, 0);
                    }
                }
            }
        }
        if let Some(exodus) = ch.departure.seed_exodus_round {
            for p in 0..n {
                if self.swarm.is_present(p) && self.swarm.peer(p).is_original_seed() {
                    self.push(exodus as f64, K_DEPART, p as u64, 0, self.tag_of(p));
                }
            }
        }
        if ch.departure.abort_prob > 0.0 {
            for p in 0..n {
                if self.swarm.is_present(p) && !self.swarm.piece_arena().is_complete(p) {
                    let sq = self.alloc_seq();
                    let mut rng = streams::keyed(seed, streams::EVENT_SEQ, sq);
                    let gap = round_prob_gap(&mut rng, ch.departure.abort_prob);
                    self.push(gap, K_DEPART, p as u64, 1, self.tag_of(p));
                }
            }
        }
        if let Some(ai) = self.announce_intervals {
            for p in 0..n {
                if self.swarm.is_present(p) {
                    self.push(ai, K_ANNOUNCE, p as u64, 0, self.tag_of(p));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Driving.
    // ------------------------------------------------------------------

    /// Advances the engine by `rounds` tick-aligned rounds: every event
    /// up to the horizon fires, transfers *at* the horizon land (they
    /// are the closing interval's deliveries), and all remaining
    /// per-edge credit is settled and deposited. After `k` calls
    /// totalling `K` rounds the wrapped swarm state is directly
    /// comparable with a round-engine swarm run for `K` rounds.
    ///
    /// # Panics
    ///
    /// Panics if [`EventEngine::run_for`] was already used on this
    /// engine.
    pub fn run_sync_rounds(&mut self, rounds: u64) {
        self.run_sync_rounds_with(rounds, &NullObserver);
    }

    /// [`run_sync_rounds`](Self::run_sync_rounds) with a [`RunObserver`]
    /// tap. Observers are pure taps: attaching one changes no engine
    /// state and consumes no randomness. Hook times are τ in
    /// rechoke-interval units; the `transfer` hook fires per credit
    /// *settlement* with the settled kilobits (the event engine's
    /// continuous analogue of the round engine's per-round deliveries).
    ///
    /// # Panics
    ///
    /// Panics if [`EventEngine::run_for`] was already used on this
    /// engine.
    pub fn run_sync_rounds_with<O: RunObserver>(&mut self, rounds: u64, obs: &O) {
        assert!(
            !self.continuous,
            "cannot mix run_sync_rounds with run_for on one engine"
        );
        self.rounds_run += rounds;
        let tau_end = self.rounds_run as f64;
        self.pump(tau_end, false, obs);
        self.flush_all(tau_end, obs);
        self.clock = tau_end;
        self.transfers.debug_validate();
    }

    /// Advances the engine by `seconds` of simulated time (any horizon,
    /// not necessarily tick-aligned), firing every event inside the
    /// window and settling all credit at its end.
    ///
    /// # Panics
    ///
    /// Panics if [`EventEngine::run_sync_rounds`] was already used on
    /// this engine.
    pub fn run_for(&mut self, seconds: f64) {
        self.run_for_with(seconds, &NullObserver);
    }

    /// [`run_for`](Self::run_for) with a [`RunObserver`] tap (see
    /// [`run_sync_rounds_with`](Self::run_sync_rounds_with) for the hook
    /// semantics).
    ///
    /// # Panics
    ///
    /// Panics if [`EventEngine::run_sync_rounds`] was already used on
    /// this engine.
    pub fn run_for_with<O: RunObserver>(&mut self, seconds: f64, obs: &O) {
        assert!(
            self.rounds_run == 0,
            "cannot mix run_for with run_sync_rounds on one engine"
        );
        self.continuous = true;
        let tau_end = self.clock + seconds / self.timing.rechoke_interval;
        self.pump(tau_end, true, obs);
        self.flush_all(tau_end, obs);
        self.clock = tau_end;
        self.transfers.debug_validate();
    }

    /// Pops and dispatches events up to `tau_end`. With
    /// `inclusive = false`, non-transfer events *at* the horizon stay
    /// queued (they belong to the next round); transfers at the horizon
    /// fire, because they deliver the closing interval's flows.
    fn pump<O: RunObserver>(&mut self, tau_end: f64, inclusive: bool, obs: &O) {
        loop {
            let head = self.heap.peek().map(|&Reverse(ev)| ev);
            // Transfers are kind 0: at an equal timestamp they go first.
            if let Some((time, q, e)) = self.transfers.peek() {
                if head.is_none_or(|ev| time_key(time) <= ev.time) {
                    if time > tau_end {
                        break;
                    }
                    self.advance_clock(time);
                    self.stats.events += 1;
                    self.fire_transfer(q, e, time, obs);
                    continue;
                }
            }
            let Some(head) = head else {
                break;
            };
            let time = head.time();
            if time > tau_end || (!inclusive && time == tau_end) {
                break;
            }
            self.heap.pop();
            self.advance_clock(time);
            self.stats.events += 1;
            let (a, tag, seq) = (head.a() as usize, head.tag, head.seq);
            match head.kind() {
                K_DEPART => self.fire_departure(a, tag, head.b == 1, time, obs),
                K_ARRIVAL => self.fire_arrival(head.b == 1, seq, time, obs),
                K_RECHOKE => self.fire_rechoke(a, head.b, tag, time, obs),
                K_ANNOUNCE => self.fire_announce(a, tag, seq, time, obs),
                other => unreachable!("unknown event kind {other}"),
            }
        }
    }

    /// Moves the clock to an event at `time`; the first event at a new
    /// timestamp refreshes the availability snapshot if a rechoke or
    /// arrival dirtied it.
    fn advance_clock(&mut self, time: f64) {
        if time > self.clock {
            if self.snapshot_dirty {
                self.snapshot.clone_from(self.swarm.avail_index());
                self.snapshot_dirty = false;
            }
            self.clock = time;
        }
    }

    // ------------------------------------------------------------------
    // Settlement.
    // ------------------------------------------------------------------

    /// Settles edge `e` up to `tau`: accrues `flow · elapsed` into the
    /// edge's credit, rate window, and pending-deposit accumulators, and
    /// deposits the sender's upload totals immediately (sender-side
    /// addends within one interval are equal, so their order cannot
    /// matter; recipient-side deposits are deferred to `deposit_row` to
    /// preserve the round engine's accumulation order).
    fn settle_edge<O: RunObserver>(&mut self, e: usize, tau: f64, obs: &O) {
        let s = &mut self.edges[e];
        let f = s.flow;
        if f == 0.0 {
            s.last_settle = tau;
            return;
        }
        let dt = tau - s.last_settle;
        s.last_settle = tau;
        if dt <= 0.0 {
            return;
        }
        let delta = f * dt;
        s.credit += delta;
        s.pend_down += delta;
        let is_tft = s.ftft;
        if is_tft {
            s.pend_tft += delta;
        }
        self.window[e] += delta;
        let sender = self.swarm.edge_target(e);
        self.swarm.event_deposit_up(sender, delta, is_tft);
        if O::ENABLED {
            // `e` sits in the recipient's row; its reverse slot's target
            // is the row owner.
            let recipient = self.swarm.edge_target(self.swarm.edge_rev(e));
            obs.transfer(tau, sender, recipient, delta, is_tft);
        }
    }

    /// Settles every edge of `q`'s row to `tau` and flushes the pending
    /// download deposits — one add per edge in ascending slot order,
    /// reproducing the delivery pass's recipient-major accumulation.
    fn deposit_row<O: RunObserver>(&mut self, q: PeerId, tau: f64, obs: &O) {
        let (base, end) = self.swarm.row_bounds(q);
        for e in base..end {
            self.settle_edge(e, tau, obs);
            self.flush_pending(e, q);
        }
    }

    /// Deposits edge `e`'s pending download kbit into `owner`'s totals.
    fn flush_pending(&mut self, e: usize, owner: PeerId) {
        let s = &mut self.edges[e];
        let pd = s.pend_down;
        if pd == 0.0 {
            return;
        }
        let pt = s.pend_tft;
        s.pend_down = 0.0;
        s.pend_tft = 0.0;
        self.swarm.event_deposit_down(owner, pd, pt);
    }

    /// Settles and flushes every present peer's row at `tau` (horizon
    /// barrier for the driving methods), in ascending slot order.
    fn flush_all<O: RunObserver>(&mut self, tau: f64, obs: &O) {
        for p in 0..self.swarm.peer_count() {
            if self.swarm.is_present(p) {
                self.deposit_row(p, tau, obs);
            }
        }
    }

    // ------------------------------------------------------------------
    // Event handlers.
    // ------------------------------------------------------------------

    /// Rechoke tick for peer `p`: settle the closing interval, rank by
    /// the receipt window, re-plan outgoing flows at the planned share,
    /// snapshot the peer's pieces, and queue the next tick.
    fn fire_rechoke<O: RunObserver>(&mut self, p: PeerId, tick: u64, gen: u64, tau: f64, obs: &O) {
        if self.tag_of(p) != gen || !self.swarm.is_present(p) {
            return;
        }
        self.stats.rechokes += 1;
        if O::ENABLED {
            obs.rechoke_tick(tau, p);
        }
        self.deposit_row(p, tau, obs);
        let config = self.swarm.config();
        let cfg_seed = config.seed;
        let rotate = tick.is_multiple_of(u64::from(config.optimistic_period));
        let mut rng = streams::keyed(
            cfg_seed,
            streams::PEER_ROUND,
            streams::round_stream(tick, self.swarm.stream_of(p) as u64),
        );
        let mut targets = std::mem::take(&mut self.targets);
        targets.clear();
        targets.extend_from_slice(self.swarm.rechoke_peer(
            p,
            &mut rng,
            rotate,
            &self.window,
            tau,
            obs,
        ));
        // Re-plan this sender's outgoing edges: settle each before
        // overwriting its rate (settle-before-replan keeps same-timestamp
        // rechoke order immaterial), then re-key an unchoked edge's
        // crossing in place and drop a newly choked edge's. An edge that
        // stays choked has nothing to settle and no crossing queued.
        let (base, end) = self.swarm.row_bounds(p);
        let mult = self.timing.speed_multipliers[self.class[p] as usize];
        let share = self.swarm.peer(p).upload_kbps() * mult * self.timing.rechoke_interval
            / targets.len().max(1) as f64;
        for (k, e) in (base..end).enumerate() {
            let er = self.swarm.edge_rev(e);
            match targets.iter().find(|t| t.0 as usize == k) {
                Some(&(_, is_tft)) => {
                    self.settle_edge(er, tau, obs);
                    let s = &mut self.edges[er];
                    s.flow = share;
                    s.ftft = is_tft;
                    self.schedule_crossing(self.swarm.edge_target(e), er, tau);
                }
                None if self.edges[er].flow == 0.0 => {}
                None => {
                    self.settle_edge(er, tau, obs);
                    let s = &mut self.edges[er];
                    s.flow = 0.0;
                    s.ftft = false;
                    self.transfers.remove(er);
                }
            }
        }
        // The receipt window rolls over at the tick, after ranking.
        for e in base..end {
            self.window[e] = 0.0;
        }
        self.targets = targets;
        self.plan_pieces
            .copy_row(p, self.swarm.piece_arena().view(p));
        self.snapshot_dirty = true;
        self.push((tick + 1) as f64, K_RECHOKE, p as u64, tick + 1, gen);
    }

    /// Transfer event on edge `e` into recipient `q` (the queue head,
    /// still queued): settle, convert every whole piece of credit into
    /// rarest-first picks against the availability / sender snapshots,
    /// and re-key the edge to its next crossing, or drop it from the
    /// queue when none is due.
    fn fire_transfer<O: RunObserver>(&mut self, q: PeerId, e: usize, tau: f64, obs: &O) {
        self.stats.transfers += 1;
        self.settle_edge(e, tau, obs);
        let piece_size = self.swarm.config().piece_size_kbit;
        // Quantized crossings re-check exactly (the synchronous limit
        // must match the round engine's exact comparison); continuous
        // crossings accept an FP-relative shortfall, otherwise a
        // prediction that settles epsilon short of a piece would
        // re-predict a crossing at a time that cannot advance.
        let threshold = if self.quantum_intervals.is_some() {
            piece_size
        } else {
            piece_size * (1.0 - 1e-9)
        };
        let sender = self.swarm.edge_target(e);
        let stamp = round_equiv(tau);
        if self.swarm.land_event_pieces(
            q,
            &mut self.edges[e].credit,
            threshold,
            &self.snapshot,
            self.plan_pieces.row(sender),
            stamp,
            &mut self.picks,
            obs,
            tau,
        ) {
            self.on_completion(q, tau, stamp, obs);
        }
        let s = &self.edges[e];
        if s.flow > 0.0 && s.credit < threshold {
            self.schedule_crossing(q, e, tau);
        } else {
            self.transfers.remove(e);
        }
    }

    /// Predicts when edge `e`'s credit crosses one piece under its
    /// current flow and queues (or re-keys) the edge's crossing — at the
    /// exact continuous crossing, or snapped up to the next
    /// transfer-quantum multiple. A fired event re-checks the settled
    /// credit, so an early (FP-pessimistic) prediction self-corrects. A
    /// choked edge leaves the queue.
    fn schedule_crossing(&mut self, q: PeerId, e: usize, tau: f64) {
        let s = &self.edges[e];
        let f = s.flow;
        if f <= 0.0 {
            self.transfers.remove(e);
            return;
        }
        let piece_size = self.swarm.config().piece_size_kbit;
        let need = (piece_size - s.credit).max(0.0);
        let raw = tau + need / f;
        let time = match self.quantum_intervals {
            Some(qu) => {
                // In the synchronous limit `need <= share` exactly, so
                // `raw <= tau + 1` and the rounded crossing never lands
                // later than the round engine's delivery tick.
                let mut m = (raw / qu - 1e-9).ceil();
                if m * qu <= tau {
                    m = (tau / qu + 1e-9).floor() + 1.0;
                }
                m * qu
            }
            None => raw.max(tau),
        };
        // A crossing carries no sequence number, but the counter still
        // advances once per crossing: it keys the per-event churn,
        // announce and arrival streams.
        self.alloc_seq();
        self.transfers.set(time, q, e);
    }

    /// Completion bookkeeping: record the event, then draw the churn
    /// departure plan (leave immediately, or linger as a seed with a
    /// per-interval leave probability) from a fresh per-event stream.
    fn on_completion<O: RunObserver>(&mut self, q: PeerId, tau: f64, stamp: u64, obs: &O) {
        if O::ENABLED {
            obs.completed(tau, q);
        }
        let interval = self.timing.rechoke_interval;
        self.completions.push(CompletionRecord {
            slot: q as u32,
            class: self.class[q],
            arrival_time: self.arrival_time[q] * interval,
            completion_time: tau * interval,
            completion_round: stamp,
        });
        let (leave_p, linger_p, seed) = match &self.churn {
            Some(ch) => (
                ch.departure.leave_on_completion,
                ch.departure.seed_leave_prob,
                ch.session_seed,
            ),
            None => return,
        };
        if leave_p <= 0.0 && linger_p <= 0.0 {
            return;
        }
        let gen = self.tag_of(q);
        let sq = self.alloc_seq();
        let mut rng = streams::keyed(seed, streams::EVENT_SEQ, sq);
        if leave_p > 0.0 && rng.gen_bool(leave_p) {
            self.push(tau, K_DEPART, q as u64, 0, gen);
        } else if linger_p > 0.0 {
            let gap = round_prob_gap(&mut rng, linger_p);
            self.push(tau + gap, K_DEPART, q as u64, 0, gen);
        }
    }

    /// Departure of peer `d`: settle and flush its row, detach every
    /// edge (mirroring the swap-moves on the engine's per-edge arrays),
    /// and remove the peer. `only_if_incomplete` marks abort timers,
    /// which lapse once the download finished.
    fn fire_departure<O: RunObserver>(
        &mut self,
        d: PeerId,
        gen: u64,
        only_if_incomplete: bool,
        tau: f64,
        obs: &O,
    ) {
        if self.tag_of(d) != gen || !self.swarm.is_present(d) {
            return;
        }
        if only_if_incomplete && self.swarm.piece_arena().is_complete(d) {
            return;
        }
        self.stats.departures += 1;
        if O::ENABLED {
            obs.departure(tau, d);
        }
        self.deposit_row(d, tau, obs);
        while self.swarm.degree(d) > 0 {
            let k = self.swarm.degree(d) - 1;
            self.detach_edge(d, k, tau, obs);
        }
        self.swarm.depart(d);
    }

    /// Detaches the edge at local slot `k` of `p`'s row, mirroring
    /// [`Swarm::remove_edge_at`]'s q-side-then-p-side swap-moves on the
    /// engine's per-edge arrays. Both directions are settled and their
    /// pending deposits flushed first (the endpoints keep what was
    /// already transferred); displaced flowing edges get a rescheduled
    /// crossing under their new slot.
    fn detach_edge<O: RunObserver>(&mut self, p: PeerId, k: usize, tau: f64, obs: &O) {
        let (p_base, p_end) = self.swarm.row_bounds(p);
        let e = p_base + k;
        let q = self.swarm.edge_target(e);
        let er = self.swarm.edge_rev(e);
        let (_, q_end) = self.swarm.row_bounds(q);
        // Settle and flush the dying edge in both directions.
        for (slot, owner) in [(e, p), (er, q)] {
            self.settle_edge(slot, tau, obs);
            self.flush_pending(slot, owner);
        }
        // Mirror the q-side swap-move (q's last live edge into `er`).
        let q_last = q_end - 1;
        if er != q_last {
            self.move_edge_slot(q_last, er, q, tau);
        }
        self.clear_engine_slot(q_last, tau);
        // Mirror the p-side swap-move (p's last live edge into `e`).
        let p_last = p_end - 1;
        if e != p_last {
            self.move_edge_slot(p_last, e, p, tau);
        }
        self.clear_engine_slot(p_last, tau);
        self.swarm.remove_edge_at(p, k);
    }

    /// Moves per-edge engine state from `src` to `dst` (both in
    /// `owner`'s row) during a swap-remove. `src`'s crossing leaves the
    /// queue; `dst` takes a crossing re-predicted from the moved state,
    /// or none if the moved edge is choked.
    fn move_edge_slot(&mut self, src: usize, dst: usize, owner: PeerId, tau: f64) {
        self.edges[dst] = self.edges[src];
        self.window[dst] = self.window[src];
        self.transfers.remove(src);
        self.schedule_crossing(owner, dst, tau);
    }

    /// Zeroes all engine state of a vacated edge slot and drops its
    /// crossing.
    fn clear_engine_slot(&mut self, e: usize, tau: f64) {
        self.edges[e] = EdgeState::settled_at(tau);
        self.window[e] = 0.0;
        self.transfers.remove(e);
    }

    /// Arrival event: draw the newcomer's initial pieces from its
    /// per-event stream, admit it into the arena, wire it through the
    /// tracker, arm its churn timers, and align its first rechoke to the
    /// tick grid. Poisson arrivals chain the next inter-arrival gap from
    /// the same stream.
    fn fire_arrival<O: RunObserver>(&mut self, chain: bool, seq: u64, tau: f64, obs: &O) {
        // The handler lends the config out so it can be borrowed across
        // the `&mut self` calls below; nothing it calls reads `self.churn`.
        let Some(ch) = self.churn.take() else {
            return;
        };
        self.admit_arrival(&ch, chain, seq, tau, obs);
        self.churn = Some(ch);
    }

    fn admit_arrival<O: RunObserver>(
        &mut self,
        ch: &SessionConfig,
        chain: bool,
        seq: u64,
        tau: f64,
        obs: &O,
    ) {
        self.stats.arrivals += 1;
        let mut rng = streams::keyed(ch.session_seed, streams::EVENT_SEQ, seq);
        let pieces = tracker::draw_pieces(
            self.swarm.config().piece_count,
            ch.arrival_completion,
            &mut rng,
        );
        let complete = pieces.is_complete();
        let slot = self
            .swarm
            .arrive(ch.arrival_upload_kbps, PeerBehavior::Compliant, pieces);
        self.sync_capacity(tau);
        let classes = self.timing.speed_multipliers.len() as u64;
        self.class[slot] = (self.arrival_counter % classes) as u32;
        self.arrival_counter += 1;
        self.arrival_time[slot] = tau;
        self.plan_pieces
            .copy_row(slot, self.swarm.piece_arena().view(slot));
        // The newcomer changes availability: piece picks after this
        // timestamp must see it.
        self.snapshot_dirty = true;
        let gen = self.tag_of(slot);
        if O::ENABLED {
            obs.arrival(tau, slot);
        }
        self.wire(slot, ch, &mut rng, tau);
        if !complete && ch.departure.abort_prob > 0.0 {
            let gap = round_prob_gap(&mut rng, ch.departure.abort_prob);
            self.push(tau + gap, K_DEPART, slot as u64, 1, gen);
        }
        if complete && ch.departure.seed_leave_prob > 0.0 {
            let gap = round_prob_gap(&mut rng, ch.departure.seed_leave_prob);
            self.push(tau + gap, K_DEPART, slot as u64, 0, gen);
        }
        // First rechoke on the tick grid: at `tau` itself when the
        // arrival lands on a tick, else at the next tick.
        let rounded = tau.round();
        let tick = if (tau - rounded).abs() < 1e-9 {
            rounded as u64
        } else {
            tau.ceil() as u64
        };
        self.push(tick as f64, K_RECHOKE, slot as u64, tick, gen);
        if let Some(ai) = self.announce_intervals {
            self.push(tau + ai, K_ANNOUNCE, slot as u64, 0, gen);
        }
        let rate = match ch.arrival {
            ArrivalProcess::Poisson { rate } => rate,
            _ => 0.0,
        };
        if chain && rate > 0.0 {
            let gap = exp_gap(&mut rng, 1.0 / rate);
            self.push(tau + gap, K_ARRIVAL, 0, 1, 0);
        }
    }

    /// Tracker announce: one tracker request for the peer (a no-op at or
    /// above the churn target degree); then queue the next announce.
    fn fire_announce<O: RunObserver>(&mut self, p: PeerId, gen: u64, seq: u64, tau: f64, obs: &O) {
        if self.tag_of(p) != gen || !self.swarm.is_present(p) {
            return;
        }
        self.stats.announces += 1;
        if O::ENABLED {
            obs.announce(tau, p);
        }
        let Some(ch) = self.churn.take() else {
            return;
        };
        let mut rng = streams::keyed(ch.session_seed, streams::EVENT_SEQ, seq);
        self.wire(p, &ch, &mut rng, tau);
        self.churn = Some(ch);
        if let Some(ai) = self.announce_intervals {
            self.push(tau + ai, K_ANNOUNCE, p as u64, 0, gen);
        }
    }

    /// One tracker request for `slot` ([`tracker::wire`]) under the churn
    /// config's target degree and peer-list cap, then fresh engine state
    /// for the new edges: `connect_peers` appends each edge at the end of
    /// both rows, so the new slots are `slot`'s row tail and their
    /// reverses.
    fn wire(&mut self, slot: PeerId, ch: &SessionConfig, rng: &mut ChaCha8Rng, tau: f64) {
        let old_end = self.swarm.row_bounds(slot).1;
        tracker::wire(
            &mut self.swarm,
            slot,
            ch.target_degree,
            ch.peer_list_cap,
            false,
            rng,
            &mut self.wire_scratch,
        );
        for e in old_end..self.swarm.row_bounds(slot).1 {
            for s in [e, self.swarm.edge_rev(e)] {
                self.clear_engine_slot(s, tau);
            }
        }
    }

    /// Grows the engine's per-peer / per-edge arrays to match the arena
    /// after an arrival (which may have appended slots or overlay rows).
    fn sync_capacity(&mut self, tau: f64) {
        let n = self.swarm.peer_count();
        let m = self.swarm.edge_arena_len();
        if self.class.len() < n {
            self.class.resize(n, 0);
            self.arrival_time.resize(n, 0.0);
            self.plan_pieces.resize(n);
        }
        if self.edges.len() < m {
            self.edges.resize(m, EdgeState::settled_at(tau));
            self.window.resize(m, 0.0);
            self.transfers.grow(m);
        }
    }

    // ------------------------------------------------------------------
    // Plumbing.
    // ------------------------------------------------------------------

    /// Guard tag of peer `p`'s queued events: the arena's generation tag,
    /// which every arrival into the slot bumps.
    fn tag_of(&self, p: PeerId) -> u64 {
        u64::from(self.swarm.generation_of(p))
    }

    /// Queues a non-transfer event, assigning the next global sequence
    /// number.
    fn push(&mut self, time: f64, kind: u8, a: u64, b: u64, tag: u64) {
        assert!(
            a >> KIND_SHIFT == 0,
            "event payload {a} overflows its field"
        );
        let seq = self.alloc_seq();
        self.heap.push(Reverse(Ev {
            time: time_key(time),
            kind_a: u64::from(kind) << KIND_SHIFT | a,
            b,
            seq,
            tag,
        }));
    }

    /// Allocates a global sequence number (every number keys one
    /// independent ChaCha stream, whether or not an event carries it).
    fn alloc_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// The wrapped swarm (every public accessor remains valid).
    #[must_use]
    pub fn swarm(&self) -> &Swarm {
        &self.swarm
    }

    /// Cumulative event counters.
    #[must_use]
    pub fn stats(&self) -> &EventStats {
        &self.stats
    }

    /// Download completions recorded so far, in completion order.
    #[must_use]
    pub fn completions(&self) -> &[CompletionRecord] {
        &self.completions
    }

    /// Current simulated time in seconds.
    #[must_use]
    pub fn clock_seconds(&self) -> f64 {
        self.clock * self.timing.rechoke_interval
    }

    /// The timing axis in force.
    #[must_use]
    pub fn timing(&self) -> &EventTiming {
        &self.timing
    }

    /// Number of present peers.
    #[must_use]
    pub fn present_count(&self) -> usize {
        self.swarm.population().total()
    }

    /// Speed class of peer `p`.
    #[must_use]
    pub fn class_of(&self, p: PeerId) -> u32 {
        self.class[p]
    }
}

/// The event time in completed-round units: `ceil(tau)` with an FP
/// slack so tick-boundary timestamps map to their own tick — equals the
/// round engine's `round + 1` completion stamp in the synchronous
/// limit.
fn round_equiv(tau: f64) -> u64 {
    let r = (tau - 1e-9).ceil();
    if r <= 0.0 {
        0
    } else {
        r as u64
    }
}

/// One exponential inter-event gap with the given mean (interval
/// units).
fn exp_gap(rng: &mut ChaCha8Rng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -mean * (1.0 - u).ln()
}

/// Exponential gap equivalent to a per-interval Bernoulli probability
/// `p`: the continuous-time rate `-ln(1 - p)` per interval preserves
/// the per-interval survival probability of the round-based draw.
fn round_prob_gap(rng: &mut ChaCha8Rng, p: f64) -> f64 {
    if p >= 1.0 {
        return 0.0;
    }
    let rate = -(-p).ln_1p();
    if rate <= 0.0 {
        return f64::INFINITY;
    }
    exp_gap(rng, 1.0 / rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SwarmConfig;

    fn build_swarm(seed: u64) -> Swarm {
        let config = SwarmConfig::builder()
            .leechers(30)
            .seeds(2)
            .piece_count(48)
            .piece_size_kbit(180.0)
            .mean_neighbors(9.0)
            .initial_completion(0.35)
            .seed(seed)
            .build();
        let uploads: Vec<f64> = (0..32).map(|i| 120.0 + 31.0 * i as f64).collect();
        Swarm::new(config, &uploads)
    }

    #[test]
    fn synchronous_limit_matches_round_engine_state() {
        for seed in [3u64, 11, 2007] {
            let mut oracle = build_swarm(seed);
            let rs = oracle.config().round_seconds;
            let mut engine =
                EventEngine::new(build_swarm(seed), EventTiming::synchronous_limit(rs), None);
            for _ in 0..3 {
                oracle.run_rounds_parallel(7, 4);
                engine.run_sync_rounds(7);
                let ev = engine.swarm();
                for p in 0..oracle.peer_count() {
                    let (a, b) = (oracle.peer(p), ev.peer(p));
                    assert_eq!(a.pieces(), b.pieces(), "pieces diverged at peer {p}");
                    assert_eq!(
                        a.completed_round(),
                        b.completed_round(),
                        "completion stamp diverged at peer {p}"
                    );
                    assert!(
                        a.total_uploaded() == b.total_uploaded()
                            && a.total_downloaded() == b.total_downloaded()
                            && a.tft_uploaded() == b.tft_uploaded()
                            && a.tft_downloaded() == b.tft_downloaded(),
                        "transfer totals diverged at peer {p}"
                    );
                }
                assert_eq!(oracle.availability(), ev.availability());
                assert_eq!(oracle.completed(), ev.completed());
            }
        }
    }

    #[test]
    fn event_determinism_same_seed_same_history() {
        let timing = EventTiming {
            rechoke_interval: 10.0,
            transfer_quantum: None,
            announce_interval: Some(25.0),
            speed_multipliers: vec![0.5, 1.0, 2.0],
        };
        let churn = SessionConfig {
            arrival: ArrivalProcess::Poisson { rate: 0.8 },
            ..SessionConfig::default()
        };
        let run = || {
            let mut engine = EventEngine::new(build_swarm(7), timing.clone(), Some(churn.clone()));
            engine.run_for(400.0);
            (
                *engine.stats(),
                engine.completions().to_vec(),
                engine.present_count(),
            )
        };
        let (s1, c1, n1) = run();
        let (s2, c2, n2) = run();
        assert_eq!(s1, s2);
        assert_eq!(n1, n2);
        assert_eq!(c1.len(), c2.len());
        for (a, b) in c1.iter().zip(&c2) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn heterogeneous_speeds_order_class_completion() {
        // Three classes at 1:2:4 speed; faster classes should finish
        // (weakly) earlier on average.
        let timing = EventTiming {
            rechoke_interval: 10.0,
            transfer_quantum: None,
            announce_interval: None,
            speed_multipliers: vec![1.0, 2.0, 4.0],
        };
        let mut engine = EventEngine::new(build_swarm(5), timing, None);
        engine.run_for(4000.0);
        let mut sums = [0.0f64; 3];
        let mut counts = [0u32; 3];
        for rec in engine.completions() {
            sums[rec.class as usize] += rec.completion_time;
            counts[rec.class as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "every class completes");
        let means: Vec<f64> = (0..3).map(|c| sums[c] / f64::from(counts[c])).collect();
        assert!(
            means[0] > means[2],
            "4x-speed class should finish before 1x ({means:?})"
        );
    }

    #[test]
    fn churned_engine_keeps_arena_invariants() {
        let timing = EventTiming {
            rechoke_interval: 10.0,
            transfer_quantum: Some(5.0),
            announce_interval: Some(30.0),
            speed_multipliers: vec![0.5, 2.0],
        };
        let churn = SessionConfig {
            arrival: ArrivalProcess::Poisson { rate: 1.2 },
            departure: crate::session::DepartureRules {
                leave_on_completion: 0.5,
                seed_leave_prob: 0.1,
                seed_exodus_round: None,
                abort_prob: 0.01,
            },
            ..SessionConfig::default()
        };
        let mut engine = EventEngine::new(build_swarm(13), timing, Some(churn));
        for _ in 0..8 {
            engine.run_for(50.0);
            engine.swarm().check_invariants();
        }
        assert!(engine.stats().arrivals > 0);
        assert!(engine.stats().departures > 0);
    }

    #[test]
    fn timing_validation_rejects_bad_axes() {
        let mut t = EventTiming::default();
        assert!(t.validate().is_ok());
        t.rechoke_interval = 0.0;
        assert!(t.validate().is_err());
        t = EventTiming::default();
        t.speed_multipliers.clear();
        assert!(t.validate().is_err());
        t = EventTiming {
            speed_multipliers: vec![1.0, -2.0],
            ..EventTiming::default()
        };
        assert!(t.validate().is_err());
        t = EventTiming {
            transfer_quantum: Some(f64::NAN),
            ..EventTiming::default()
        };
        assert!(t.validate().is_err());
    }
}
