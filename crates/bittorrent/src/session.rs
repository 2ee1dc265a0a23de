//! Open-membership session layer: population turnover over the swarm
//! engine.
//!
//! The closed [`Swarm`] simulates a fixed population; live
//! BitTorrent swarms are **open** — leechers arrive (Poisson trickle,
//! flash-crowd burst, or a recorded trace), complete, linger as seeds and
//! leave. Xu's fluid model (arXiv 1311.1195) gives closed-form
//! leecher/seed trajectories for exactly this regime, and the `btchurn`
//! experiment validates this layer against it.
//!
//! A [`Session`] drives the swarm's membership primitives between rounds:
//!
//! * **arrivals** ([`ArrivalProcess`]) admit empty leechers through
//!   [`Swarm::arrive`](crate::Swarm::arrive) and wire each to
//!   `target_degree` random present peers (tracker-style rewiring that
//!   patches the overlay incrementally);
//! * **departures** ([`DepartureRules`]) remove peers through
//!   [`Swarm::depart`](crate::Swarm::depart): leave-on-completion,
//!   lingering promoted seeds leaving at a per-round probability,
//!   mid-download aborts, and a *seed exodus* that withdraws the original
//!   seeds at a fixed round;
//! * arena slots are reused through the swarm's free list;
//!   [`SessionPeerId`] pairs a slot with the arena's **generation** tag
//!   for it, so stale handles never alias a reincarnated slot.
//!
//! The swarm arena keeps the one membership ledger (the present list the
//! tracker samples, generation tags, stream order), so a session holds
//! only lifecycle state: arrival rounds, completion and leave decisions,
//! and the publisher squad.
//!
//! # Determinism contract
//!
//! All session randomness comes from per-event ChaCha streams keyed
//! `(session_seed, round, event)` — event 0 is the round's departure
//! pass, event 1 the arrival count, event `2 + i` the wiring of the
//! `i`-th arrival. No event ever touches the swarm's own streams (the
//! shared serial stream or the `(seed, round, peer)` streams of the
//! parallel rounds), so:
//!
//! * a session whose processes are all inert is **bit-identical** to the
//!   closed engine, serial and parallel, at any thread count;
//! * session runs are bit-reproducible for any thread count, because
//!   events execute serially between rounds and the rounds themselves
//!   honour the `strat-par` contract.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::faults::{fault_rng, FaultPlan, CRASH_EVENT, REPAIR_EVENT};
use crate::observer::{NullObserver, RunObserver};
use crate::tracker;
use crate::{PeerBehavior, PeerId, Population, Swarm};

/// One independent ChaCha stream per `(round, event)` pair — the session
/// analogue of the engine's `(seed, round, peer)` streams, under its own
/// domain separator so the two families never collide. The stream id
/// packs the round in the high 32 bits and the event index in the low 32.
fn event_rng(seed: u64, round: u64, event: u64) -> ChaCha8Rng {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7365_7373_696f_6e5f); // "session_"
    rng.set_stream((round << 32) | event);
    rng
}

/// Samples a Poisson count with mean `lambda` by Knuth's product method,
/// chunked (Poisson additivity) so the per-chunk exponential never
/// underflows and the draw count stays `O(lambda)`.
fn poisson(rng: &mut ChaCha8Rng, lambda: f64) -> u64 {
    debug_assert!(lambda.is_finite() && lambda >= 0.0);
    let mut remaining = lambda;
    let mut total = 0u64;
    while remaining > 0.0 {
        let chunk = remaining.min(16.0);
        remaining -= chunk;
        let limit = (-chunk).exp();
        let mut product = 1.0f64;
        loop {
            product *= rng.gen_range(0.0..1.0);
            if product <= limit {
                break;
            }
            total += 1;
        }
    }
    total
}

/// How new leechers enter the swarm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ArrivalProcess {
    /// No arrivals (closed population).
    None,
    /// Poisson arrivals with mean `rate` peers per round.
    Poisson {
        /// Expected arrivals per round.
        rate: f64,
    },
    /// A flash crowd: `count` peers arrive together at `round`.
    Burst {
        /// Round of the burst.
        round: u64,
        /// Peers in the burst.
        count: u32,
    },
    /// An explicit arrival trace: `(round, count)` entries, summed per
    /// round.
    Trace {
        /// Arrival schedule.
        arrivals: Vec<(u64, u32)>,
    },
}

impl ArrivalProcess {
    /// Number of arrivals at `round`; Poisson draws come from `rng`.
    fn count_at(&self, round: u64, rng: &mut ChaCha8Rng) -> u64 {
        match self {
            ArrivalProcess::None => 0,
            ArrivalProcess::Poisson { rate } => poisson(rng, *rate),
            ArrivalProcess::Burst { round: at, count } => {
                if *at == round {
                    u64::from(*count)
                } else {
                    0
                }
            }
            ArrivalProcess::Trace { arrivals } => arrivals
                .iter()
                .filter(|(r, _)| *r == round)
                .map(|(_, c)| u64::from(*c))
                .sum(),
        }
    }

    /// Whether this process can **never** produce an arrival.
    fn is_inert(&self) -> bool {
        match self {
            ArrivalProcess::None => true,
            ArrivalProcess::Poisson { rate } => *rate == 0.0,
            ArrivalProcess::Burst { count, .. } => *count == 0,
            ArrivalProcess::Trace { arrivals } => arrivals.iter().all(|(_, c)| *c == 0),
        }
    }
}

/// When peers leave the swarm.
///
/// The *lingering seed* rule (`seed_leave_prob`) applies to **promoted**
/// seeds — leechers that completed and stayed, and session arrivals that
/// entered already complete; only the initial population's original
/// seeds (the *publisher squad* a tracker operator keeps alive, the
/// fluid-model comparison's constant seed-capacity term) are exempt,
/// staying until the `seed_exodus_round`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DepartureRules {
    /// Probability that a leecher departs the round after completing.
    pub leave_on_completion: f64,
    /// Per-round departure probability of promoted (lingering) seeds.
    pub seed_leave_prob: f64,
    /// Round at which every original seed departs, if any.
    pub seed_exodus_round: Option<u64>,
    /// Per-round probability that an incomplete leecher aborts.
    pub abort_prob: f64,
}

impl DepartureRules {
    /// Rules under which nobody ever leaves.
    #[must_use]
    pub fn none() -> Self {
        Self {
            leave_on_completion: 0.0,
            seed_leave_prob: 0.0,
            seed_exodus_round: None,
            abort_prob: 0.0,
        }
    }

    /// Whether these rules can **never** remove a peer.
    fn is_inert(&self) -> bool {
        self.leave_on_completion == 0.0
            && self.seed_leave_prob == 0.0
            && self.seed_exodus_round.is_none()
            && self.abort_prob == 0.0
    }
}

/// Parameters of an open-membership session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Arrival process of new leechers.
    pub arrival: ArrivalProcess,
    /// Departure rules.
    pub departure: DepartureRules,
    /// Upload capacity handed to every arrival (kbps).
    pub arrival_upload_kbps: f64,
    /// Fraction of the file an arrival already holds (drawn i.i.d. per
    /// piece from its wiring stream; `0.0` = empty, the flash-crowd
    /// realism default).
    pub arrival_completion: f64,
    /// Overlay neighbours the tracker hands each arrival.
    pub target_degree: usize,
    /// Seed of the session's `(seed, round, event)` streams.
    pub session_seed: u64,
    /// Tracker peer-list cap: the maximum number of *candidate* peers
    /// the tracker hands out per wiring request (Al-Hamra et al.,
    /// *Understanding the Properties of the BitTorrent Overlay*). `None`
    /// (the default, and the legacy behaviour) lets wiring consider the
    /// whole present population; `Some(c)` draws at most `c` uniform
    /// candidates per request, so a peer can connect to at most
    /// `min(c, target_degree)` neighbours per announce and the overlay
    /// gets sparser and wider as `c` shrinks. `None` is bit-identical to
    /// pre-cap builds. The cap applies to every tracker request: arrival
    /// and join wiring as well as fault repair.
    #[serde(default)]
    pub peer_list_cap: Option<usize>,
    /// Arena-compaction trigger: when the dead-slot fraction
    /// `swarm.dead_slots() / swarm.peer_count()` reaches this threshold
    /// at the end of a round, the session compacts the arena
    /// ([`Swarm::compact`](crate::Swarm::compact)) and remaps its own
    /// slot-keyed state. `None` (the default) never compacts and is
    /// bit-identical to pre-compaction builds on every path.
    ///
    /// Compaction renames arena slots, so it invalidates every
    /// outstanding [`SessionPeerId`] (resolution fails cleanly — the
    /// surviving slots take fresh generations) and renames the slots an
    /// observer sees. Under the **indexed** round semantics
    /// ([`Session::run_rounds_parallel`]) a compacting session stays
    /// bit-identical to its non-compacting twin — peers keep their
    /// stream identities and the session passes iterate in stream order
    /// — except under slot-parity partitions or transfer loss, whose
    /// draws are keyed by slot/edge position. Serial-round sessions
    /// diverge once churn resumes (the serial engine draws from one
    /// shared stream in slot order).
    #[serde(default)]
    pub compact_threshold: Option<f64>,
}

impl Default for SessionConfig {
    /// A closed session: no arrivals, no departures, empty arrivals at
    /// 1000 kbps wired to 20 neighbours, seed `0x5e55`.
    fn default() -> Self {
        Self {
            arrival: ArrivalProcess::None,
            departure: DepartureRules::none(),
            arrival_upload_kbps: 1000.0,
            arrival_completion: 0.0,
            target_degree: 20,
            session_seed: 0x5e55,
            peer_list_cap: None,
            compact_threshold: None,
        }
    }
}

impl SessionConfig {
    /// Checks every configuration constraint [`Session::new`] enforces —
    /// the **single source of truth** both the panicking constructor and
    /// the scenario layer's error path (`Scenario::build_session`) share,
    /// so the two can never drift.
    ///
    /// # Errors
    ///
    /// Returns a human-readable constraint violation.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("leave_on_completion", self.departure.leave_on_completion),
            ("seed_leave_prob", self.departure.seed_leave_prob),
            ("abort_prob", self.departure.abort_prob),
            ("arrival_completion", self.arrival_completion),
        ] {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(format!("{name} must be a probability in [0, 1], got {p}"));
            }
        }
        if let ArrivalProcess::Poisson { rate } = self.arrival {
            if !(rate.is_finite() && rate >= 0.0) {
                return Err(format!(
                    "arrival rate must be non-negative and finite, got {rate}"
                ));
            }
        }
        if !(self.arrival_upload_kbps.is_finite() && self.arrival_upload_kbps > 0.0) {
            return Err(format!(
                "arrival upload capacity must be positive kbps, got {}",
                self.arrival_upload_kbps
            ));
        }
        if self.target_degree == 0 {
            return Err("target degree must be positive".to_string());
        }
        if self.peer_list_cap == Some(0) {
            return Err("peer_list_cap must be positive when set (None = uncapped)".to_string());
        }
        if let Some(t) = self.compact_threshold {
            if !(t.is_finite() && 0.0 < t && t <= 1.0) {
                return Err(format!(
                    "compact_threshold must be in (0, 1] when set (None = never), got {t}"
                ));
            }
        }
        Ok(())
    }
}

/// Generation-tagged peer handle: the arena `slot` plus the `generation`
/// the slot had when the handle was issued. A handle goes stale the
/// moment its slot is recycled by a later arrival, so sessions can keep
/// references across churn without aliasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SessionPeerId {
    /// Arena slot.
    pub slot: u32,
    /// Generation of the slot at issue time.
    pub generation: u32,
}

/// Why a peer left the swarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DepartReason {
    /// Left right after completing (`leave_on_completion`).
    Completed,
    /// A promoted seed's lingering period ended (`seed_leave_prob`).
    SeedLeft,
    /// The original-seed squad withdrew (`seed_exodus_round`).
    SeedExodus,
    /// An incomplete leecher aborted (`abort_prob`).
    Aborted,
    /// The fault plane crashed the peer (`FaultPlan::crash_prob`) — an
    /// abrupt departure with no graceful-lifecycle draws.
    Crashed,
    /// An external driver withdrew the peer ([`Session::leave`]) — the
    /// universe layer removing a member's replica when its home-torrent
    /// occupant departs.
    Left,
}

/// Cumulative session statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Peers admitted by the arrival process.
    pub arrivals: u64,
    /// Peers removed, by any rule.
    pub departures: u64,
    /// Download completions observed (including initial-population peers).
    pub completions: u64,
    /// Mid-download aborts.
    pub aborted: u64,
    /// Original seeds withdrawn by the exodus.
    pub seed_exodus: u64,
    /// Fault-plane crashes (abrupt departures).
    pub crashes: u64,
    /// Arrivals whose announce hit a tracker outage and was queued.
    pub deferred_announces: u64,
    /// Announce retry attempts performed by queued arrivals (successful
    /// admissions included).
    pub announce_retries: u64,
    /// Overlay edges added by the reconnect-to-target-degree repair pass.
    pub repaired_edges: u64,
    /// `(arrival_round, completed_round)` per completion, in completion
    /// order — the raw material of the per-cohort metrics.
    pub completion_records: Vec<(u64, u64)>,
}

impl SessionStats {
    /// Mean download time (rounds from arrival to completion) over every
    /// recorded completion; `None` before the first one.
    #[must_use]
    pub fn mean_download_rounds(&self) -> Option<f64> {
        if self.completion_records.is_empty() {
            return None;
        }
        let sum: f64 = self
            .completion_records
            .iter()
            .map(|&(a, c)| (c - a) as f64)
            .sum();
        Some(sum / self.completion_records.len() as f64)
    }
}

/// Completion summary of one arrival wave (see
/// [`Session::cohort_completions`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CohortCompletion {
    /// First round of the cohort's arrival window.
    pub window_start: u64,
    /// Completions recorded for peers that arrived in the window.
    pub completed: usize,
    /// Mean download time (rounds) of those completions.
    pub mean_download_rounds: f64,
}

/// An open-membership swarm: the engine plus the arrival/departure
/// processes driving its membership (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use strat_bittorrent::session::{ArrivalProcess, DepartureRules, Session, SessionConfig};
/// use strat_bittorrent::{Swarm, SwarmConfig};
///
/// let config = SwarmConfig::builder()
///     .leechers(30)
///     .seeds(2)
///     .piece_count(64)
///     .piece_size_kbit(200.0)
///     .seed(9)
///     .build();
/// let swarm = Swarm::new(config, &vec![400.0; 32]);
/// let mut session = Session::new(
///     swarm,
///     SessionConfig {
///         arrival: ArrivalProcess::Poisson { rate: 2.0 },
///         departure: DepartureRules {
///             seed_leave_prob: 0.3,
///             ..DepartureRules::none()
///         },
///         arrival_upload_kbps: 400.0,
///         ..SessionConfig::default()
///     },
/// );
/// session.run_rounds(40);
/// let pop = session.population();
/// assert!(pop.total() > 0);
/// assert!(session.stats().arrivals > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    swarm: Swarm,
    config: SessionConfig,
    /// Round at which the slot's current occupant arrived.
    arrival_round: Vec<u64>,
    /// Whether the occupant's completion has been recorded in the stats.
    completion_recorded: Vec<bool>,
    /// Whether the occupant already faced its leave-on-completion draw.
    leave_decided: Vec<bool>,
    /// Whether the slot's current occupant belongs to the **publisher
    /// squad** — the initial population's original seeds, exempt from
    /// every departure rule except the exodus. Session arrivals are never
    /// publishers, even when they arrive holding the complete file (such
    /// peers behave like freshly promoted seeds and stay mortal).
    publisher: Vec<bool>,
    stats: SessionStats,
    /// True when both processes are inert — the zero-churn fast path that
    /// keeps the session bit-identical to the closed engine.
    inert: bool,
    /// The fault schedule (see [`crate::faults`]).
    faults: FaultPlan,
    /// True when the plan injects anything; every fault hook is gated on
    /// this, so inert plans leave the session bit-identical to one built
    /// without a plan.
    faults_active: bool,
    /// Arrivals whose announce hit a tracker outage, waiting to retry.
    pending: Vec<PendingAnnounce>,
    /// Reusable candidate buffer of capped tracker requests.
    wire_scratch: Vec<u32>,
    /// Reusable buffer for the per-slot passes' iteration order.
    pass_buf: Vec<u32>,
    /// Arena compactions performed so far.
    compactions: u64,
    /// When set, [`Session::admit_arrival`] records each admission's
    /// handle for [`Session::drain_recent_arrivals`] (the universe
    /// layer's claim pass). Off by default: the unobserved session keeps
    /// zero bookkeeping.
    track_arrivals: bool,
    /// Handles admitted since the last drain (only filled while
    /// `track_arrivals` is set).
    recent_arrivals: Vec<SessionPeerId>,
}

/// An arrival queued behind a tracker outage: it keeps its own arrival
/// event stream (jitter draws now, piece/wiring draws at admission) and
/// retries with exponential backoff until the tracker answers.
#[derive(Debug, Clone)]
struct PendingAnnounce {
    /// The arrival's `(seed, round, 2 + i)` event stream, carried across
    /// retries.
    rng: ChaCha8Rng,
    /// Failed announce attempts so far (caps the backoff exponent).
    attempt: u32,
    /// First round the next retry may fire.
    next_retry: u64,
}

/// Exponential backoff with deterministic jitter: `2^min(attempt, 6)`
/// rounds plus a uniform draw of the same magnitude from the arrival's
/// own event stream.
fn backoff_delay(attempt: u32, rng: &mut ChaCha8Rng) -> u64 {
    let base = 1u64 << attempt.min(6);
    base + rng.gen_range(0..base)
}

impl Session {
    /// Wraps a (piece-mode) swarm in an open-membership session. Reserves
    /// overlay slack so tracker rewiring has room to splice edges.
    ///
    /// # Panics
    ///
    /// Panics on a fluid-content swarm (open membership needs completions,
    /// which fluid mode models away), a non-positive arrival capacity, an
    /// out-of-range probability, or a zero target degree.
    #[must_use]
    pub fn new(swarm: Swarm, config: SessionConfig) -> Self {
        Self::with_faults(swarm, config, FaultPlan::none())
    }

    /// Wraps a swarm in a session carrying a fault schedule (see
    /// [`crate::faults`]). An inert plan ([`FaultPlan::is_inert`])
    /// produces a session bit-identical to [`Session::new`]'s.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Session::new`], or on an
    /// invalid plan ([`FaultPlan::validate`]).
    #[must_use]
    pub fn with_faults(mut swarm: Swarm, config: SessionConfig, faults: FaultPlan) -> Self {
        assert!(
            !swarm.config().fluid_content,
            "open membership requires piece mode (fluid content never completes)"
        );
        if let Err(reason) = config.validate() {
            panic!("invalid session configuration: {reason}");
        }
        if let Err(reason) = faults.validate() {
            panic!("invalid fault plan: {reason}");
        }
        let inert = config.arrival.is_inert() && config.departure.is_inert();
        let faults_active = !faults.is_inert();
        if !inert || faults_active {
            swarm.reserve_overlay_slack(config.target_degree.max(4));
        }
        if faults.loss_prob > 0.0 {
            swarm.set_transfer_loss(faults.loss_prob, faults.fault_seed);
        }
        let n = swarm.peer_count();
        let publisher: Vec<bool> = (0..n).map(|p| swarm.peer(p).is_original_seed()).collect();
        Self {
            swarm,
            config,
            arrival_round: vec![0; n],
            completion_recorded: vec![false; n],
            leave_decided: vec![false; n],
            publisher,
            stats: SessionStats::default(),
            inert,
            faults,
            faults_active,
            pending: Vec::new(),
            wire_scratch: Vec::new(),
            pass_buf: Vec::new(),
            compactions: 0,
            track_arrivals: false,
            recent_arrivals: Vec::new(),
        }
    }

    /// Arena compactions performed so far (see
    /// [`SessionConfig::compact_threshold`]).
    #[must_use]
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Reserves overlay slack for externally driven joins
    /// ([`Session::join_with`]) the way the constructor does for churned
    /// sessions. The universe layer calls this on every session of a
    /// multi-torrent universe; a single-torrent universe never does, so
    /// it stays bit-identical to the plain session.
    pub fn reserve_join_slack(&mut self) {
        self.swarm
            .reserve_overlay_slack(self.config.target_degree.max(4));
    }

    /// The fault schedule in force (the inert plan when none was given).
    #[must_use]
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Arrivals currently queued behind a tracker outage.
    #[must_use]
    pub fn pending_announces(&self) -> usize {
        self.pending.len()
    }

    /// The underlying swarm (read access).
    #[must_use]
    pub fn swarm(&self) -> &Swarm {
        &self.swarm
    }

    /// The session configuration.
    #[must_use]
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Rounds simulated so far.
    #[must_use]
    pub fn round_count(&self) -> u64 {
        self.swarm.round_count()
    }

    /// The present-population split (forwarded from the swarm's
    /// incremental counters).
    #[must_use]
    pub fn population(&self) -> Population {
        self.swarm.population()
    }

    /// The generation-tagged handle of arena slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn id_of(&self, slot: PeerId) -> SessionPeerId {
        SessionPeerId {
            slot: slot as u32,
            generation: self.swarm.generation_of(slot),
        }
    }

    /// Resolves a handle back to its arena slot, or `None` if the slot has
    /// been recycled since (or its occupant departed).
    #[must_use]
    pub fn resolve(&self, id: SessionPeerId) -> Option<PeerId> {
        let slot = id.slot as usize;
        (slot < self.swarm.peer_count()
            && self.swarm.generation_of(slot) == id.generation
            && self.swarm.is_present(slot))
        .then_some(slot)
    }

    /// Round the occupant of `slot` arrived (0 for the initial
    /// population).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn arrival_round_of(&self, slot: PeerId) -> u64 {
        self.arrival_round[slot]
    }

    /// Completion summaries bucketed by arrival wave: completions whose
    /// peer arrived in `[k·window, (k+1)·window)` aggregate into cohort
    /// `k`. Empty cohorts are omitted.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn cohort_completions(&self, window: u64) -> Vec<CohortCompletion> {
        assert!(window > 0, "cohort window must be positive");
        let mut cohorts: Vec<(u64, usize, f64)> = Vec::new();
        for &(arrived, completed) in &self.stats.completion_records {
            let start = (arrived / window) * window;
            let dt = (completed - arrived) as f64;
            match cohorts.iter_mut().find(|(s, _, _)| *s == start) {
                Some((_, count, sum)) => {
                    *count += 1;
                    *sum += dt;
                }
                None => cohorts.push((start, 1, dt)),
            }
        }
        cohorts.sort_unstable_by_key(|&(s, _, _)| s);
        cohorts
            .into_iter()
            .map(|(window_start, completed, sum)| CohortCompletion {
                window_start,
                completed,
                mean_download_rounds: sum / completed as f64,
            })
            .collect()
    }

    /// Runs `rounds` rounds under the serial round semantics
    /// ([`Swarm::round`]), with the session's membership events before
    /// each round.
    pub fn run_rounds(&mut self, rounds: u64) {
        self.run_rounds_with(rounds, &NullObserver);
    }

    /// [`run_rounds`](Self::run_rounds) with a [`RunObserver`] tap on
    /// membership events (arrivals, departures, crashes) and the swarm
    /// round. Observers are pure taps: attaching one changes no session
    /// state and consumes no randomness.
    pub fn run_rounds_with<O: RunObserver>(&mut self, rounds: u64, obs: &O) {
        for _ in 0..rounds {
            self.step_round(None, obs);
        }
    }

    /// Runs `rounds` rounds under the indexed-stream semantics
    /// ([`Swarm::run_rounds_parallel`]) across up to `threads` workers.
    /// Bit-identical for any thread count.
    pub fn run_rounds_parallel(&mut self, rounds: u64, threads: usize) {
        self.run_rounds_parallel_with(rounds, threads, &NullObserver);
    }

    /// [`run_rounds_parallel`](Self::run_rounds_parallel) with a
    /// [`RunObserver`] tap.
    pub fn run_rounds_parallel_with<O: RunObserver>(
        &mut self,
        rounds: u64,
        threads: usize,
        obs: &O,
    ) {
        for _ in 0..rounds {
            self.step_round(Some(threads), obs);
        }
    }

    /// One session step: graceful departures, then fault events (crash
    /// pass, partition cuts), then arrivals (queued during outages),
    /// announce retries, the overlay-repair pass, one swarm round
    /// (serial when `threads` is `None`), and completion recording.
    /// Every fault hook is gated on the plan being non-inert, so the
    /// zero-fault step is exactly the PR 5 session step.
    fn step_round<O: RunObserver>(&mut self, threads: Option<usize>, obs: &O) {
        self.membership_pass_with(obs);
        self.round_pass_with(threads, obs);
    }

    /// The membership half of one session step: graceful departures,
    /// fault events (crash pass, partition cuts), arrivals (queued
    /// during outages), announce retries, and the overlay-repair pass —
    /// everything that runs *before* the swarm round.
    /// [`round_pass_with`](Self::round_pass_with) is the other
    /// half; running the two back to back is exactly one
    /// [`run_rounds`](Self::run_rounds) step, so a driver that
    /// interleaves its own work between the halves (the universe layer's
    /// claim/rebalance passes) stays bit-identical to a plain session
    /// whenever that work touches no session state.
    pub fn membership_pass_with<O: RunObserver>(&mut self, obs: &O) {
        let round = self.swarm.round_count();
        if !self.inert {
            self.departure_pass(round, obs);
        }
        if self.faults_active {
            self.fault_pass(round, obs);
        }
        if !self.inert {
            self.arrival_pass(round, obs);
        }
        if self.faults_active {
            self.retry_pass(round, obs);
        }
        if self.faults_active {
            self.repair_pass(round);
        }
    }

    /// The round half of one session step: one swarm round (serial when
    /// `threads` is `None`, indexed-stream parallel otherwise),
    /// completion recording, and the end-of-round compaction check. See
    /// [`membership_pass_with`](Self::membership_pass_with).
    pub fn round_pass_with<O: RunObserver>(&mut self, threads: Option<usize>, obs: &O) {
        match threads {
            None => self.swarm.round_with(obs),
            Some(t) => self.swarm.run_rounds_parallel_with(1, t, obs),
        }
        self.record_completions();
        self.maybe_compact();
    }

    /// Turns arrival tracking on or off (off by default). While on,
    /// every admission records its generation-tagged handle for
    /// [`drain_recent_arrivals`](Self::drain_recent_arrivals); the
    /// universe layer's claim pass runs on this. Tracking is pure
    /// bookkeeping — it changes no session state and consumes no
    /// randomness.
    pub fn track_arrivals(&mut self, on: bool) {
        self.track_arrivals = on;
        if !on {
            self.recent_arrivals.clear();
        }
    }

    /// Takes the handles admitted since the last drain, in admission
    /// order. Empty unless [`track_arrivals`](Self::track_arrivals) is
    /// on.
    pub fn drain_recent_arrivals(&mut self) -> Vec<SessionPeerId> {
        std::mem::take(&mut self.recent_arrivals)
    }

    /// Admits one externally driven peer — the cross-swarm tracker's
    /// join — with the given upload capacity, drawing its initial pieces
    /// (i.i.d. per piece at `completion`) and tracker wiring from the
    /// **caller's** stream. The join honours `target_degree` and
    /// `peer_list_cap` exactly like a session arrival, counts in
    /// `stats.arrivals`, and returns the generation-tagged handle. It is
    /// *not* recorded for [`drain_recent_arrivals`]: the universe layer
    /// claims session arrivals, not its own joins.
    ///
    /// [`drain_recent_arrivals`]: Self::drain_recent_arrivals
    ///
    /// # Panics
    ///
    /// Panics if `upload_kbps` is non-positive or `completion` is not a
    /// probability.
    pub fn join_with<O: RunObserver>(
        &mut self,
        upload_kbps: f64,
        completion: f64,
        rng: &mut ChaCha8Rng,
        obs: &O,
    ) -> SessionPeerId {
        assert!(
            completion.is_finite() && (0.0..=1.0).contains(&completion),
            "join completion must be a probability in [0, 1], got {completion}"
        );
        let round = self.swarm.round_count();
        let slot = self.admit(upload_kbps, completion, rng, round, obs);
        self.id_of(slot)
    }

    /// Withdraws the peer behind `id` — the cross-swarm tracker's leave,
    /// recorded as [`DepartReason::Left`]. Returns `false` without
    /// changes when the handle is stale (slot recycled or occupant
    /// already gone).
    pub fn leave<O: RunObserver>(&mut self, id: SessionPeerId, obs: &O) -> bool {
        let Some(slot) = self.resolve(id) else {
            return false;
        };
        self.depart(slot, DepartReason::Left, obs);
        true
    }

    /// Sets the upload capacity of the peer behind `id` — the universe
    /// layer's per-rechoke capacity-split write. Returns `false` without
    /// changes when the handle is stale.
    ///
    /// # Panics
    ///
    /// Panics if `kbps` is non-positive.
    pub fn set_upload_kbps(&mut self, id: SessionPeerId, kbps: f64) -> bool {
        let Some(slot) = self.resolve(id) else {
            return false;
        };
        self.swarm.set_upload_kbps(slot, kbps);
        true
    }

    /// Present slots in **indexed-stream order** — the iteration order of
    /// every per-slot session pass, so a compacting session's sequential
    /// event streams (departure/crash draws, completion-record order)
    /// reach the same peers as its non-compacting twin's. The caller
    /// returns the buffer through `self.pass_buf` when done.
    fn take_pass_order(&mut self) -> Vec<u32> {
        let mut order = std::mem::take(&mut self.pass_buf);
        self.swarm.present_in_stream_order(&mut order);
        order
    }

    /// End-of-round compaction check: once the dead-slot fraction
    /// reaches `config.compact_threshold`, compact the swarm arena (which
    /// remaps its own ledger and lifts every generation tag, invalidating
    /// outstanding [`SessionPeerId`]s) and remap the session's slot-keyed
    /// lifecycle state along the old→new slot map.
    fn maybe_compact(&mut self) {
        let Some(threshold) = self.config.compact_threshold else {
            return;
        };
        let n = self.swarm.peer_count();
        let dead = self.swarm.dead_slots();
        if dead == 0 || (dead as f64) < threshold * n as f64 {
            return;
        }
        let remap = self.swarm.compact();
        fn retain_live<T>(remap: &[u32], v: &mut Vec<T>) {
            let mut i = 0;
            v.retain(|_| {
                let keep = remap[i] != u32::MAX;
                i += 1;
                keep
            });
        }
        retain_live(&remap, &mut self.arrival_round);
        retain_live(&remap, &mut self.completion_recorded);
        retain_live(&remap, &mut self.leave_decided);
        retain_live(&remap, &mut self.publisher);
        self.compactions += 1;
    }

    /// Fault event [`CRASH_EVENT`] of the round, plus partition cuts.
    /// Crashes hit every present non-publisher peer independently (the
    /// publisher squad pins the fluid oracle's `s0`, and crashing it
    /// would conflate content death with overlay degradation); a crash
    /// severs the peer's overlay row abruptly — no completion record, no
    /// graceful-leave draws. A partition window starting this round cuts
    /// every edge between the even and odd arena halves.
    fn fault_pass<O: RunObserver>(&mut self, round: u64, obs: &O) {
        if self.faults.crash_prob > 0.0 {
            let mut rng = fault_rng(self.faults.fault_seed, round, CRASH_EVENT);
            let order = self.take_pass_order();
            for &p in &order {
                let p = p as usize;
                if !self.publisher[p] && rng.gen_bool(self.faults.crash_prob) {
                    self.depart(p, DepartReason::Crashed, obs);
                }
            }
            self.pass_buf = order;
        }
        if self.faults.partition_starts_at(round) {
            self.sever_partition();
        }
    }

    /// Cuts every overlay edge between the even and odd arena halves —
    /// pure graph surgery, no randomness.
    fn sever_partition(&mut self) {
        for p in 0..self.swarm.live_slot_bound() {
            if !self.swarm.is_present(p) {
                continue;
            }
            let cross: Vec<PeerId> = self
                .swarm
                .neighbors(p)
                .filter(|&q| FaultPlan::cross_partition(p, q))
                .collect();
            for q in cross {
                self.swarm.disconnect_peers(p, q);
            }
        }
    }

    /// Processes the pending-announce queue in insertion order: entries
    /// whose backoff expired retry now — admission if the tracker is up,
    /// another backoff draw (from the entry's own stream) if not.
    fn retry_pass<O: RunObserver>(&mut self, round: u64, obs: &O) {
        if self.pending.is_empty() {
            return;
        }
        let tracker_up = !self.faults.outage_active(round);
        let mut still = Vec::new();
        for mut entry in std::mem::take(&mut self.pending) {
            if entry.next_retry > round {
                still.push(entry);
                continue;
            }
            self.stats.announce_retries += 1;
            if tracker_up {
                self.admit_arrival(entry.rng, round, obs);
            } else {
                entry.attempt += 1;
                entry.next_retry = round + backoff_delay(entry.attempt, &mut entry.rng);
                still.push(entry);
            }
        }
        self.pending = still;
    }

    /// Fault event [`REPAIR_EVENT`] of the round: reconnect-to-target-
    /// degree repair. Peers left under the tracker wiring degree by
    /// crashes or partition cuts ask the tracker for fresh contacts —
    /// so the pass only runs for plans that damage the overlay
    /// ([`FaultPlan::repair_enabled`]), and only while the tracker is
    /// up. While a partition is active, cross-half candidates are
    /// refused and the degree ceiling halves (the tracker's candidate
    /// list is only half usable) — which is what makes the heal
    /// observable: the under-degree survivors re-announce on the first
    /// healed round, and their unrestricted candidate draws bridge the
    /// halves back into one component. Each under-degree peer makes one
    /// tracker request, so the peer-list cap bounds its repair too.
    fn repair_pass(&mut self, round: u64) {
        if !self.faults.repair_enabled() || self.faults.outage_active(round) {
            return;
        }
        let mut rng = fault_rng(self.faults.fault_seed, round, REPAIR_EVENT);
        let order = self.take_pass_order();
        for &p in &order {
            self.stats.repaired_edges += self.wire(p as usize, &mut rng, round) as u64;
        }
        self.pass_buf = order;
    }

    /// Event 0 of the round: the departure pass, slots in ascending order.
    fn departure_pass<O: RunObserver>(&mut self, round: u64, obs: &O) {
        let rules = self.config.departure;
        if rules.is_inert() {
            return;
        }
        let mut rng = event_rng(self.config.session_seed, round, 0);
        let exodus_now = rules.seed_exodus_round == Some(round);
        let order = self.take_pass_order();
        for &p in &order {
            let p = p as usize;
            if self.publisher[p] {
                if exodus_now {
                    self.depart(p, DepartReason::SeedExodus, obs);
                }
                continue;
            }
            if self.swarm.peer(p).pieces().is_complete() {
                if !self.leave_decided[p] {
                    self.leave_decided[p] = true;
                    if rules.leave_on_completion > 0.0 && rng.gen_bool(rules.leave_on_completion) {
                        self.depart(p, DepartReason::Completed, obs);
                    }
                } else if rules.seed_leave_prob > 0.0 && rng.gen_bool(rules.seed_leave_prob) {
                    self.depart(p, DepartReason::SeedLeft, obs);
                }
            } else if rules.abort_prob > 0.0 && rng.gen_bool(rules.abort_prob) {
                self.depart(p, DepartReason::Aborted, obs);
            }
        }
        self.pass_buf = order;
    }

    /// Events 1 and `2 + i` of the round: the arrival count, then one
    /// wiring stream per admitted peer. When a tracker outage is active,
    /// each would-be arrival queues a [`PendingAnnounce`] instead —
    /// carrying its own event stream, so its eventual admission draws
    /// the exact pieces/wiring randomness its stream would have
    /// produced (shifted by the backoff draws).
    fn arrival_pass<O: RunObserver>(&mut self, round: u64, obs: &O) {
        let count = {
            let mut rng = event_rng(self.config.session_seed, round, 1);
            self.config.arrival.count_at(round, &mut rng)
        };
        let outage = self.faults_active && self.faults.outage_active(round);
        for i in 0..count {
            let mut rng = event_rng(self.config.session_seed, round, 2 + i);
            if outage {
                let next_retry = round + backoff_delay(0, &mut rng);
                self.pending.push(PendingAnnounce {
                    rng,
                    attempt: 0,
                    next_retry,
                });
                self.stats.deferred_announces += 1;
                continue;
            }
            self.admit_arrival(rng, round, obs);
        }
    }

    /// Admits one session arrival, drawing its initial pieces and
    /// tracker wiring from `rng` (the arrival's own event stream, whether
    /// fresh or carried through an outage queue).
    fn admit_arrival<O: RunObserver>(&mut self, mut rng: ChaCha8Rng, round: u64, obs: &O) {
        let upload = self.config.arrival_upload_kbps;
        let completion = self.config.arrival_completion;
        let slot = self.admit(upload, completion, &mut rng, round, obs);
        if self.track_arrivals {
            self.recent_arrivals.push(self.id_of(slot));
        }
    }

    /// The one admission body of arrivals and joins: draw the initial
    /// pieces, take an arena slot, reset its lifecycle state, and make
    /// one tracker request — all from `rng`.
    fn admit<O: RunObserver>(
        &mut self,
        upload_kbps: f64,
        completion: f64,
        rng: &mut ChaCha8Rng,
        round: u64,
        obs: &O,
    ) -> PeerId {
        let pieces = tracker::draw_pieces(self.swarm.config().piece_count, completion, rng);
        let slot = self
            .swarm
            .arrive(upload_kbps, PeerBehavior::Compliant, pieces);
        if slot == self.arrival_round.len() {
            self.arrival_round.push(0);
            self.completion_recorded.push(false);
            self.leave_decided.push(false);
            self.publisher.push(false);
        }
        self.arrival_round[slot] = round;
        self.completion_recorded[slot] = false;
        self.leave_decided[slot] = false;
        // Session arrivals are never publishers, complete or not.
        self.publisher[slot] = false;
        self.stats.arrivals += 1;
        if O::ENABLED {
            obs.arrival(round as f64, slot);
        }
        self.wire(slot, rng, round);
        slot
    }

    /// One tracker request for `slot` ([`tracker::wire`]) over the
    /// present peers, at the wiring degree in force and under the
    /// configured peer-list cap; while a partition is active the tracker
    /// refuses cross-half candidates. Returns the edges added.
    fn wire(&mut self, slot: PeerId, rng: &mut ChaCha8Rng, round: u64) -> usize {
        let partitioned = self.faults_active && self.faults.partition_active(round);
        let target = self.effective_target(partitioned);
        tracker::wire(
            &mut self.swarm,
            slot,
            target,
            self.config.peer_list_cap,
            partitioned,
            rng,
            &mut self.wire_scratch,
        )
    }

    /// The tracker wiring degree in force: the configured target, halved
    /// (rounded up) while a partition makes half the candidate list
    /// unreachable.
    fn effective_target(&self, partitioned: bool) -> usize {
        if partitioned {
            self.config.target_degree.div_ceil(2)
        } else {
            self.config.target_degree
        }
    }

    /// Removes `p` and records the departure.
    fn depart<O: RunObserver>(&mut self, p: PeerId, reason: DepartReason, obs: &O) {
        match reason {
            DepartReason::Crashed => self.swarm.crash(p),
            _ => self.swarm.depart(p),
        }
        if O::ENABLED {
            let t = self.swarm.round_count() as f64;
            match reason {
                DepartReason::Crashed => obs.crash(t, p),
                _ => obs.departure(t, p),
            }
        }
        self.stats.departures += 1;
        match reason {
            DepartReason::Aborted => self.stats.aborted += 1,
            DepartReason::SeedExodus => self.stats.seed_exodus += 1,
            DepartReason::Crashed => self.stats.crashes += 1,
            DepartReason::Completed | DepartReason::SeedLeft | DepartReason::Left => {}
        }
    }

    /// Records download completions that happened during the last round
    /// (non-original peers only — arriving seeds never "complete").
    fn record_completions(&mut self) {
        let order = self.take_pass_order();
        for &p in &order {
            let p = p as usize;
            if self.completion_recorded[p] {
                continue;
            }
            let peer = self.swarm.peer(p);
            if peer.is_original_seed() {
                continue;
            }
            if let Some(completed) = peer.completed_round() {
                self.completion_recorded[p] = true;
                self.stats.completions += 1;
                self.stats
                    .completion_records
                    .push((self.arrival_round[p], completed));
            }
        }
        self.pass_buf = order;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SwarmConfig;

    fn base_swarm(leechers: usize, seeds: usize, seed: u64) -> Swarm {
        let n = leechers + seeds;
        let cfg = SwarmConfig::builder()
            .leechers(leechers)
            .seeds(seeds)
            .piece_count(48)
            .piece_size_kbit(200.0)
            .mean_neighbors(10.0)
            .initial_completion(0.3)
            .seed(seed)
            .build();
        Swarm::new(cfg, &vec![400.0; n])
    }

    #[test]
    fn poisson_mean_is_about_lambda() {
        let mut rng = event_rng(1, 0, 0);
        for lambda in [0.5, 3.0, 25.0] {
            let draws = 4000;
            let total: u64 = (0..draws).map(|_| poisson(&mut rng, lambda)).sum();
            let mean = total as f64 / draws as f64;
            assert!(
                (mean - lambda).abs() < 0.15 * lambda + 0.05,
                "lambda {lambda}: mean {mean}"
            );
        }
    }

    #[test]
    fn arrivals_grow_population_and_are_wired() {
        let swarm = base_swarm(20, 2, 3);
        let mut session = Session::new(
            swarm,
            SessionConfig {
                arrival: ArrivalProcess::Poisson { rate: 3.0 },
                arrival_upload_kbps: 300.0,
                target_degree: 6,
                ..SessionConfig::default()
            },
        );
        session.run_rounds(10);
        assert!(session.stats().arrivals > 10);
        assert!(session.population().total() > 22);
        session.swarm().validate_consistency();
        // Arrivals got overlay edges.
        let mut wired = 0;
        for p in 22..session.swarm().peer_count() {
            if session.swarm().is_present(p) {
                assert!(session.swarm().degree(p) > 0, "arrival {p} left unwired");
                wired += 1;
            }
        }
        assert!(wired > 0);
    }

    #[test]
    fn burst_process_fires_once() {
        let swarm = base_swarm(10, 1, 4);
        let mut session = Session::new(
            swarm,
            SessionConfig {
                arrival: ArrivalProcess::Burst {
                    round: 3,
                    count: 25,
                },
                ..SessionConfig::default()
            },
        );
        session.run_rounds(3);
        assert_eq!(session.stats().arrivals, 0);
        session.run_rounds(1);
        assert_eq!(session.stats().arrivals, 25);
        session.run_rounds(5);
        assert_eq!(session.stats().arrivals, 25);
        session.swarm().validate_consistency();
    }

    #[test]
    fn trace_process_follows_schedule() {
        let swarm = base_swarm(10, 1, 5);
        let mut session = Session::new(
            swarm,
            SessionConfig {
                arrival: ArrivalProcess::Trace {
                    arrivals: vec![(1, 2), (4, 3), (4, 1)],
                },
                ..SessionConfig::default()
            },
        );
        session.run_rounds(6);
        assert_eq!(session.stats().arrivals, 6);
    }

    #[test]
    fn seed_exodus_withdraws_original_seeds() {
        let swarm = base_swarm(12, 3, 6);
        let mut session = Session::new(
            swarm,
            SessionConfig {
                departure: DepartureRules {
                    seed_exodus_round: Some(4),
                    ..DepartureRules::none()
                },
                ..SessionConfig::default()
            },
        );
        session.run_rounds(4);
        assert_eq!(session.stats().seed_exodus, 0);
        session.run_rounds(1);
        assert_eq!(session.stats().seed_exodus, 3);
        for p in 12..15 {
            assert!(!session.swarm().is_present(p));
        }
        session.swarm().validate_consistency();
    }

    #[test]
    fn completions_are_recorded_and_promoted_seeds_leave() {
        let n = 16;
        let cfg = SwarmConfig::builder()
            .leechers(n - 1)
            .seeds(1)
            .piece_count(16)
            .piece_size_kbit(50.0)
            .mean_neighbors(8.0)
            .initial_completion(0.7)
            .seed(8)
            .build();
        let swarm = Swarm::new(cfg, &vec![2000.0; n]);
        let mut session = Session::new(
            swarm,
            SessionConfig {
                departure: DepartureRules {
                    seed_leave_prob: 0.5,
                    ..DepartureRules::none()
                },
                ..SessionConfig::default()
            },
        );
        session.run_rounds(40);
        assert!(session.stats().completions > 0);
        assert!(session.stats().departures > 0);
        assert!(session.stats().mean_download_rounds().is_some());
        let cohorts = session.cohort_completions(10);
        assert!(!cohorts.is_empty());
        assert_eq!(cohorts[0].window_start, 0);
        session.swarm().validate_consistency();
    }

    #[test]
    fn complete_arrivals_are_mortal_promoted_seeds() {
        // An arrival that enters holding the whole file must not join the
        // immortal publisher squad: the lingering-seed rule applies.
        let swarm = base_swarm(10, 1, 14);
        let mut session = Session::new(
            swarm,
            SessionConfig {
                arrival: ArrivalProcess::Burst { round: 1, count: 4 },
                arrival_completion: 1.0, // arrivals draw every piece
                departure: DepartureRules {
                    seed_leave_prob: 1.0,
                    ..DepartureRules::none()
                },
                ..SessionConfig::default()
            },
        );
        session.run_rounds(1);
        assert_eq!(session.stats().arrivals, 0);
        session.run_rounds(1); // burst lands at round 1
        assert_eq!(session.stats().arrivals, 4);
        // Next passes: decision round, then the certain seed-leave draw.
        session.run_rounds(3);
        assert!(
            session.stats().departures >= 4,
            "complete arrivals never departed: {:?}",
            session.stats()
        );
        // The true publisher (the initial seed) is still there.
        assert!(session.swarm().is_present(10));
        session.swarm().validate_consistency();
    }

    #[test]
    fn wiring_samples_present_peers_even_in_a_sparse_arena() {
        // Shrink the present population far below the arena size, then
        // admit a peer: it must still come out fully wired.
        let swarm = base_swarm(60, 2, 15);
        let mut session = Session::new(
            swarm,
            SessionConfig {
                arrival: ArrivalProcess::Burst { round: 3, count: 2 },
                departure: DepartureRules {
                    abort_prob: 0.9, // empties most of the arena fast
                    ..DepartureRules::none()
                },
                target_degree: 6,
                ..SessionConfig::default()
            },
        );
        session.run_rounds(4);
        assert!(
            session.population().total() < 30,
            "population did not shrink: {:?}",
            session.population()
        );
        assert_eq!(session.stats().arrivals, 2);
        let arrivals: Vec<usize> = (62..session.swarm().peer_count())
            .chain(0..62)
            .filter(|&p| session.swarm().is_present(p) && session.arrival_round_of(p) == 3)
            .collect();
        for p in arrivals {
            if session.swarm().is_present(p) {
                assert!(
                    session.swarm().degree(p) >= 3,
                    "arrival {p} under-wired: degree {}",
                    session.swarm().degree(p)
                );
            }
        }
        session.swarm().validate_consistency();
    }

    #[test]
    fn generation_tags_invalidate_recycled_slots() {
        let swarm = base_swarm(10, 1, 9);
        let mut session = Session::new(
            swarm,
            SessionConfig {
                arrival: ArrivalProcess::Burst { round: 1, count: 1 },
                departure: DepartureRules {
                    abort_prob: 1.0,
                    ..DepartureRules::none()
                },
                ..SessionConfig::default()
            },
        );
        // Round 0: nothing. Round 1: every incomplete leecher aborts, then
        // one arrival lands in a recycled slot.
        let stale = session.id_of(0);
        assert_eq!(session.resolve(stale), Some(0));
        session.run_rounds(2);
        assert!(session.stats().departures > 0);
        assert_eq!(
            session.resolve(stale),
            None,
            "stale handle must not resolve"
        );
        session.swarm().validate_consistency();
    }

    #[test]
    fn parallel_session_is_thread_count_independent() {
        let run = |threads: usize| {
            let swarm = base_swarm(18, 2, 11);
            let mut session = Session::new(
                swarm,
                SessionConfig {
                    arrival: ArrivalProcess::Poisson { rate: 2.0 },
                    departure: DepartureRules {
                        seed_leave_prob: 0.3,
                        abort_prob: 0.02,
                        ..DepartureRules::none()
                    },
                    arrival_upload_kbps: 350.0,
                    target_degree: 8,
                    ..SessionConfig::default()
                },
            );
            session.run_rounds_parallel(15, threads);
            let swarm = session.swarm();
            let state: Vec<(bool, f64, usize)> = (0..swarm.peer_count())
                .map(|p| {
                    (
                        swarm.is_present(p),
                        swarm.peer(p).total_downloaded(),
                        swarm.peer(p).pieces().count(),
                    )
                })
                .collect();
            (
                state,
                swarm.availability().to_vec(),
                session.stats().clone(),
            )
        };
        let baseline = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), baseline, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "piece mode")]
    fn fluid_swarms_are_rejected() {
        let cfg = SwarmConfig::builder()
            .leechers(5)
            .seeds(1)
            .fluid_content(true)
            .build();
        let swarm = Swarm::new(cfg, &[100.0; 6]);
        let _ = Session::new(swarm, SessionConfig::default());
    }
}
