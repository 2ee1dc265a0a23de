//! Multi-swarm universe: one shared peer population across many torrents.
//!
//! Production trackers serve thousands of torrents over a single peer
//! population; the paper's stratification theory is stated per swarm. This
//! module runs a set of [`Session`]s — one per torrent — over **shared
//! members**, so cross-swarm questions become askable: does a peer's
//! bandwidth class cluster consistently in *every* torrent it joins?
//!
//! A [`Universe`] member is born when a session's arrival process admits a
//! peer (the *claim pass* adopts the arrival, its session becomes the
//! member's **home torrent**) and may join extra torrents chosen by the
//! [`MembershipModel`] ∝ per-torrent popularity weights. Each membership
//! is an ordinary session peer — a *replica* — tracked by its
//! generation-tagged [`SessionPeerId`], so the sessions' own churn,
//! tracker wiring and peer-list caps apply unchanged. The member's upload
//! capacity is **split** across its active replicas by the
//! [`CapacitySplit`] policy at every rechoke boundary; when a replica
//! departs (its torrent's churn rules) the survivors re-absorb its share,
//! and when the *home* occupant departs the member leaves the universe —
//! its replicas are withdrawn everywhere.
//!
//! # Determinism contract
//!
//! Universe randomness lives in its own keyed ChaCha streams
//! (`universe_seed` under the `"universe"` domain separator, stream
//! `(round, event)`), and every per-torrent stream family is keyed by
//! [`derive_seed`]`(base, torrent)` with `derive_seed(base, 0) == base`.
//! The claim, sync and rebalance passes either consume only universe
//! streams or write values that are bitwise no-ops for single-membership
//! members — so a **1-torrent universe with no capacity classes is
//! bit-identical to the plain [`Session`]**, serial and parallel, at any
//! thread count (`tests/universe_differential.rs`). Multi-torrent runs
//! are bit-reproducible for any thread count for the same reason the
//! sessions are, and because the passes that run torrents concurrently
//! (see [`Universe::step`]) touch only their own session.
//!
//! Sessions with [`compact_threshold`] set are rejected: compaction
//! invalidates outstanding handles wholesale, and the universe keeps
//! handles across rounds.
//!
//! [`compact_threshold`]: crate::session::SessionConfig::compact_threshold

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::observer::{NullObserver, RunObserver, UNTRACKED_CLASS};
use crate::session::{Session, SessionPeerId};
use crate::streams;

/// Derives the per-torrent seed of a keyed stream family: torrent 0 keeps
/// the base seed exactly (the 1-torrent bit-identity anchor), and the
/// golden-ratio multiply decorrelates the rest.
#[must_use]
pub fn derive_seed(base: u64, torrent: u64) -> u64 {
    base ^ torrent.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Stream of a round's claim pass (adoption of session arrivals plus
/// their extra-membership draws and joins, in torrent-then-arrival
/// order).
const CLAIM_EVENT: u64 = 0;
/// Stream of the construction-time membership draws for the initial
/// populations.
const INIT_EVENT: u64 = 1;

/// How many torrents a member joins beyond its home torrent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MembershipModel {
    /// Every member joins exactly `extra` additional torrents (capped at
    /// `torrents − 1`), drawn without replacement ∝ popularity weight.
    /// `extra: 0` keeps every member in its home torrent only (the
    /// degenerate universe: `T` independent sessions).
    Fixed {
        /// Additional torrents per member.
        extra: usize,
    },
}

/// How a member's upload capacity is split across its active replicas at
/// each rechoke boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum CapacitySplit {
    /// Every active replica gets `capacity / active_count`.
    EqualShare,
    /// Replicas are weighted by *demand* — `1 + missing piece count` in
    /// their torrent — so a member pours capacity into the torrents it is
    /// still downloading and tapers towards torrents it seeds. RNG-free
    /// and recomputed every round from swarm state, so the split is
    /// deterministic.
    DemandWeighted,
}

/// Parameters of a [`Universe`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct UniverseConfig {
    /// Per-member multi-torrent membership process.
    pub membership: MembershipModel,
    /// Capacity-split policy across a member's active replicas.
    pub split: CapacitySplit,
    /// Capacity classes assigned to members round-robin in claim order.
    /// Empty (the default) keeps each member at the capacity its home
    /// session handed it — the bit-identity configuration.
    pub class_upload_kbps: Vec<f64>,
    /// Per-torrent popularity weights driving the extra-membership draws.
    /// Empty means uniform; otherwise the length must equal the torrent
    /// count, every weight must be positive and their sum finite.
    pub popularity: Vec<f64>,
    /// Seed of the universe's `(round, event)` streams.
    pub universe_seed: u64,
}

impl Default for UniverseConfig {
    /// Home-torrent-only membership (`Fixed { extra: 0 }`), equal split,
    /// no capacity classes, uniform popularity, seed `0x0a11`.
    fn default() -> Self {
        Self {
            membership: MembershipModel::Fixed { extra: 0 },
            split: CapacitySplit::EqualShare,
            class_upload_kbps: Vec::new(),
            popularity: Vec::new(),
            universe_seed: 0x0a11,
        }
    }
}

impl UniverseConfig {
    /// Checks every constraint [`Universe::new`] enforces — the single
    /// source of truth shared with the scenario layer's error path.
    ///
    /// # Errors
    ///
    /// Returns a human-readable constraint violation.
    pub fn validate(&self, torrents: usize) -> Result<(), String> {
        if torrents == 0 {
            return Err("a universe needs at least one torrent".to_string());
        }
        for &c in &self.class_upload_kbps {
            if !(c.is_finite() && c > 0.0) {
                return Err(format!("class capacities must be positive kbps, got {c}"));
            }
        }
        if !self.popularity.is_empty() {
            if self.popularity.len() != torrents {
                return Err(format!(
                    "popularity weights must cover every torrent: got {} weights for {torrents} torrents",
                    self.popularity.len()
                ));
            }
            for &w in &self.popularity {
                if !(w.is_finite() && w > 0.0) {
                    return Err(format!("popularity weights must be positive, got {w}"));
                }
            }
            // The extra-torrent draw samples below the weights' sum; an
            // overflowing sum would make every draw pick the first candidate.
            let total: f64 = self.popularity.iter().sum();
            if !total.is_finite() {
                return Err(format!(
                    "popularity weights must have a finite sum, got {total}"
                ));
            }
        }
        Ok(())
    }
}

/// One membership of a member: the torrent plus the generation-tagged
/// handle of its session peer.
#[derive(Debug, Clone)]
struct Replica {
    torrent: u32,
    id: SessionPeerId,
    /// False once the occupant departed (own churn or withdrawal). A
    /// membership's completion is recorded once, in the step whose round
    /// stamped it ([`Session::fresh_completion`]).
    active: bool,
}

/// A universe member: class, capacity, and its replicas (home first).
#[derive(Debug, Clone)]
struct Member {
    /// Capacity-class index, or [`UNTRACKED_CLASS`] for publisher seeds.
    class: u32,
    /// Total upload capacity split across the active replicas (kbps).
    capacity: f64,
    /// False once the home occupant departed.
    active: bool,
    replicas: Vec<Replica>,
}

/// One `(member, torrent)` completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct UniverseCompletion {
    /// Member index.
    pub member: u32,
    /// Torrent the download completed in.
    pub torrent: u32,
    /// The member's capacity class ([`UNTRACKED_CLASS`] for publishers —
    /// which never complete, so it does not occur in practice).
    pub class: u32,
    /// Round the member joined that torrent.
    pub arrival_round: u64,
    /// Round the download completed.
    pub completed_round: u64,
}

/// Cumulative universe statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct UniverseStats {
    /// Members ever claimed (initial populations included).
    pub members: u64,
    /// Replicas created in non-home torrents.
    pub cross_joins: u64,
    /// Members whose home occupant departed (their replicas were
    /// withdrawn everywhere).
    pub member_departures: u64,
    /// Non-home replicas that departed through their own torrent's churn.
    pub replica_departures: u64,
    /// Per-(member, torrent) completions recorded.
    pub completions: u64,
    /// The completion records, in recording order.
    pub completion_records: Vec<UniverseCompletion>,
}

/// `slot_member` sentinel for unclaimed slots.
const NO_MEMBER: u32 = u32::MAX;

/// A set of swarms over one shared peer population (see the
/// [module docs](self)).
///
/// # Examples
///
/// ```
/// use strat_bittorrent::session::{ArrivalProcess, Session, SessionConfig};
/// use strat_bittorrent::universe::{
///     derive_seed, CapacitySplit, MembershipModel, Universe, UniverseConfig,
/// };
/// use strat_bittorrent::{Swarm, SwarmConfig};
///
/// let sessions: Vec<Session> = (0..3)
///     .map(|t| {
///         let config = SwarmConfig::builder()
///             .leechers(12)
///             .seeds(2)
///             .piece_count(32)
///             .piece_size_kbit(100.0)
///             .seed(derive_seed(7, t))
///             .build();
///         let swarm = Swarm::new(config, &vec![400.0; 14]);
///         Session::new(
///             swarm,
///             SessionConfig {
///                 arrival: ArrivalProcess::Poisson { rate: 1.0 },
///                 session_seed: derive_seed(0x5e55, t),
///                 ..SessionConfig::default()
///             },
///         )
///     })
///     .collect();
/// let mut universe = Universe::new(
///     sessions,
///     UniverseConfig {
///         membership: MembershipModel::Fixed { extra: 1 },
///         split: CapacitySplit::EqualShare,
///         ..UniverseConfig::default()
///     },
/// );
/// universe.run_rounds(20, None);
/// assert!(universe.stats().cross_joins > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Universe {
    sessions: Vec<Session>,
    config: UniverseConfig,
    /// Resolved popularity weights (uniform when the config left them
    /// empty).
    popularity: Vec<f64>,
    members: Vec<Member>,
    /// Per-torrent `slot → member` map ([`NO_MEMBER`] when unclaimed).
    slot_member: Vec<Vec<u32>>,
    /// Round-robin cursor over `class_upload_kbps`, in claim order.
    class_counter: u64,
    /// Rounds stepped so far (all sessions advance in lockstep).
    round: u64,
    stats: UniverseStats,
    /// Rebalance scratch, reused across members and rounds: one member's
    /// active `(torrent, handle)` replicas and their split weights.
    split_active: Vec<(usize, SessionPeerId)>,
    split_weights: Vec<f64>,
}

impl Universe {
    /// Wraps pre-built sessions — one per torrent — into a universe and
    /// claims their initial populations as members (publisher seeds stay
    /// single-torrent and untracked; initial leechers draw extra
    /// memberships from the construction stream). Multi-torrent
    /// universes reserve overlay slack in every session so cross-swarm
    /// joins have room to wire; a 1-torrent universe leaves its session
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics when `sessions` is empty, the configuration fails
    /// [`UniverseConfig::validate`], any session has `compact_threshold`
    /// set, or any session has already stepped rounds.
    #[must_use]
    pub fn new(mut sessions: Vec<Session>, config: UniverseConfig) -> Self {
        if let Err(reason) = config.validate(sessions.len()) {
            panic!("invalid universe configuration: {reason}");
        }
        for session in &sessions {
            assert!(
                session.config().compact_threshold.is_none(),
                "universe sessions must not compact (compaction invalidates the universe's handles)"
            );
            assert_eq!(
                session.round_count(),
                0,
                "universe sessions must start unstepped"
            );
        }
        let torrents = sessions.len();
        if torrents > 1 {
            for session in &mut sessions {
                session.reserve_join_slack();
            }
        }
        for session in &mut sessions {
            session.track_arrivals(true);
        }
        let popularity = if config.popularity.is_empty() {
            vec![1.0; torrents]
        } else {
            config.popularity.clone()
        };
        let slot_member = sessions
            .iter()
            .map(|s| vec![NO_MEMBER; s.swarm().peer_count()])
            .collect();
        let mut universe = Self {
            sessions,
            config,
            popularity,
            members: Vec::new(),
            slot_member,
            class_counter: 0,
            round: 0,
            stats: UniverseStats::default(),
            split_active: Vec::new(),
            split_weights: Vec::new(),
        };
        universe.claim_initial_populations();
        universe
    }

    /// Claims every initially present peer of every session, in
    /// torrent-then-slot order. Publisher seeds become single-torrent
    /// untracked members at their swarm capacity; leechers get classes,
    /// capacities and extra memberships like round arrivals, drawing
    /// from the construction stream.
    fn claim_initial_populations(&mut self) {
        let mut rng = streams::keyed(
            self.config.universe_seed,
            streams::UNIVERSE,
            streams::round_stream(0, INIT_EVENT),
        );
        let obs = vec![NullObserver; self.sessions.len()];
        // Snapshot the pre-universe populations: cross-joins from earlier
        // torrents grow later arenas, and those newcomers are already
        // claimed replicas, not fresh members.
        let initial_counts: Vec<usize> = self
            .sessions
            .iter()
            .map(|s| s.swarm().peer_count())
            .collect();
        for t in 0..self.sessions.len() {
            for slot in 0..initial_counts[t] {
                if !self.sessions[t].swarm().is_present(slot)
                    || self.member_of_slot(t, slot).is_some()
                {
                    continue;
                }
                let id = self.sessions[t].id_of(slot);
                if self.sessions[t].swarm().peer(slot).is_original_seed() {
                    let capacity = self.sessions[t].swarm().peer(slot).upload_kbps();
                    let m = self.members.len() as u32;
                    self.members.push(Member {
                        class: UNTRACKED_CLASS,
                        capacity,
                        active: true,
                        replicas: vec![Replica {
                            torrent: t as u32,
                            id,
                            active: true,
                        }],
                    });
                    self.map_slot(t, slot, m);
                    self.stats.members += 1;
                } else {
                    self.claim(t, id, &mut rng, &obs);
                }
            }
        }
    }

    /// The number of torrents.
    #[must_use]
    pub fn torrent_count(&self) -> usize {
        self.sessions.len()
    }

    /// The per-torrent sessions (read access).
    #[must_use]
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// The session of torrent `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn session(&self, t: usize) -> &Session {
        &self.sessions[t]
    }

    /// The universe configuration.
    #[must_use]
    pub fn config(&self) -> &UniverseConfig {
        &self.config
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> &UniverseStats {
        &self.stats
    }

    /// Rounds stepped so far.
    #[must_use]
    pub fn round_count(&self) -> u64 {
        self.round
    }

    /// Members ever claimed (inactive ones included).
    #[must_use]
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// The capacity class of member `m` ([`UNTRACKED_CLASS`] for
    /// publisher seeds, class 0 when no classes are configured).
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    #[must_use]
    pub fn member_class(&self, m: usize) -> u32 {
        self.members[m].class
    }

    /// The total upload capacity of member `m` (kbps).
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    #[must_use]
    pub fn member_capacity(&self, m: usize) -> f64 {
        self.members[m].capacity
    }

    /// Whether member `m`'s home occupant is still present.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    #[must_use]
    pub fn member_is_active(&self, m: usize) -> bool {
        self.members[m].active
    }

    /// Member `m`'s active memberships as `(torrent, handle)` pairs, home
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn member_replicas(&self, m: usize) -> impl Iterator<Item = (usize, SessionPeerId)> + '_ {
        self.members[m]
            .replicas
            .iter()
            .filter(|r| r.active)
            .map(|r| (r.torrent as usize, r.id))
    }

    /// The member occupying `slot` of torrent `t`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn member_of_slot(&self, t: usize, slot: usize) -> Option<usize> {
        match self.slot_member[t].get(slot) {
            Some(&m) if m != NO_MEMBER => Some(m as usize),
            _ => None,
        }
    }

    /// Runs `rounds` universe rounds unobserved. `threads` selects the
    /// sessions' round engine: `None` is the serial engine, stepped one
    /// torrent at a time on the calling thread; `Some(t)` is the
    /// indexed-stream parallel engine with a total budget of `t` threads
    /// (see [`step`](Self::step) for the split). Every output is
    /// bit-identical for any `t`.
    pub fn run_rounds(&mut self, rounds: u64, threads: Option<usize>) {
        let obs = vec![NullObserver; self.sessions.len()];
        for _ in 0..rounds {
            self.step(threads, &obs);
        }
    }

    /// [`run_rounds`](Self::run_rounds) with one [`RunObserver`] tap per
    /// torrent (`obs[t]` sees torrent `t`'s events). Observers are pure
    /// taps; attaching them changes no universe state.
    ///
    /// # Panics
    ///
    /// Panics if `obs.len()` differs from the torrent count.
    pub fn run_rounds_with<O: RunObserver>(
        &mut self,
        rounds: u64,
        threads: Option<usize>,
        obs: &[O],
    ) {
        for _ in 0..rounds {
            self.step(threads, obs);
        }
    }

    /// One universe round: every session's membership pass, the claim
    /// pass (adopt fresh arrivals in torrent order, draw extra
    /// memberships, cross-join), the sync pass (detect departures,
    /// withdraw leavers' replicas), the rebalance pass (capacity split at
    /// the rechoke boundary), every session's round pass, and completion
    /// recording.
    ///
    /// The membership and round passes touch only their own session and
    /// its `obs[t]`, so under `threads = Some(t)` they fan out across
    /// torrents: up to `min(t, T)` sessions run at once, each round on
    /// `max(1, t / T)` threads of the indexed engine (`T` torrents). The
    /// claim, sync, rebalance and recording passes stay serial. `None`
    /// runs everything on the calling thread, one torrent at a time —
    /// the mode for callers that already parallelize across universes.
    ///
    /// # Panics
    ///
    /// Panics if `obs.len()` differs from the torrent count.
    pub fn step<O: RunObserver>(&mut self, threads: Option<usize>, obs: &[O]) {
        assert_eq!(
            obs.len(),
            self.sessions.len(),
            "one observer per torrent required"
        );
        let torrents = self.sessions.len();
        let (workers, inner) = match threads {
            None => (1, None),
            Some(t) => (t, Some((t / torrents).max(1))),
        };
        strat_par::par_for_each_mut(&mut self.sessions, workers, |t, session| {
            session.membership_pass_with(&obs[t]);
        });
        self.claim_pass(obs);
        self.sync_pass(obs);
        self.rebalance();
        strat_par::par_for_each_mut(&mut self.sessions, workers, |t, session| {
            session.round_pass_with(inner, &obs[t]);
        });
        self.record_completions();
        self.round += 1;
    }

    /// Points `slot` of torrent `t` at member `m`, growing the map to
    /// cover arena growth.
    fn map_slot(&mut self, t: usize, slot: usize, m: u32) {
        let map = &mut self.slot_member[t];
        if slot >= map.len() {
            map.resize(slot + 1, NO_MEMBER);
        }
        map[slot] = m;
    }

    /// Adopts the round's session arrivals as members, in
    /// torrent-then-admission order, drawing class assignments
    /// (round-robin) and extra memberships from the round's claim
    /// stream.
    fn claim_pass<O: RunObserver>(&mut self, obs: &[O]) {
        let mut rng = streams::keyed(
            self.config.universe_seed,
            streams::UNIVERSE,
            streams::round_stream(self.round, CLAIM_EVENT),
        );
        for t in 0..self.sessions.len() {
            let fresh = self.sessions[t].drain_recent_arrivals();
            for id in fresh {
                self.claim(t, id, &mut rng, obs);
            }
        }
    }

    /// Claims one arrival of torrent `home` as a new member: assigns its
    /// class and capacity, then draws and joins its extra torrents.
    fn claim<O: RunObserver>(
        &mut self,
        home: usize,
        id: SessionPeerId,
        rng: &mut ChaCha8Rng,
        obs: &[O],
    ) {
        let slot = self.sessions[home]
            .resolve(id)
            .expect("claimed arrivals are present");
        let (class, capacity) = if self.config.class_upload_kbps.is_empty() {
            (0, self.sessions[home].swarm().peer(slot).upload_kbps())
        } else {
            let k = self.config.class_upload_kbps.len();
            let class = (self.class_counter % k as u64) as usize;
            self.class_counter += 1;
            (class as u32, self.config.class_upload_kbps[class])
        };
        let m = self.members.len() as u32;
        let mut replicas = vec![Replica {
            torrent: home as u32,
            id,
            active: true,
        }];
        self.map_slot(home, slot, m);
        let MembershipModel::Fixed { extra } = self.config.membership;
        let extra = extra.min(self.sessions.len() - 1);
        for t in self.draw_extra_torrents(home, extra, rng) {
            let completion = self.sessions[t].config().arrival_completion;
            let rid = self.sessions[t].join_with(capacity, completion, rng, &obs[t]);
            let rslot = rid.slot as usize;
            self.map_slot(t, rslot, m);
            replicas.push(Replica {
                torrent: t as u32,
                id: rid,
                active: true,
            });
            self.stats.cross_joins += 1;
        }
        self.members.push(Member {
            class,
            capacity,
            active: true,
            replicas,
        });
        self.stats.members += 1;
    }

    /// Draws `extra` distinct torrents ≠ `home`, without replacement,
    /// each pick ∝ popularity weight among the torrents still available.
    fn draw_extra_torrents(&self, home: usize, extra: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
        if extra == 0 {
            return Vec::new();
        }
        let mut avail: Vec<usize> = (0..self.sessions.len()).filter(|&t| t != home).collect();
        let mut chosen = Vec::with_capacity(extra);
        for _ in 0..extra {
            if avail.is_empty() {
                break;
            }
            let total: f64 = avail.iter().map(|&t| self.popularity[t]).sum();
            let mut x = rng.gen_range(0.0..total);
            let mut pick = avail.len() - 1;
            for (i, &t) in avail.iter().enumerate() {
                x -= self.popularity[t];
                if x <= 0.0 {
                    pick = i;
                    break;
                }
            }
            chosen.push(avail.swap_remove(pick));
        }
        chosen
    }

    /// Detects departures since the last sync: a stale *home* handle
    /// retires the member and withdraws its remaining replicas; a stale
    /// non-home handle just deactivates that replica (its capacity share
    /// flows back to the survivors at the next rebalance). Runs after
    /// the claim pass, so slots recycled by fresh arrivals already point
    /// at their new members and are left alone.
    fn sync_pass<O: RunObserver>(&mut self, obs: &[O]) {
        for m in 0..self.members.len() {
            if !self.members[m].active {
                continue;
            }
            let home_stale = {
                let home = &self.members[m].replicas[0];
                home.active
                    && self.sessions[home.torrent as usize]
                        .resolve(home.id)
                        .is_none()
            };
            if home_stale {
                self.members[m].active = false;
                self.members[m].replicas[0].active = false;
                self.unmap_stale(m, 0);
                self.stats.member_departures += 1;
                for r in 1..self.members[m].replicas.len() {
                    if !self.members[m].replicas[r].active {
                        continue;
                    }
                    let (t, id) = {
                        let rep = &self.members[m].replicas[r];
                        (rep.torrent as usize, rep.id)
                    };
                    self.sessions[t].leave(id, &obs[t]);
                    self.members[m].replicas[r].active = false;
                    self.unmap_stale(m, r);
                }
                continue;
            }
            for r in 1..self.members[m].replicas.len() {
                let stale = {
                    let rep = &self.members[m].replicas[r];
                    rep.active
                        && self.sessions[rep.torrent as usize]
                            .resolve(rep.id)
                            .is_none()
                };
                if stale {
                    self.members[m].replicas[r].active = false;
                    self.unmap_stale(m, r);
                    self.stats.replica_departures += 1;
                }
            }
        }
    }

    /// Clears replica `r` of member `m` from the slot map, unless a
    /// fresh claim already re-pointed the slot.
    fn unmap_stale(&mut self, m: usize, r: usize) {
        let rep = &self.members[m].replicas[r];
        let (t, slot) = (rep.torrent as usize, rep.id.slot as usize);
        if self.slot_member[t].get(slot) == Some(&(m as u32)) {
            self.slot_member[t][slot] = NO_MEMBER;
        }
    }

    /// The rechoke-boundary capacity split: writes each member's
    /// per-replica upload capacities. A single-membership member gets
    /// its full capacity written back verbatim (a bitwise no-op when the
    /// capacity came from the session), which is what keeps the
    /// 1-torrent universe bit-identical to the plain session.
    fn rebalance(&mut self) {
        let Self {
            sessions,
            config,
            members,
            split_active: active,
            split_weights: weights,
            ..
        } = self;
        for member in members.iter().filter(|m| m.active) {
            active.clear();
            active.extend(
                member
                    .replicas
                    .iter()
                    .filter(|r| r.active)
                    .map(|r| (r.torrent as usize, r.id)),
            );
            let capacity = member.capacity;
            if let [(t, id)] = active[..] {
                let ok = sessions[t].set_upload_kbps(id, capacity);
                debug_assert!(ok, "active replicas resolve after the sync pass");
                continue;
            }
            weights.clear();
            match config.split {
                CapacitySplit::EqualShare => weights.resize(active.len(), 1.0),
                CapacitySplit::DemandWeighted => {
                    weights.extend(active.iter().map(|&(t, id)| {
                        let slot = sessions[t]
                            .resolve(id)
                            .expect("active replicas resolve after the sync pass");
                        let swarm = sessions[t].swarm();
                        let missing =
                            swarm.config().piece_count - swarm.peer(slot).pieces().count();
                        1.0 + missing as f64
                    }));
                }
            }
            let total: f64 = weights.iter().sum();
            for (&(t, id), &w) in active.iter().zip(weights.iter()) {
                let ok = sessions[t].set_upload_kbps(id, capacity * w / total);
                debug_assert!(ok, "active replicas resolve after the sync pass");
            }
        }
    }

    /// Records fresh per-(member, torrent) completions after the round
    /// passes (a replica that completed this round is still present —
    /// its earliest possible departure is next round's membership pass).
    fn record_completions(&mut self) {
        for (m, member) in self.members.iter().enumerate() {
            for rep in member.replicas.iter().filter(|rep| rep.active) {
                let t = rep.torrent as usize;
                let session = &self.sessions[t];
                let Some(slot) = session.resolve(rep.id) else {
                    continue;
                };
                if let Some(completed) = session.fresh_completion(slot) {
                    self.stats.completions += 1;
                    self.stats.completion_records.push(UniverseCompletion {
                        member: m as u32,
                        torrent: t as u32,
                        class: member.class,
                        arrival_round: session.arrival_round_of(slot),
                        completed_round: completed,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{ArrivalProcess, DepartureRules, SessionConfig};
    use crate::{Swarm, SwarmConfig};

    fn session(t: u64, leechers: usize, seeds: usize, rate: f64) -> Session {
        let n = leechers + seeds;
        let cfg = SwarmConfig::builder()
            .leechers(leechers)
            .seeds(seeds)
            .piece_count(32)
            .piece_size_kbit(100.0)
            .mean_neighbors(8.0)
            .initial_completion(0.3)
            .seed(derive_seed(11, t))
            .build();
        let swarm = Swarm::new(cfg, &vec![400.0; n]);
        Session::new(
            swarm,
            SessionConfig {
                arrival: ArrivalProcess::Poisson { rate },
                departure: DepartureRules {
                    leave_on_completion: 0.5,
                    seed_leave_prob: 0.3,
                    ..DepartureRules::none()
                },
                arrival_upload_kbps: 400.0,
                target_degree: 8,
                session_seed: derive_seed(0x5e55, t),
                ..SessionConfig::default()
            },
        )
    }

    fn universe(torrents: u64, extra: usize) -> Universe {
        let sessions = (0..torrents).map(|t| session(t, 10, 2, 1.5)).collect();
        Universe::new(
            sessions,
            UniverseConfig {
                membership: MembershipModel::Fixed { extra },
                ..UniverseConfig::default()
            },
        )
    }

    #[test]
    fn derive_seed_keeps_torrent_zero() {
        assert_eq!(derive_seed(42, 0), 42);
        assert_ne!(derive_seed(42, 1), 42);
        assert_ne!(derive_seed(42, 1), derive_seed(42, 2));
    }

    #[test]
    fn initial_population_is_claimed() {
        let u = universe(3, 1);
        // 10 leechers + 2 seeds per torrent, every one a member.
        assert_eq!(u.stats().members, 36);
        // Every initial leecher cross-joined exactly one other torrent;
        // publishers stay home.
        assert_eq!(u.stats().cross_joins, 30);
        for t in 0..3 {
            u.session(t).swarm().validate_consistency();
        }
    }

    #[test]
    fn publishers_are_untracked_single_torrent_members() {
        let u = universe(2, 1);
        let mut untracked = 0;
        for m in 0..u.member_count() {
            if u.member_class(m) == UNTRACKED_CLASS {
                untracked += 1;
                assert_eq!(u.member_replicas(m).count(), 1);
            }
        }
        assert_eq!(untracked, 4);
    }

    #[test]
    fn members_span_torrents_and_capacity_is_conserved() {
        let mut u = universe(4, 2);
        u.run_rounds(12, None);
        assert!(u.stats().cross_joins > 30);
        // Capacity conservation at the last rebalance: the sum of a
        // member's replica capacities equals its capacity.
        let mut multi = 0;
        for m in 0..u.member_count() {
            if !u.member_is_active(m) {
                continue;
            }
            let reps: Vec<_> = u.member_replicas(m).collect();
            let total: f64 = reps
                .iter()
                .map(|&(t, id)| {
                    let slot = u.session(t).resolve(id).unwrap();
                    u.session(t).swarm().peer(slot).upload_kbps()
                })
                .sum();
            assert!(
                (total - u.member_capacity(m)).abs() < 1e-9 * u.member_capacity(m),
                "member {m}: split sums to {total}, capacity {}",
                u.member_capacity(m)
            );
            if reps.len() > 1 {
                multi += 1;
            }
        }
        assert!(multi > 0, "no member is active in several torrents");
        for t in 0..4 {
            u.session(t).swarm().validate_consistency();
        }
    }

    #[test]
    fn home_departure_withdraws_replicas_everywhere() {
        let mut u = universe(3, 2);
        u.run_rounds(30, None);
        assert!(u.stats().member_departures > 0, "{:?}", u.stats());
        for m in 0..u.member_count() {
            if !u.member_is_active(m) {
                // Retired members keep no active replicas.
                assert_eq!(u.member_replicas(m).count(), 0, "member {m}");
            }
        }
    }

    #[test]
    fn demand_weighted_split_pours_into_incomplete_torrents() {
        // Heavy pieces: three rounds leave every download in flight, so
        // the home (~30% complete) and cross-joined (0%) replicas keep
        // asymmetric demand.
        let heavy = |t: u64| {
            let cfg = SwarmConfig::builder()
                .leechers(8)
                .seeds(2)
                .piece_count(64)
                .piece_size_kbit(4000.0)
                .mean_neighbors(8.0)
                .initial_completion(0.3)
                .seed(derive_seed(11, t))
                .build();
            let swarm = Swarm::new(cfg, &[400.0; 10]);
            Session::new(
                swarm,
                SessionConfig {
                    arrival: ArrivalProcess::Poisson { rate: 0.0 },
                    arrival_upload_kbps: 400.0,
                    target_degree: 8,
                    session_seed: derive_seed(0x5e55, t),
                    ..SessionConfig::default()
                },
            )
        };
        let sessions = (0..2).map(heavy).collect();
        let mut u = Universe::new(
            sessions,
            UniverseConfig {
                membership: MembershipModel::Fixed { extra: 1 },
                split: CapacitySplit::DemandWeighted,
                ..UniverseConfig::default()
            },
        );
        u.run_rounds(3, None);
        // Find a member active in two torrents with different progress and
        // check its shares follow demand.
        let mut checked = false;
        for m in 0..u.member_count() {
            let reps: Vec<_> = u.member_replicas(m).collect();
            if reps.len() != 2 {
                continue;
            }
            let missing: Vec<usize> = reps
                .iter()
                .map(|&(t, id)| {
                    let slot = u.session(t).resolve(id).unwrap();
                    u.session(t).swarm().config().piece_count
                        - u.session(t).swarm().peer(slot).pieces().count()
                })
                .collect();
            let kbps: Vec<f64> = reps
                .iter()
                .map(|&(t, id)| {
                    let slot = u.session(t).resolve(id).unwrap();
                    u.session(t).swarm().peer(slot).upload_kbps()
                })
                .collect();
            if missing[0] != missing[1] {
                assert_eq!(
                    missing[0] > missing[1],
                    kbps[0] > kbps[1],
                    "member {m}: demand {missing:?} vs split {kbps:?}"
                );
                checked = true;
            }
        }
        assert!(checked, "no member had asymmetric progress");
    }

    #[test]
    fn capacity_classes_assign_round_robin() {
        let sessions = (0..2).map(|t| session(t, 6, 1, 2.0)).collect();
        let mut u = Universe::new(
            sessions,
            UniverseConfig {
                membership: MembershipModel::Fixed { extra: 0 },
                class_upload_kbps: vec![200.0, 400.0, 800.0],
                ..UniverseConfig::default()
            },
        );
        u.run_rounds(10, None);
        let mut counts = [0u64; 3];
        for m in 0..u.member_count() {
            let c = u.member_class(m);
            if c == UNTRACKED_CLASS {
                continue;
            }
            counts[c as usize] += 1;
            assert_eq!(
                u.member_capacity(m),
                u.config().class_upload_kbps[c as usize]
            );
        }
        let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
        assert!(spread <= 1, "round-robin drifted: {counts:?}");
    }

    #[test]
    fn per_member_per_torrent_completions_are_recorded() {
        let mut u = universe(2, 1);
        u.run_rounds(60, None);
        assert!(u.stats().completions > 0);
        let mut seen = std::collections::HashSet::new();
        for rec in &u.stats().completion_records {
            assert!(
                seen.insert((rec.member, rec.torrent)),
                "duplicate completion record for member {} in torrent {}",
                rec.member,
                rec.torrent
            );
            assert!(rec.completed_round > rec.arrival_round || rec.arrival_round == 0);
            assert_ne!(rec.class, UNTRACKED_CLASS, "publishers never complete");
        }
    }

    /// Exactly-once recording across torrents: after every step the
    /// records match the completion count, and the step's new records
    /// are the fresh completions of every torrent (each present peer is
    /// a member's replica), stamped with the round just run.
    #[test]
    fn completions_are_recorded_exactly_once_per_step() {
        let mut u = universe(3, 1);
        for _ in 0..60 {
            let before = u.stats().completion_records.len();
            u.run_rounds(1, None);
            let round = u.session(0).round_count();
            let fresh: usize = (0..3)
                .map(|t| {
                    let swarm = u.session(t).swarm();
                    (0..swarm.peer_count())
                        .filter(|&p| swarm.is_present(p))
                        .map(|p| swarm.peer(p))
                        .filter(|peer| {
                            !peer.is_original_seed() && peer.completed_round() == Some(round)
                        })
                        .count()
                })
                .sum();
            let stats = u.stats();
            assert_eq!(stats.completion_records.len() as u64, stats.completions);
            let new = &stats.completion_records[before..];
            assert_eq!(new.len(), fresh, "round {round}");
            assert!(new.iter().all(|rec| rec.completed_round == round));
        }
        assert!(u.stats().completions > 20);
    }

    #[test]
    fn popularity_skews_cross_joins() {
        let sessions: Vec<Session> = (0..4).map(|t| session(t, 6, 1, 2.0)).collect();
        let mut u = Universe::new(
            sessions,
            UniverseConfig {
                membership: MembershipModel::Fixed { extra: 1 },
                popularity: vec![8.0, 1.0, 1.0, 1.0],
                ..UniverseConfig::default()
            },
        );
        u.run_rounds(25, None);
        // Torrent 0 is 8× as popular, so it should receive the most
        // cross-joins: count non-home replicas per torrent.
        let mut joins = [0u64; 4];
        for m in 0..u.member_count() {
            for (i, (t, _)) in u.member_replicas(m).enumerate() {
                if i > 0 {
                    joins[t] += 1;
                }
            }
        }
        assert!(
            joins[0] > joins[1] && joins[0] > joins[2] && joins[0] > joins[3],
            "popularity ignored: {joins:?}"
        );
    }

    #[test]
    fn multi_torrent_runs_are_thread_count_independent() {
        let run = |threads: Option<usize>| {
            let mut u = universe(3, 1);
            u.run_rounds(12, threads);
            let stats = u.stats().clone();
            let state: Vec<Vec<(bool, f64, usize)>> = (0..3)
                .map(|t| {
                    let swarm = u.session(t).swarm();
                    (0..swarm.peer_count())
                        .map(|p| {
                            (
                                swarm.is_present(p),
                                swarm.peer(p).total_downloaded(),
                                swarm.peer(p).pieces().count(),
                            )
                        })
                        .collect()
                })
                .collect();
            (stats, state)
        };
        let baseline = run(Some(1));
        for threads in [2, 8] {
            assert_eq!(run(Some(threads)), baseline, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "must not compact")]
    fn compacting_sessions_are_rejected() {
        let mut s = session(0, 4, 1, 1.0);
        let cfg = SessionConfig {
            compact_threshold: Some(0.5),
            ..s.config().clone()
        };
        s = Session::new(s.swarm().clone(), cfg);
        let _ = Universe::new(vec![s], UniverseConfig::default());
    }

    /// Each weight is finite, but their sum overflows to +inf, which
    /// would pin every extra-torrent draw to the first candidate.
    fn overflowing_popularity() -> UniverseConfig {
        UniverseConfig {
            membership: MembershipModel::Fixed { extra: 1 },
            popularity: vec![f64::MAX; 4],
            ..UniverseConfig::default()
        }
    }

    #[test]
    fn overflowing_popularity_weights_fail_validation() {
        let err = overflowing_popularity()
            .validate(4)
            .expect_err("overflowing weights pass validation");
        assert!(err.contains("finite sum"), "{err}");
        // Large but summable weights stay valid.
        let large = UniverseConfig {
            popularity: vec![f64::MAX / 8.0; 4],
            ..UniverseConfig::default()
        };
        assert_eq!(large.validate(4), Ok(()));
    }

    #[test]
    #[should_panic(expected = "popularity weights must have a finite sum")]
    fn overflowing_popularity_weights_are_refused() {
        let sessions = (0..4).map(|t| session(t, 6, 1, 2.0)).collect();
        let _ = Universe::new(sessions, overflowing_popularity());
    }

    #[test]
    #[should_panic(expected = "popularity weights must cover")]
    fn mismatched_popularity_is_rejected() {
        let sessions = vec![session(0, 4, 1, 1.0)];
        let _ = Universe::new(
            sessions,
            UniverseConfig {
                popularity: vec![1.0, 2.0],
                ..UniverseConfig::default()
            },
        );
    }
}
