//! The [`Scenario`] value and its build entry points.

use rand::Rng;
use serde::{Deserialize, Serialize};
use strat_bittorrent::session::{ArrivalProcess, Session, SessionConfig};
use strat_bittorrent::universe::{
    derive_seed, CapacitySplit, MembershipModel, Universe, UniverseConfig,
};
use strat_bittorrent::{EventEngine, EventTiming, FaultPlan, Swarm, SwarmConfig};
use strat_core::{
    stable_configuration, stable_configuration_complete, stable_configuration_masked, Capacities,
    ChurnProcess, Dynamics, GlobalRanking, InitiativeStrategy, Matching, PrefAcceptance,
    PreferenceKeys, Rank, RankedAcceptance,
};
use strat_graph::{Graph, NodeId};

use crate::error::ensure;
use crate::{
    BehaviorMix, BuiltPreferences, CapacityModel, ChurnModel, MarkUnit, PreferenceModel,
    ScenarioError, TopologyModel,
};

/// The key table a scenario's preference axis selects for its
/// [`Dynamics`] driver. The runtime choice between the two preference
/// families is made once, here, at the data format; the driver itself is
/// the same type either way.
///
/// * [`PreferenceModel::GlobalRank`] and
///   [`PreferenceModel::GossipEstimated`] are global-ranking utilities:
///   they build the **ranked** table, whose behaviour (scans, RNG
///   consumption, Algorithm 1 baseline, rank-labelled disorder metrics) is
///   exactly that of `Dynamics<RankedAcceptance>`;
/// * [`PreferenceModel::Latency`] and
///   [`PreferenceModel::BandedRankLatency`] build the **general** table
///   ([`PrefAcceptance`]), driven by the actual latency-flavoured
///   preferences (best-mate fixpoint baseline, key-space disorder for both
///   metrics).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ScenarioKeys {
    /// Global-ranking key table.
    Ranked(RankedAcceptance),
    /// Generalized-preference key table.
    General(PrefAcceptance),
}

/// Forwards a [`PreferenceKeys`] call to the table a [`ScenarioKeys`] holds.
macro_rules! forward {
    ($keys:ident.$method:ident($($arg:expr),*)) => {
        match $keys {
            ScenarioKeys::Ranked(table) => table.$method($($arg),*),
            ScenarioKeys::General(table) => table.$method($($arg),*),
        }
    };
}

impl PreferenceKeys for ScenarioKeys {
    fn node_count(&self) -> usize {
        forward!(self.node_count())
    }

    #[inline]
    fn row(&self, v: NodeId) -> (&[NodeId], &[Rank]) {
        forward!(self.row(v))
    }

    #[inline]
    fn rev_key(&self, v: NodeId, slot: usize) -> Rank {
        forward!(self.rev_key(v, slot))
    }

    fn instant_stable(&self, caps: &Capacities, present: &[bool]) -> Matching {
        forward!(self.instant_stable(caps, present))
    }

    fn disorder(&self, matching: &Matching, stable: &Matching) -> f64 {
        forward!(self.disorder(matching, stable))
    }

    fn disorder_general(&self, matching: &Matching, stable: &Matching) -> f64 {
        forward!(self.disorder_general(matching, stable))
    }
}

/// Swarm-backend parameters (the protocol knobs the abstract dynamics do
/// not have). `peers` on the [`Scenario`] is the **leecher** count; seeds
/// are extra.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwarmParams {
    /// Number of seeds appended after the leechers.
    pub seeds: usize,
    /// Upload capacity handed to every seed (kbps).
    pub seed_upload_kbps: f64,
    /// Tit-for-Tat unchoke slots (the paper's `b₀`).
    pub tft_slots: usize,
    /// Optimistic unchoke slots.
    pub optimistic_slots: usize,
    /// Rounds between optimistic rotations.
    pub optimistic_period: u32,
    /// Pieces in the shared file.
    pub piece_count: usize,
    /// Size of one piece in kilobits.
    pub piece_size_kbit: f64,
    /// Seconds per round.
    pub round_seconds: f64,
    /// Initial completion fraction of each leecher.
    pub initial_completion: f64,
    /// Whether completed leechers keep seeding.
    pub seed_after_completion: bool,
    /// Fluid-content mode (§6 steady state; no piece bookkeeping).
    pub fluid_content: bool,
    /// Seed of the swarm's internal RNG (overlay, rotations, piece init).
    pub swarm_seed: u64,
    /// Protocol-behavior mix of the leecher population.
    pub behavior: BehaviorMix,
    /// Open-membership section: arrival/departure processes driving a
    /// [`Session`] ([`Scenario::build_session`]); `None` for closed
    /// swarms.
    pub churn: Option<SessionConfig>,
    /// Fault-plane section: crash/loss/outage/partition injection applied
    /// by [`Scenario::build_session`]; `None` (or an inert plan) leaves
    /// the session bit-identical to the fault-free build.
    pub faults: Option<FaultPlan>,
    /// Timing axis: `None` selects the synchronous round engine;
    /// `Some` selects the continuous-time event engine
    /// ([`Scenario::build_event_engine`]) with per-class speed
    /// multipliers and rechoke/announce intervals.
    pub timing: Option<EventTiming>,
    /// Multi-swarm axis: `None` is a single-torrent scenario; `Some`
    /// makes [`Scenario::build_universe`] run `torrents` sessions over a
    /// shared peer population with cross-swarm membership and capacity
    /// splitting.
    pub universe: Option<UniverseParams>,
}

/// The `swarm.universe` section: a shared peer population across
/// `torrents` swarms ([`Scenario::build_universe`]).
///
/// Torrent `t` derives its seeds from the scenario's single-swarm seeds
/// via [`derive_seed`]`(base, t)` (torrent 0 keeps them exactly), and its
/// Poisson arrival rate from the base rate via the popularity weights:
/// torrent `t` has weight `(t + 1)^(-popularity_skew)` (a Zipf ramp; skew
/// 0 is uniform) and rate `base_rate · torrents · ŵ_t` with `ŵ` the
/// normalized weights — the *total* universe arrival rate is the base
/// rate scaled by the torrent count, shared out by popularity. A
/// 1-torrent universe therefore builds the exact session of
/// [`Scenario::build_session`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UniverseParams {
    /// Number of torrents (swarms) sharing the population.
    pub torrents: usize,
    /// Zipf exponent of the per-torrent popularity weights (0 = uniform).
    pub popularity_skew: f64,
    /// Per-member multi-torrent membership process.
    pub membership: MembershipModel,
    /// Capacity-split policy across a member's active replicas.
    pub split: CapacitySplit,
    /// Capacity classes assigned to members round-robin in claim order
    /// (empty keeps session-given capacities).
    pub class_upload_kbps: Vec<f64>,
    /// Seed of the universe's own ChaCha streams.
    pub universe_seed: u64,
}

impl Default for UniverseParams {
    /// Two uniformly popular torrents, one extra membership per member,
    /// equal capacity split, no capacity classes, seed `0x0a11`.
    fn default() -> Self {
        Self {
            torrents: 2,
            popularity_skew: 0.0,
            membership: MembershipModel::Fixed { extra: 1 },
            split: CapacitySplit::EqualShare,
            class_upload_kbps: Vec::new(),
            universe_seed: 0x0a11,
        }
    }
}

impl UniverseParams {
    /// The unnormalized popularity weights `(t + 1)^(-skew)`.
    #[must_use]
    pub fn popularity_weights(&self) -> Vec<f64> {
        (0..self.torrents)
            .map(|t| ((t + 1) as f64).powf(-self.popularity_skew))
            .collect()
    }

    /// Checks the section: a finite non-negative popularity skew, then
    /// [`UniverseConfig::validate`] on the config it describes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let skew = self.popularity_skew;
        if !(skew.is_finite() && skew >= 0.0) {
            return Err(format!(
                "popularity skew must be a finite non-negative exponent, got {skew}"
            ));
        }
        self.config().validate(self.torrents)
    }

    /// The engine config this section describes.
    fn config(&self) -> UniverseConfig {
        UniverseConfig {
            membership: self.membership,
            split: self.split,
            class_upload_kbps: self.class_upload_kbps.clone(),
            popularity: self.popularity_weights(),
            universe_seed: self.universe_seed,
        }
    }
}

impl Default for SwarmParams {
    /// Paper-aligned defaults mirroring [`SwarmConfig::builder`]: 3 TFT +
    /// 1 optimistic slot, 10 s rounds, rotation every 3 rounds, 256 pieces
    /// of 2048 kbit, 40 % initial completion, all-compliant.
    fn default() -> Self {
        Self {
            seeds: 1,
            seed_upload_kbps: 1000.0,
            tft_slots: 3,
            optimistic_slots: 1,
            optimistic_period: 3,
            piece_count: 256,
            piece_size_kbit: 2048.0,
            round_seconds: 10.0,
            initial_completion: 0.4,
            seed_after_completion: true,
            fluid_content: false,
            swarm_seed: 0xb17,
            behavior: BehaviorMix::compliant(),
            churn: None,
            faults: None,
            timing: None,
            universe: None,
        }
    }
}

/// A complete, serializable description of a simulation setting.
///
/// See the [crate docs](crate) for the component axes and a worked
/// example. Build entry points:
///
/// * [`build_dynamics`](Self::build_dynamics) — the §3 initiative process;
/// * [`build_churn`](Self::build_churn) — dynamics wrapped in the churn
///   model;
/// * [`build_swarm`](Self::build_swarm) — the §6 protocol simulator;
/// * [`stable_matching`](Self::stable_matching) — the stable configuration
///   directly (Algorithm 1, with the complete-graph specialization);
/// * [`build_graph`](Self::build_graph) /
///   [`build_acceptance`](Self::build_acceptance) /
///   [`build_capacities`](Self::build_capacities) — the individual pieces,
///   for kernels that recombine them.
///
/// All entry points start with [`validate`](Self::validate) and consume
/// the caller's RNG in a fixed documented order (topology → preference →
/// capacities), so a scenario plus an RNG stream is a reproducible instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Preset name (`fig3`, `bt1-freeriders`, …).
    pub name: String,
    /// Registry id of the experiment kernel that measures this scenario
    /// (`experiments --scenario` dispatches on it).
    pub experiment: String,
    /// Base seed; experiment kernels derive their ChaCha8 streams from it
    /// via [`stream_rng`](crate::stream_rng).
    pub seed: u64,
    /// Number of peers (for swarm scenarios: number of **leechers**).
    pub peers: usize,
    /// The mark model `S(p)` (slots / upload bandwidth).
    pub capacity: CapacityModel,
    /// Acceptance graph / overlay.
    pub topology: TopologyModel,
    /// Mate-ordering model.
    pub preference: PreferenceModel,
    /// Population turnover.
    pub churn: ChurnModel,
    /// Initiative scan strategy for the dynamics backend.
    pub strategy: InitiativeStrategy,
    /// Swarm-backend section; `None` for pure-dynamics scenarios.
    pub swarm: Option<SwarmParams>,
}

impl Scenario {
    /// A minimal scenario: `peers` peers, complete topology, global rank,
    /// constant 1-matching, best-mate initiatives, no churn, no swarm
    /// section, seed 2007. `experiment` starts equal to `name`.
    #[must_use]
    pub fn new(name: impl Into<String>, peers: usize) -> Self {
        let name = name.into();
        Self {
            experiment: name.clone(),
            name,
            seed: 2007,
            peers,
            capacity: CapacityModel::Constant { value: 1.0 },
            topology: TopologyModel::Complete,
            preference: PreferenceModel::GlobalRank,
            churn: ChurnModel::None,
            strategy: InitiativeStrategy::BestMate,
            swarm: None,
        }
    }

    /// Replaces the peer count.
    #[must_use]
    pub fn with_peers(mut self, peers: usize) -> Self {
        self.peers = peers;
        self
    }

    /// Replaces the base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the experiment binding.
    #[must_use]
    pub fn with_experiment(mut self, experiment: impl Into<String>) -> Self {
        self.experiment = experiment.into();
        self
    }

    /// Replaces the capacity model.
    #[must_use]
    pub fn with_capacity(mut self, capacity: CapacityModel) -> Self {
        self.capacity = capacity;
        self
    }

    /// Replaces the topology model.
    #[must_use]
    pub fn with_topology(mut self, topology: TopologyModel) -> Self {
        self.topology = topology;
        self
    }

    /// Replaces the preference model.
    #[must_use]
    pub fn with_preference(mut self, preference: PreferenceModel) -> Self {
        self.preference = preference;
        self
    }

    /// Replaces the churn model.
    #[must_use]
    pub fn with_churn(mut self, churn: ChurnModel) -> Self {
        self.churn = churn;
        self
    }

    /// Replaces the initiative strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: InitiativeStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Attaches (or replaces) the swarm section.
    #[must_use]
    pub fn with_swarm(mut self, swarm: SwarmParams) -> Self {
        self.swarm = Some(swarm);
        self
    }

    /// Checks every section once, drawing no randomness, in the order
    /// `docs/SCENARIO_SCHEMA.md` ("Validation") lists the rules. Every
    /// `build_*` and `stable_matching*` method starts here, and so does
    /// every registered experiment kernel.
    ///
    /// # Errors
    ///
    /// Returns the first violation: [`ScenarioError::InvalidParameter`]
    /// naming the parameter or section, or [`ScenarioError::SizeMismatch`]
    /// for an explicit capacity list of the wrong length.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        // A swarm reads the marks as bandwidth, and so does a
        // bandwidth-only model (Figure 10); everything else reads slots.
        let unit = if self.swarm.is_some() || self.capacity.bandwidth_cdf().is_some() {
            MarkUnit::Bandwidth
        } else {
            MarkUnit::Slots
        };
        self.capacity.validate(self.peers, unit)?;
        self.topology.validate(self.peers)?;
        self.preference.validate()?;
        self.churn.validate(self.peers)?;
        let Some(params) = &self.swarm else {
            return Ok(());
        };
        let upload = params.seed_upload_kbps;
        ensure(upload.is_finite() && upload > 0.0, "seed upload", || {
            format!("must be positive kbps, got {upload}")
        })?;
        let explicit = matches!(self.topology, TopologyModel::Explicit { .. });
        ensure(!explicit, "topology", || {
            "a swarm draws its own overlay of the topology's mean degree".to_string()
        })?;
        let (churn, faults) = (&params.churn, &params.faults);
        let (timing, universe) = (&params.timing, &params.universe);
        let config = self.swarm_config(params, params.swarm_seed);
        let sections = [
            ("swarm", Some(config.validate())),
            ("swarm churn", churn.as_ref().map(|c| c.validate())),
            ("swarm faults", faults.as_ref().map(|f| f.validate())),
            ("swarm timing", timing.as_ref().map(|t| t.validate())),
            ("swarm universe", universe.as_ref().map(|u| u.validate())),
        ];
        for (what, verdict) in sections {
            if let Some(Err(reason)) = verdict {
                return Err(ScenarioError::InvalidParameter { what, reason });
            }
        }
        params.behavior.validate(self.peers)?;
        // Fluid content never completes, and every layer above the closed
        // swarm needs completions.
        let layers = [
            (universe.is_some(), "swarm universe", "shared membership"),
            (timing.is_some(), "swarm timing", "event engine"),
            (churn.is_some(), "swarm churn", "open membership"),
        ];
        if let Some((_, what, layer)) = layers.into_iter().find(|&(on, ..)| on) {
            ensure(!params.fluid_content, what, || {
                format!("{layer} requires piece mode (fluid content never completes)")
            })?;
        }
        let timed_faults = timing.is_some() && faults.is_some();
        ensure(!timed_faults, "swarm timing", || {
            "fault plans are a round-engine construct; remove `swarm.faults` or `swarm.timing`"
                .into()
        })?;
        // A universe shares its peers across sessions; these each assume
        // one session (compaction would invalidate cross-swarm handles).
        let compacts = churn.iter().any(|c| c.compact_threshold.is_some());
        let shared = universe.is_some();
        let single_session = [
            (shared && faults.is_some(), "`swarm.faults`"),
            (shared && timing.is_some(), "`swarm.timing`"),
            (shared && compacts, "`swarm.churn.compact_threshold`"),
        ];
        let conflict = single_session.into_iter().find(|&(on, _)| on);
        ensure(conflict.is_none(), "swarm universe", || {
            let key = conflict.map_or("", |(_, key)| key);
            format!("{key} is a single-session construct; remove it or `swarm.universe`")
        })?;
        // The event engine never compacts its peer arenas.
        ensure(!(timing.is_some() && compacts), "swarm timing", || {
            "compaction is a round-engine construct; remove \
             `swarm.churn.compact_threshold` or `swarm.timing`"
                .into()
        })?;
        // The dynamics axes mean nothing to a swarm.
        let dynamics_axes = [
            (
                self.preference == PreferenceModel::GlobalRank,
                "preference",
                "GlobalRank",
                "swarm peers rank each other by measured rates",
            ),
            (
                self.churn == ChurnModel::None,
                "churn",
                "None",
                "swarm turnover is `swarm.churn`",
            ),
            (
                self.strategy == InitiativeStrategy::BestMate,
                "strategy",
                "BestMate",
                "swarm peers unchoke by Tit-for-Tat",
            ),
        ];
        for (default, what, name, why) in dynamics_axes {
            ensure(default, what, || {
                format!("no swarm kernel reads it ({why}); leave it `{name}`")
            })?;
        }
        Ok(())
    }

    /// Materializes the topology on this scenario's peer count.
    ///
    /// # Errors
    ///
    /// Returns what [`validate`](Self::validate) returns.
    pub fn build_graph<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Graph, ScenarioError> {
        self.validate()?;
        self.topology.build_graph(self.peers, rng)
    }

    /// The global ranking the preference model induces (identity, or a
    /// gossip estimate drawn from `rng`).
    ///
    /// # Errors
    ///
    /// Returns what [`validate`](Self::validate) returns.
    pub fn build_ranking<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<GlobalRanking, ScenarioError> {
        self.validate()?;
        Ok(self.preference.build_ranking(self.peers, rng))
    }

    /// Slot capacities for the dynamics backend.
    ///
    /// # Errors
    ///
    /// Returns what [`validate`](Self::validate) returns, or
    /// [`ScenarioError::CapacityUnit`] for a bandwidth-only model.
    pub fn build_capacities<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<Capacities, ScenarioError> {
        self.validate()?;
        self.capacity.slot_capacities(self.peers, rng)
    }

    /// The ranked acceptance structure (topology + preference). Consumes
    /// the RNG in the order topology → preference.
    ///
    /// # Errors
    ///
    /// Returns what [`validate`](Self::validate) returns.
    pub fn build_acceptance<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<RankedAcceptance, ScenarioError> {
        self.validate()?;
        let graph = self.topology.build_graph(self.peers, rng)?;
        let ranking = self.preference.build_ranking(self.peers, rng);
        Ok(RankedAcceptance::new(graph, ranking)?)
    }

    /// The preference system this scenario's preference axis describes
    /// (consumes the RNG like [`build_ranking`](Self::build_ranking) for
    /// rank-shaped models, or the latency-position draws otherwise).
    ///
    /// # Errors
    ///
    /// Returns what [`validate`](Self::validate) returns.
    pub fn build_preferences<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<BuiltPreferences, ScenarioError> {
        self.validate()?;
        self.preference.build_preferences(self.peers, rng)
    }

    /// The initiative-process driver from the empty configuration,
    /// consuming the RNG in the order topology → preference → capacities.
    ///
    /// The preference axis selects the key table (see [`ScenarioKeys`]):
    /// global-ranking models build the ranked table, latency-flavoured
    /// models the generalized one.
    ///
    /// # Errors
    ///
    /// Returns what [`validate`](Self::validate) returns, or
    /// [`ScenarioError::CapacityUnit`] for a bandwidth-only capacity
    /// model.
    pub fn build_dynamics<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<Dynamics<ScenarioKeys>, ScenarioError> {
        self.validate()?;
        let keys = if self.preference.is_ranked() {
            ScenarioKeys::Ranked(self.build_acceptance(rng)?)
        } else {
            let graph = self.topology.build_graph(self.peers, rng)?;
            let prefs = self.preference.build_preferences(self.peers, rng)?;
            ScenarioKeys::General(PrefAcceptance::build(&graph, &prefs))
        };
        let caps = self.capacity.slot_capacities(self.peers, rng)?;
        Ok(Dynamics::new(keys, caps, self.strategy)?)
    }

    /// The initiative-process driver started **at** the stable
    /// configuration (Figure 2's perturbation experiments begin here
    /// rather than at `C∅`). Same RNG consumption as
    /// [`build_dynamics`](Self::build_dynamics).
    ///
    /// The ranked table jumps there by Algorithm 1; the general table
    /// settles with deterministic best-mate sweeps (its canonical stable
    /// configuration).
    ///
    /// # Errors
    ///
    /// As [`build_dynamics`](Self::build_dynamics); general-table
    /// preference systems with odd preference cycles surface as
    /// [`strat_core::ModelError::NoStableConfiguration`] (none of the
    /// scenario preference models can produce one).
    pub fn build_dynamics_at_stable<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<Dynamics<ScenarioKeys>, ScenarioError> {
        self.validate()?;
        if self.preference.is_ranked() {
            let acc = self.build_acceptance(rng)?;
            let caps = self.capacity.slot_capacities(self.peers, rng)?;
            let stable = stable_configuration(&acc, &caps)?;
            Ok(Dynamics::with_configuration(
                ScenarioKeys::Ranked(acc),
                caps,
                self.strategy,
                stable,
            )?)
        } else {
            let mut dynamics = self.build_dynamics(rng)?;
            dynamics.settle()?;
            // Counter parity with the ranked table, which jumps to
            // stability via Algorithm 1: a freshly built at-stable driver
            // reports no pre-existing initiative activity.
            dynamics.reset_initiative_counters();
            Ok(dynamics)
        }
    }

    /// The dynamics wrapped in this scenario's churn model.
    ///
    /// # Errors
    ///
    /// As [`build_dynamics`](Self::build_dynamics).
    pub fn build_churn<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<ChurnProcess<ScenarioKeys>, ScenarioError> {
        self.validate()?;
        let rate = self.churn.rate_per_step(self.peers)?;
        Ok(ChurnProcess::new(self.build_dynamics(rng)?, rate))
    }

    /// The stable configuration of this scenario (Algorithm 1).
    ///
    /// Complete topologies dispatch to the `O(n·b·α)` specialization and
    /// never materialize the quadratic edge set — the Table 1 / Figure 6
    /// instances at `n = 10⁵` stay sub-second.
    ///
    /// # Errors
    ///
    /// As [`build_dynamics`](Self::build_dynamics).
    pub fn stable_matching<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Matching, ScenarioError> {
        self.validate()?;
        if matches!(self.topology, TopologyModel::Complete) {
            let ranking = self.preference.build_ranking(self.peers, rng);
            let caps = self.capacity.slot_capacities(self.peers, rng)?;
            Ok(stable_configuration_complete(&ranking, &caps)?)
        } else {
            let acc = self.build_acceptance(rng)?;
            let caps = self.capacity.slot_capacities(self.peers, rng)?;
            Ok(stable_configuration(&acc, &caps)?)
        }
    }

    /// The stable configuration restricted to peers where `present`
    /// holds (non-complete topologies; the churn experiments' metric).
    ///
    /// # Errors
    ///
    /// As [`build_dynamics`](Self::build_dynamics).
    pub fn stable_matching_masked<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        present: impl Fn(strat_graph::NodeId) -> bool,
    ) -> Result<Matching, ScenarioError> {
        self.validate()?;
        let acc = self.build_acceptance(rng)?;
        let caps = self.capacity.slot_capacities(self.peers, rng)?;
        Ok(stable_configuration_masked(&acc, &caps, present)?)
    }

    /// The protocol-level swarm: `peers` leechers plus the swarm section's
    /// seeds, upload bandwidths from the capacity model (RNG-consuming
    /// models draw from `rng`), overlay degree from the topology model,
    /// behaviors from the mix.
    ///
    /// # Errors
    ///
    /// Returns what [`validate`](Self::validate) returns, then
    /// [`ScenarioError::MissingSwarm`] without a swarm section.
    pub fn build_swarm<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Swarm, ScenarioError> {
        self.validate()?;
        let params = self.swarm.as_ref().ok_or(ScenarioError::MissingSwarm)?;
        self.swarm_with_seed(params, params.swarm_seed, rng)
    }

    /// The open-membership session: the swarm of
    /// [`build_swarm`](Self::build_swarm) (identical RNG consumption)
    /// wrapped in the `swarm.churn` section's arrival/departure processes
    /// and the `swarm.faults` plan (absent: the inert plan, a
    /// bit-identical build).
    ///
    /// # Errors
    ///
    /// Returns what [`validate`](Self::validate) returns, then
    /// [`ScenarioError::MissingSwarm`] / [`ScenarioError::MissingChurn`]
    /// without the respective sections.
    pub fn build_session<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Session, ScenarioError> {
        self.validate()?;
        let params = self.swarm.as_ref().ok_or(ScenarioError::MissingSwarm)?;
        let churn = params.churn.as_ref().ok_or(ScenarioError::MissingChurn)?;
        let faults = params.faults.clone().unwrap_or_else(FaultPlan::none);
        let swarm = self.swarm_with_seed(params, params.swarm_seed, rng)?;
        Ok(Session::with_faults(swarm, churn.clone(), faults))
    }

    /// The continuous-time event engine: the swarm of
    /// [`build_swarm`](Self::build_swarm) (identical RNG consumption)
    /// driven by the `swarm.timing` section's discrete-event clock, with
    /// the `swarm.churn` section (if present) supplying arrival/departure
    /// processes on the event timeline.
    ///
    /// # Errors
    ///
    /// Returns what [`validate`](Self::validate) returns, then
    /// [`ScenarioError::MissingSwarm`] / [`ScenarioError::MissingTiming`]
    /// without the respective sections.
    pub fn build_event_engine<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<EventEngine, ScenarioError> {
        self.validate()?;
        let params = self.swarm.as_ref().ok_or(ScenarioError::MissingSwarm)?;
        let timing = params.timing.clone().ok_or(ScenarioError::MissingTiming)?;
        let swarm = self.swarm_with_seed(params, params.swarm_seed, rng)?;
        Ok(EventEngine::new(swarm, timing, params.churn.clone()))
    }

    /// The multi-swarm universe: `torrents` sessions — each the
    /// single-swarm build with per-torrent [`derive_seed`]-derived swarm
    /// and session seeds and popularity-scaled Poisson arrival rates —
    /// sharing one peer population through the `swarm.universe` section's
    /// membership and capacity-split policies.
    ///
    /// RNG consumption is one [`build_swarm`](Self::build_swarm)
    /// equivalent per torrent, in torrent order; torrent 0 keeps the
    /// scenario's single-swarm seeds exactly, so a 1-torrent universe
    /// consumes the stream exactly like
    /// [`build_session`](Self::build_session) and embeds a bit-identical
    /// session.
    ///
    /// # Errors
    ///
    /// Returns what [`validate`](Self::validate) returns, then
    /// [`ScenarioError::MissingSwarm`] / [`ScenarioError::MissingUniverse`]
    /// / [`ScenarioError::MissingChurn`] without the respective sections.
    pub fn build_universe<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Universe, ScenarioError> {
        self.validate()?;
        let params = self.swarm.as_ref().ok_or(ScenarioError::MissingSwarm)?;
        let universe = params
            .universe
            .as_ref()
            .ok_or(ScenarioError::MissingUniverse)?;
        let churn = params.churn.as_ref().ok_or(ScenarioError::MissingChurn)?;
        let config = universe.config();
        let total_weight: f64 = config.popularity.iter().sum();
        let mut sessions = Vec::with_capacity(universe.torrents);
        for (t, weight) in config.popularity.iter().enumerate() {
            let swarm =
                self.swarm_with_seed(params, derive_seed(params.swarm_seed, t as u64), rng)?;
            let mut session_config = churn.clone();
            session_config.session_seed = derive_seed(churn.session_seed, t as u64);
            if let ArrivalProcess::Poisson { rate } = session_config.arrival {
                session_config.arrival = ArrivalProcess::Poisson {
                    rate: rate * universe.torrents as f64 * weight / total_weight,
                };
            }
            sessions.push(Session::new(swarm, session_config));
        }
        Ok(Universe::new(sessions, config))
    }

    /// The engine config of the swarm section `params`, its internal RNG
    /// seeded by `seed`: what [`validate`](Self::validate) checks and
    /// [`build_swarm`](Self::build_swarm) builds.
    fn swarm_config(&self, params: &SwarmParams, seed: u64) -> SwarmConfig {
        SwarmConfig {
            leechers: self.peers,
            seeds: params.seeds,
            piece_count: params.piece_count,
            piece_size_kbit: params.piece_size_kbit,
            round_seconds: params.round_seconds,
            tft_slots: params.tft_slots,
            optimistic_slots: params.optimistic_slots,
            optimistic_period: params.optimistic_period,
            mean_neighbors: self.topology.mean_degree(self.peers + params.seeds),
            initial_completion: params.initial_completion,
            seed_after_completion: params.seed_after_completion,
            fluid_content: params.fluid_content,
            seed,
        }
    }

    /// The swarm of a validated scenario's section `params`, with its
    /// internal RNG seeded by `swarm_seed`.
    fn swarm_with_seed<R: Rng + ?Sized>(
        &self,
        params: &SwarmParams,
        swarm_seed: u64,
        rng: &mut R,
    ) -> Result<Swarm, ScenarioError> {
        let config = self.swarm_config(params, swarm_seed);
        let mut uploads = self.capacity.upload_bandwidths(self.peers, rng)?;
        uploads.extend(std::iter::repeat_n(params.seed_upload_kbps, params.seeds));
        let behaviors = params.behavior.assign(self.peers, params.seeds)?;
        Ok(Swarm::with_behaviors(config, &uploads, &behaviors))
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use strat_bittorrent::PeerBehavior;

    use crate::stream_rng;

    use super::*;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn ranked_keys(dynamics: &Dynamics<ScenarioKeys>) -> &RankedAcceptance {
        match dynamics.keys() {
            ScenarioKeys::Ranked(acc) => acc,
            ScenarioKeys::General(_) => panic!("rank-shaped models build the ranked table"),
        }
    }

    #[test]
    fn default_scenario_builds_everything() {
        let scenario = Scenario::new("t", 30);
        let mut r = rng(1);
        let dynamics = scenario.build_dynamics(&mut r).unwrap();
        assert_eq!(dynamics.node_count(), 30);
        let stable = scenario.stable_matching(&mut rng(1)).unwrap();
        // Complete 1-matching: consecutive pairs.
        assert_eq!(stable.edge_count(), 15);
    }

    #[test]
    fn build_order_is_topology_preference_capacity() {
        // A scenario whose every axis consumes RNG: the composite build
        // must equal the hand-sequenced one on a shared stream.
        let scenario = Scenario::new("t", 120)
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 8.0 })
            .with_preference(PreferenceModel::GossipEstimated { sample_size: 20 })
            .with_capacity(CapacityModel::RoundedNormal {
                mean: 2.0,
                sigma: 0.5,
            });
        let mut a = rng(5);
        let built = scenario.build_dynamics(&mut a).unwrap();
        let mut b = rng(5);
        let graph = scenario.topology.build_graph(120, &mut b).unwrap();
        let ranking = scenario.preference.build_ranking(120, &mut b);
        let caps = scenario.capacity.slot_capacities(120, &mut b).unwrap();
        let by_hand = Dynamics::new(
            RankedAcceptance::new(graph, ranking).unwrap(),
            caps,
            scenario.strategy,
        )
        .unwrap();
        assert_eq!(ranked_keys(&built), by_hand.keys());
        assert_eq!(built.capacities(), by_hand.capacities());
    }

    #[test]
    fn churn_scenario_rate_reaches_process() {
        let scenario = Scenario::new("t", 50)
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 6.0 })
            .with_churn(ChurnModel::PoissonPerBaseUnit {
                events_per_base_unit: 5.0,
            });
        let churn = scenario.build_churn(&mut rng(2)).unwrap();
        assert!((churn.rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn swarm_scenario_builds_with_behaviors() {
        let scenario = Scenario::new("t", 20)
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 10.0 })
            .with_capacity(CapacityModel::SaroiuShuffled { shuffle_seed: 3 })
            .with_swarm(SwarmParams {
                seeds: 2,
                fluid_content: true,
                behavior: BehaviorMix {
                    free_riders: 3,
                    altruists: 1,
                },
                ..SwarmParams::default()
            });
        let swarm = scenario.build_swarm(&mut rng(4)).unwrap();
        assert_eq!(swarm.peer_count(), 22);
        assert_eq!(swarm.peer(0).behavior(), PeerBehavior::Altruistic);
        assert_eq!(swarm.peer(19).behavior(), PeerBehavior::FreeRider);
        assert!(swarm.peer(20).is_original_seed());
        assert_eq!(swarm.peer(20).upload_kbps(), 1000.0);
    }

    #[test]
    fn session_scenario_builds_and_runs() {
        let scenario = Scenario::new("t", 24)
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 8.0 })
            .with_capacity(CapacityModel::Constant { value: 400.0 })
            .with_swarm(SwarmParams {
                seeds: 2,
                piece_count: 32,
                piece_size_kbit: 150.0,
                churn: Some(SessionConfig {
                    arrival: ArrivalProcess::Poisson { rate: 2.0 },
                    arrival_upload_kbps: 400.0,
                    target_degree: 8,
                    ..SessionConfig::default()
                }),
                ..SwarmParams::default()
            });
        let mut session = scenario.build_session(&mut rng(3)).unwrap();
        session.run_rounds(8);
        assert!(session.stats().arrivals > 0);
        session.swarm().validate_consistency();
        // Same stream, same session — and the embedded swarm matches the
        // closed build (identical RNG consumption).
        let swarm = scenario.build_swarm(&mut rng(3)).unwrap();
        assert_eq!(
            session.swarm().config().mean_neighbors,
            swarm.config().mean_neighbors
        );
    }

    #[test]
    fn session_requires_churn_and_piece_mode() {
        let base = Scenario::new("t", 10)
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 6.0 })
            .with_capacity(CapacityModel::Constant { value: 300.0 });
        // No swarm section at all.
        assert!(matches!(
            base.clone().build_session(&mut rng(1)),
            Err(ScenarioError::MissingSwarm)
        ));
        // Swarm section without churn.
        let closed = base.clone().with_swarm(SwarmParams::default());
        assert!(matches!(
            closed.build_session(&mut rng(1)),
            Err(ScenarioError::MissingChurn)
        ));
        // Fluid-content sessions are rejected.
        let fluid = base.clone().with_swarm(SwarmParams {
            fluid_content: true,
            churn: Some(SessionConfig::default()),
            ..SwarmParams::default()
        });
        assert!(matches!(
            fluid.build_session(&mut rng(1)),
            Err(ScenarioError::InvalidParameter { .. })
        ));
        // Out-of-range probabilities surface as errors, not panics.
        let bad = base.with_swarm(SwarmParams {
            churn: Some(SessionConfig {
                departure: crate::DepartureRules {
                    seed_leave_prob: 1.5,
                    ..crate::DepartureRules::none()
                },
                ..SessionConfig::default()
            }),
            ..SwarmParams::default()
        });
        assert!(matches!(
            bad.build_session(&mut rng(1)),
            Err(ScenarioError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn faulted_session_builds_and_zero_fault_is_identical() {
        let base = Scenario::new("t", 20)
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 8.0 })
            .with_capacity(CapacityModel::Constant { value: 400.0 })
            .with_swarm(SwarmParams {
                seeds: 2,
                piece_count: 32,
                piece_size_kbit: 150.0,
                churn: Some(SessionConfig {
                    arrival: ArrivalProcess::Poisson { rate: 1.0 },
                    arrival_upload_kbps: 400.0,
                    target_degree: 8,
                    ..SessionConfig::default()
                }),
                ..SwarmParams::default()
            });
        // An inert-but-present plan leaves the build bit-identical to the
        // section-free one.
        let mut swarm_params = base.swarm.clone().unwrap();
        swarm_params.faults = Some(FaultPlan::none());
        let inert = base.clone().with_swarm(swarm_params);
        let mut a = base.build_session(&mut rng(2)).unwrap();
        let mut b = inert.build_session(&mut rng(2)).unwrap();
        a.run_rounds(10);
        b.run_rounds(10);
        assert_eq!(a.stats(), b.stats());
        // A live plan actually injects faults.
        let mut swarm_params = base.swarm.clone().unwrap();
        swarm_params.faults = Some(FaultPlan {
            crash_prob: 0.05,
            fault_seed: 3,
            ..FaultPlan::none()
        });
        let faulty = base.clone().with_swarm(swarm_params);
        let mut c = faulty.build_session(&mut rng(2)).unwrap();
        c.run_rounds(10);
        assert!(c.stats().crashes > 0);
        // Invalid plans surface as errors, not panics.
        let mut swarm_params = base.swarm.clone().unwrap();
        swarm_params.faults = Some(FaultPlan {
            crash_prob: 1.5,
            ..FaultPlan::none()
        });
        assert!(matches!(
            base.with_swarm(swarm_params).build_session(&mut rng(2)),
            Err(ScenarioError::InvalidParameter {
                what: "swarm faults",
                ..
            })
        ));
    }

    #[test]
    fn event_engine_builds_and_matches_round_engine_in_sync_limit() {
        let scenario = Scenario::new("t", 24)
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 8.0 })
            .with_capacity(CapacityModel::Constant { value: 300.0 })
            .with_swarm(SwarmParams {
                seeds: 2,
                piece_count: 32,
                piece_size_kbit: 150.0,
                timing: Some(EventTiming::synchronous_limit(10.0)),
                ..SwarmParams::default()
            });
        let mut engine = scenario.build_event_engine(&mut rng(4)).unwrap();
        engine.run_sync_rounds(6);
        // Identical RNG consumption: the embedded swarm equals the swarm
        // of build_swarm run through the round engine (the event engine
        // reproduces the indexed-stream semantics of
        // `run_rounds_parallel`, not the legacy sequential `run_rounds`).
        let mut swarm = scenario.build_swarm(&mut rng(4)).unwrap();
        swarm.run_rounds_parallel(6, 2);
        assert_eq!(engine.swarm().completed(), swarm.completed());
        for p in 0..swarm.peer_count() {
            assert_eq!(
                engine.swarm().peer(p).total_downloaded().to_bits(),
                swarm.peer(p).total_downloaded().to_bits(),
                "peer {p} download totals diverge"
            );
        }
        engine.swarm().validate_consistency();
    }

    #[test]
    fn event_engine_rejects_missing_or_conflicting_sections() {
        let base = Scenario::new("t", 10)
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 6.0 })
            .with_capacity(CapacityModel::Constant { value: 300.0 });
        // No swarm section at all.
        assert!(matches!(
            base.clone().build_event_engine(&mut rng(1)),
            Err(ScenarioError::MissingSwarm)
        ));
        // Swarm section without timing.
        let untimed = base.clone().with_swarm(SwarmParams::default());
        assert!(matches!(
            untimed.build_event_engine(&mut rng(1)),
            Err(ScenarioError::MissingTiming)
        ));
        // Fluid-content swarms are rejected.
        let fluid = base.clone().with_swarm(SwarmParams {
            fluid_content: true,
            timing: Some(EventTiming::default()),
            ..SwarmParams::default()
        });
        assert!(matches!(
            fluid.build_event_engine(&mut rng(1)),
            Err(ScenarioError::InvalidParameter {
                what: "swarm timing",
                ..
            })
        ));
        // The fault plane is round-engine-only: combining it with the
        // timing axis is an error even when the plan is inert.
        let faulted = base.clone().with_swarm(SwarmParams {
            timing: Some(EventTiming::default()),
            faults: Some(FaultPlan::none()),
            ..SwarmParams::default()
        });
        assert!(matches!(
            faulted.build_event_engine(&mut rng(1)),
            Err(ScenarioError::InvalidParameter {
                what: "swarm timing",
                ..
            })
        ));
        // Malformed timing surfaces as an error, not a panic.
        let bad = base.with_swarm(SwarmParams {
            timing: Some(EventTiming {
                rechoke_interval: 0.0,
                ..EventTiming::default()
            }),
            ..SwarmParams::default()
        });
        assert!(matches!(
            bad.build_event_engine(&mut rng(1)),
            Err(ScenarioError::InvalidParameter {
                what: "swarm timing",
                ..
            })
        ));
    }

    #[test]
    fn universe_scenario_builds_and_runs() {
        let scenario = Scenario::new("multi", 16)
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 8.0 })
            .with_capacity(CapacityModel::Constant { value: 400.0 })
            .with_swarm(SwarmParams {
                seeds: 2,
                piece_count: 32,
                piece_size_kbit: 150.0,
                churn: Some(SessionConfig {
                    arrival: ArrivalProcess::Poisson { rate: 1.5 },
                    arrival_upload_kbps: 400.0,
                    target_degree: 8,
                    ..SessionConfig::default()
                }),
                universe: Some(UniverseParams {
                    torrents: 3,
                    popularity_skew: 1.0,
                    ..UniverseParams::default()
                }),
                ..SwarmParams::default()
            });
        let mut universe = scenario.build_universe(&mut rng(5)).unwrap();
        assert_eq!(universe.torrent_count(), 3);
        universe.run_rounds(6, None);
        assert!(universe.stats().cross_joins > 0);
        for t in 0..3 {
            universe.session(t).swarm().validate_consistency();
        }
        // Popularity-scaled arrivals: the rate sum is the base rate times
        // the torrent count, shared out by the Zipf weights.
        let rates: Vec<f64> = (0..3)
            .map(|t| match universe.session(t).config().arrival {
                ArrivalProcess::Poisson { rate } => rate,
                ref other => panic!("expected Poisson arrivals, got {other:?}"),
            })
            .collect();
        assert!((rates.iter().sum::<f64>() - 1.5 * 3.0).abs() < 1e-9);
        assert!(rates[0] > rates[1] && rates[1] > rates[2], "{rates:?}");
        // Deterministic: same stream, same universe.
        let mut again = scenario.build_universe(&mut rng(5)).unwrap();
        again.run_rounds(6, None);
        assert_eq!(again.stats(), universe.stats());
    }

    #[test]
    fn one_torrent_universe_embeds_the_session_build() {
        let scenario = Scenario::new("multi1", 20)
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 8.0 })
            .with_capacity(CapacityModel::Constant { value: 400.0 })
            .with_swarm(SwarmParams {
                seeds: 2,
                piece_count: 32,
                piece_size_kbit: 150.0,
                churn: Some(SessionConfig {
                    arrival: ArrivalProcess::Poisson { rate: 2.0 },
                    arrival_upload_kbps: 400.0,
                    target_degree: 8,
                    ..SessionConfig::default()
                }),
                universe: Some(UniverseParams {
                    torrents: 1,
                    ..UniverseParams::default()
                }),
                ..SwarmParams::default()
            });
        let mut universe = scenario.build_universe(&mut rng(9)).unwrap();
        universe.run_rounds(10, None);
        let mut session = scenario.build_session(&mut rng(9)).unwrap();
        session.run_rounds(10);
        assert_eq!(universe.session(0).stats(), session.stats());
        for p in 0..session.swarm().peer_count() {
            assert_eq!(
                universe
                    .session(0)
                    .swarm()
                    .peer(p)
                    .total_downloaded()
                    .to_bits(),
                session.swarm().peer(p).total_downloaded().to_bits(),
                "peer {p} download totals diverge"
            );
        }
    }

    #[test]
    fn universe_rejects_missing_or_conflicting_sections() {
        let base = Scenario::new("t", 10)
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 6.0 })
            .with_capacity(CapacityModel::Constant { value: 300.0 });
        // No swarm section at all.
        assert!(matches!(
            base.clone().build_universe(&mut rng(1)),
            Err(ScenarioError::MissingSwarm)
        ));
        // Swarm section without universe.
        let single = base.clone().with_swarm(SwarmParams::default());
        assert!(matches!(
            single.build_universe(&mut rng(1)),
            Err(ScenarioError::MissingUniverse)
        ));
        // Universe without churn (the arrival process drives membership).
        let churnless = base.clone().with_swarm(SwarmParams {
            universe: Some(UniverseParams::default()),
            ..SwarmParams::default()
        });
        assert!(matches!(
            churnless.build_universe(&mut rng(1)),
            Err(ScenarioError::MissingChurn)
        ));
        let with_universe = |mutate: fn(&mut SwarmParams)| {
            let mut params = SwarmParams {
                churn: Some(SessionConfig::default()),
                universe: Some(UniverseParams::default()),
                ..SwarmParams::default()
            };
            mutate(&mut params);
            base.clone().with_swarm(params)
        };
        // Fault plans, the event clock, and compaction all conflict.
        for scenario in [
            with_universe(|p| p.faults = Some(FaultPlan::none())),
            with_universe(|p| p.timing = Some(EventTiming::default())),
            with_universe(|p| {
                p.churn.as_mut().unwrap().compact_threshold = Some(0.5);
            }),
            with_universe(|p| p.fluid_content = true),
            with_universe(|p| {
                p.universe.as_mut().unwrap().popularity_skew = -1.0;
            }),
            with_universe(|p| p.universe.as_mut().unwrap().torrents = 0),
            with_universe(|p| {
                p.universe.as_mut().unwrap().class_upload_kbps = vec![-5.0];
            }),
        ] {
            assert!(matches!(
                scenario.build_universe(&mut rng(1)),
                Err(ScenarioError::InvalidParameter {
                    what: "swarm universe",
                    ..
                })
            ));
        }
    }

    #[test]
    fn missing_swarm_section_is_an_error() {
        let scenario = Scenario::new("t", 10);
        assert!(matches!(
            scenario.build_swarm(&mut rng(1)),
            Err(ScenarioError::MissingSwarm)
        ));
        // Degenerate sections are typed errors too, not engine panics, on
        // every builder that goes through `build_swarm`.
        let degenerate = [
            (
                1,
                "swarm",
                SwarmParams {
                    seeds: 0,
                    ..SwarmParams::default()
                },
            ),
            (
                0,
                "swarm",
                SwarmParams {
                    seeds: 1,
                    ..SwarmParams::default()
                },
            ),
            (
                10,
                "swarm",
                SwarmParams {
                    piece_count: 0,
                    ..SwarmParams::default()
                },
            ),
            (
                10,
                "swarm",
                SwarmParams {
                    piece_size_kbit: 0.0,
                    ..SwarmParams::default()
                },
            ),
            (
                10,
                "swarm",
                SwarmParams {
                    piece_size_kbit: -5.0,
                    ..SwarmParams::default()
                },
            ),
            (
                10,
                "swarm",
                SwarmParams {
                    tft_slots: 0,
                    optimistic_slots: 0,
                    ..SwarmParams::default()
                },
            ),
            (
                10,
                "swarm",
                SwarmParams {
                    initial_completion: 1.5,
                    ..SwarmParams::default()
                },
            ),
            (
                10,
                "swarm",
                SwarmParams {
                    round_seconds: -1.0,
                    ..SwarmParams::default()
                },
            ),
            (
                10,
                "swarm",
                SwarmParams {
                    optimistic_period: 0,
                    ..SwarmParams::default()
                },
            ),
            (
                10,
                "seed upload",
                SwarmParams {
                    seed_upload_kbps: 0.0,
                    ..SwarmParams::default()
                },
            ),
        ];
        for (peers, what, params) in degenerate {
            let with = |params: SwarmParams| {
                Scenario::new("t", peers)
                    .with_capacity(CapacityModel::Constant { value: 300.0 })
                    .with_swarm(params)
            };
            let session = SwarmParams {
                churn: Some(SessionConfig::default()),
                ..params.clone()
            };
            let event = SwarmParams {
                timing: Some(EventTiming::default()),
                ..params.clone()
            };
            for built in [
                with(params).build_swarm(&mut rng(1)).err(),
                with(session).build_session(&mut rng(1)).err(),
                with(event).build_event_engine(&mut rng(1)).err(),
            ] {
                assert!(
                    matches!(built, Some(ScenarioError::InvalidParameter { what: w, .. }) if w == what),
                    "{what}: {built:?}"
                );
            }
        }
    }

    #[test]
    fn timed_swarms_refuse_compaction() {
        let compacting = SessionConfig {
            compact_threshold: Some(0.25),
            ..SessionConfig::default()
        };
        let scenario = |timing: Option<EventTiming>| {
            Scenario::new("t", 10)
                .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 6.0 })
                .with_capacity(CapacityModel::Constant { value: 300.0 })
                .with_swarm(SwarmParams {
                    churn: Some(compacting.clone()),
                    timing,
                    ..SwarmParams::default()
                })
        };
        // The round engine compacts; the event engine never does.
        assert!(scenario(None).build_session(&mut rng(1)).is_ok());
        let timed = scenario(Some(EventTiming::default()));
        assert!(matches!(
            timed.build_event_engine(&mut rng(1)),
            Err(ScenarioError::InvalidParameter {
                what: "swarm timing",
                ..
            })
        ));
    }

    #[test]
    fn swarm_sections_refuse_the_dynamics_axes() {
        let base = Scenario::new("t", 10)
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 6.0 })
            .with_capacity(CapacityModel::Constant { value: 300.0 })
            .with_swarm(SwarmParams::default());
        assert!(base.build_swarm(&mut rng(1)).is_ok());
        for (scenario, what) in [
            (
                base.clone()
                    .with_preference(PreferenceModel::Latency { span: 1000.0 }),
                "preference",
            ),
            (
                base.clone().with_churn(ChurnModel::Rate { rate: 0.5 }),
                "churn",
            ),
            (
                base.clone().with_strategy(InitiativeStrategy::Random),
                "strategy",
            ),
        ] {
            let built = scenario.build_swarm(&mut rng(1)).err();
            assert!(
                matches!(built, Some(ScenarioError::InvalidParameter { what: w, .. }) if w == what),
                "{what}: {built:?}"
            );
            // Without the swarm section the dynamics read the axis.
            let mut dynamics = scenario;
            dynamics.swarm = None;
            assert!(dynamics.validate().is_ok(), "{what}");
        }
    }

    #[test]
    fn swarm_sections_refuse_an_explicit_topology() {
        let explicit = TopologyModel::Explicit {
            edges: vec![(0, 1), (1, 2)],
        };
        // The dynamics read the edge list as given.
        let dynamics = Scenario::new("t", 10).with_topology(explicit.clone());
        assert!(dynamics.build_dynamics(&mut rng(1)).is_ok());
        // A swarm would replace it by an overlay of its mean degree.
        let scenario = dynamics
            .with_capacity(CapacityModel::Constant { value: 300.0 })
            .with_swarm(SwarmParams {
                churn: Some(SessionConfig::default()),
                ..SwarmParams::default()
            });
        for built in [
            scenario.build_swarm(&mut rng(1)).err(),
            scenario.build_session(&mut rng(1)).err(),
        ] {
            assert!(
                matches!(
                    built,
                    Some(ScenarioError::InvalidParameter {
                        what: "topology",
                        ..
                    })
                ),
                "{built:?}"
            );
        }
    }

    #[test]
    fn swarm_round_length_reaches_the_engine() {
        let scenario = Scenario::new("t", 10)
            .with_capacity(CapacityModel::Constant { value: 300.0 })
            .with_swarm(SwarmParams {
                round_seconds: 5.0,
                ..SwarmParams::default()
            });
        let swarm = scenario.build_swarm(&mut rng(1)).unwrap();
        assert_eq!(swarm.config().round_seconds, 5.0);
    }

    #[test]
    fn same_stream_same_instance() {
        let scenario = Scenario::new("t", 80)
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 9.0 })
            .with_capacity(CapacityModel::RoundedNormal {
                mean: 3.0,
                sigma: 0.4,
            });
        let a = scenario.build_dynamics(&mut stream_rng(7, 3)).unwrap();
        let b = scenario.build_dynamics(&mut stream_rng(7, 3)).unwrap();
        assert_eq!(ranked_keys(&a), ranked_keys(&b));
        assert_eq!(a.capacities(), b.capacities());
        let c = scenario.build_dynamics(&mut stream_rng(7, 4)).unwrap();
        assert_ne!(a.capacities(), c.capacities());
    }

    #[test]
    fn latency_preferences_build_the_general_arm() {
        let scenario = Scenario::new("t", 60)
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 10.0 })
            .with_capacity(CapacityModel::Constant { value: 2.0 })
            .with_preference(PreferenceModel::Latency { span: 500.0 });
        let built = scenario.build_dynamics(&mut rng(9)).unwrap();
        assert!(matches!(built.keys(), ScenarioKeys::General(_)));
        assert_eq!(built.node_count(), 60);
        // Deterministic: same stream, same instance.
        let mut a = scenario.build_dynamics(&mut rng(9)).unwrap();
        let mut b = scenario.build_dynamics(&mut rng(9)).unwrap();
        let mut rng_a = rng(10);
        let mut rng_b = rng(10);
        for _ in 0..5 {
            a.run_base_unit(&mut rng_a);
            b.run_base_unit(&mut rng_b);
        }
        assert_eq!(a.matching(), b.matching());
    }

    #[test]
    fn latency_at_stable_is_stable_with_zero_disorder() {
        let scenario = Scenario::new("t", 50)
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 9.0 })
            .with_capacity(CapacityModel::Constant { value: 2.0 })
            .with_preference(PreferenceModel::BandedRankLatency {
                class_width: 10,
                span: 300.0,
            });
        let built = scenario.build_dynamics_at_stable(&mut rng(4)).unwrap();
        assert!(matches!(built.keys(), ScenarioKeys::General(_)));
        assert!(built.is_stable());
        assert_eq!(built.disorder(), 0.0);
        // Counter parity with the ranked arm: building at-stable reports no
        // pre-existing initiative activity.
        assert_eq!(built.initiative_count(), 0);
        assert_eq!(built.active_initiative_count(), 0);
    }

    #[test]
    fn latency_churn_drives_the_general_arm() {
        let scenario = Scenario::new("t", 40)
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 8.0 })
            .with_capacity(CapacityModel::Constant { value: 1.0 })
            .with_preference(PreferenceModel::Latency { span: 100.0 })
            .with_churn(ChurnModel::Rate { rate: 0.05 });
        let mut churn = scenario.build_churn(&mut rng(6)).unwrap();
        let mut r = rng(7);
        for _ in 0..10 {
            churn.run_base_unit(&mut r);
        }
        assert!(churn.event_count() > 0);
        assert!(matches!(churn.dynamics().keys(), ScenarioKeys::General(_)));
        // Population pinned at n or n - 1 by replacement churn.
        assert!((39..=40).contains(&churn.dynamics().present_count()));
        // Disorder reads cleanly on the general arm under churn.
        assert!(churn.dynamics().disorder() >= 0.0);
    }

    #[test]
    fn invalid_latency_span_rejected() {
        let scenario = Scenario::new("t", 10)
            .with_preference(PreferenceModel::Latency { span: 0.0 })
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 4.0 });
        assert!(matches!(
            scenario.build_dynamics(&mut rng(1)),
            Err(ScenarioError::InvalidParameter { .. })
        ));
        let banded = Scenario::new("t", 10)
            .with_preference(PreferenceModel::BandedRankLatency {
                class_width: 0,
                span: 10.0,
            })
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 4.0 });
        assert!(matches!(
            banded.build_dynamics(&mut rng(1)),
            Err(ScenarioError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn zero_gossip_sample_size_is_a_typed_error() {
        let complete = Scenario::new("t", 20)
            .with_preference(PreferenceModel::GossipEstimated { sample_size: 0 });
        let sparse = complete
            .clone()
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 4.0 });
        let rejected = |result: Option<ScenarioError>| {
            assert!(
                matches!(
                    result,
                    Some(ScenarioError::InvalidParameter {
                        what: "gossip sample size",
                        ..
                    })
                ),
                "{result:?}"
            );
        };
        for scenario in [&complete, &sparse] {
            rejected(scenario.build_dynamics(&mut rng(1)).err());
            rejected(scenario.build_dynamics_at_stable(&mut rng(1)).err());
            rejected(scenario.build_churn(&mut rng(1)).err());
            rejected(scenario.build_acceptance(&mut rng(1)).err());
            rejected(scenario.build_preferences(&mut rng(1)).err());
            rejected(scenario.stable_matching(&mut rng(1)).err());
            rejected(scenario.stable_matching_masked(&mut rng(1), |_| true).err());
        }
    }

    #[test]
    fn gossip_scenario_without_peers_builds_like_global_rank() {
        for preference in [
            PreferenceModel::GlobalRank,
            PreferenceModel::GossipEstimated { sample_size: 20 },
        ] {
            let scenario = Scenario::new("t", 0).with_preference(preference);
            assert_eq!(
                scenario.build_dynamics(&mut rng(1)).unwrap().node_count(),
                0
            );
            let at_stable = scenario.build_dynamics_at_stable(&mut rng(1)).unwrap();
            assert_eq!(at_stable.matching().edge_count(), 0);
            let mut churn = scenario.build_churn(&mut rng(1)).unwrap();
            assert_eq!(churn.run_base_unit(&mut rng(2)), 0);
            assert_eq!(
                scenario.stable_matching(&mut rng(1)).unwrap().edge_count(),
                0
            );
        }
    }

    /// Asserts two drivers are observably the same driver. The ranked
    /// `disorder()` is the 1-matching metric, so it is compared on
    /// 1-matching instances only.
    fn assert_same_driver<A: PreferenceKeys, B: PreferenceKeys>(
        a: &Dynamics<A>,
        b: &Dynamics<B>,
        what: &str,
    ) {
        assert_eq!(a.matching(), b.matching(), "{what}: matching");
        assert_eq!(a.initiative_count(), b.initiative_count(), "{what}");
        assert_eq!(
            a.active_initiative_count(),
            b.active_initiative_count(),
            "{what}"
        );
        if a.capacities().as_slice().iter().all(|&c| c <= 1) {
            assert_eq!(a.disorder().to_bits(), b.disorder().to_bits(), "{what}");
        }
        assert_eq!(
            a.disorder_general().to_bits(),
            b.disorder_general().to_bits(),
            "{what}"
        );
        assert_eq!(a.instant_stable(), b.instant_stable(), "{what}: baseline");
    }

    /// Runs a scenario-built driver and churn process in lockstep with
    /// their directly built twins, checking every observable.
    fn check_twins<K: PreferenceKeys + Clone>(
        mut built: Dynamics<ScenarioKeys>,
        mut direct: Dynamics<K>,
        mut churn: ChurnProcess<ScenarioKeys>,
        what: &str,
    ) {
        let mut direct_churn = ChurnProcess::new(direct.clone(), churn.rate());
        assert_same_driver(&built, &direct, what);
        let (mut rng_a, mut rng_b) = (rng(11), rng(11));
        for _ in 0..5 {
            built.run_base_unit(&mut rng_a);
            direct.run_base_unit(&mut rng_b);
        }
        assert_same_driver(&built, &direct, what);
        let (mut rng_a, mut rng_b) = (rng(12), rng(12));
        for _ in 0..5 {
            churn.run_base_unit(&mut rng_a);
            direct_churn.run_base_unit(&mut rng_b);
        }
        assert!(churn.event_count() > 0, "{what}: no churn");
        assert_eq!(churn.event_count(), direct_churn.event_count(), "{what}");
        assert_same_driver(churn.dynamics(), direct_churn.dynamics(), what);
    }

    #[test]
    fn scenario_built_driver_equals_the_directly_built_one() {
        // `ScenarioKeys` only delegates: the scenario-built driver and a
        // driver built directly on the underlying table from the same
        // stream must agree on every observable, with and without churn.
        let strategies = [
            InitiativeStrategy::BestMate,
            InitiativeStrategy::Decremental,
            InitiativeStrategy::Random,
        ];
        for preference in [
            PreferenceModel::GlobalRank,
            PreferenceModel::Latency { span: 100.0 },
        ] {
            for slots in [1.0, 2.0] {
                for strategy in strategies {
                    let scenario = Scenario::new("t", 120)
                        .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 8.0 })
                        .with_capacity(CapacityModel::Constant { value: slots })
                        .with_preference(preference.clone())
                        .with_strategy(strategy)
                        .with_churn(ChurnModel::Rate { rate: 0.05 });
                    let what = format!("{preference:?} / {strategy:?} / b = {slots}");
                    let built = scenario.build_dynamics(&mut rng(3)).unwrap();
                    let churn = scenario.build_churn(&mut rng(3)).unwrap();
                    let mut r = rng(3);
                    if preference.is_ranked() {
                        let acc = scenario.build_acceptance(&mut r).unwrap();
                        let caps = scenario.build_capacities(&mut r).unwrap();
                        let direct = Dynamics::new(acc, caps, strategy).unwrap();
                        check_twins(built, direct, churn, &what);
                    } else {
                        let graph = scenario.build_graph(&mut r).unwrap();
                        let prefs = scenario.build_preferences(&mut r).unwrap();
                        let caps = scenario.build_capacities(&mut r).unwrap();
                        let keys = PrefAcceptance::build(&graph, &prefs);
                        let direct = Dynamics::new(keys, caps, strategy).unwrap();
                        check_twins(built, direct, churn, &what);
                    }
                }
            }
        }
    }
}
