//! The pluggable component axes a [`Scenario`](crate::Scenario) composes.

use rand::Rng;
use serde::{Deserialize, Serialize};
use strat_bandwidth::BandwidthCdf;
use strat_bittorrent::PeerBehavior;
use strat_core::prefs::{
    BandedRankPrefs, GlobalPrefs, LatencyPrefs, LexicographicPrefs, PreferenceSystem,
};
use strat_core::{gossip, standard_normal, Capacities, CapacityDistribution, GlobalRanking};
use strat_graph::{generators, Graph, NodeId};

use crate::error::ensure;
use crate::ScenarioError;

/// The per-peer mark `S(p)` — the quantity peers rank each other by.
///
/// The same model is interpreted in two units, depending on the backend:
/// **collaboration slots** (`b(p)`, rounded to positive integers) for the
/// matching dynamics, and **upload bandwidth** (kbps) for the swarm
/// simulator. Models that only make sense in one unit (the Saroiu CDF is a
/// bandwidth measurement) raise [`ScenarioError::CapacityUnit`] in the
/// other.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum CapacityModel {
    /// Every peer gets the same mark (constant `b₀`-matching, §4.1).
    Constant {
        /// Slots (must be a non-negative integer) or kbps.
        value: f64,
    },
    /// Rounded normal `N(mean, sigma²)` (§4.2); slot draws round to the
    /// nearest positive integer exactly like
    /// [`CapacityDistribution::RoundedNormal`], bandwidth draws clamp to
    /// ≥ 1 kbps.
    RoundedNormal {
        /// Mean `b̄`.
        mean: f64,
        /// Standard deviation `σ`.
        sigma: f64,
    },
    /// Uniform draws in `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// The Figure 10 Saroiu-style upstream CDF, assigned by global rank
    /// (rank 0 = fastest; bandwidth only).
    SaroiuByRank,
    /// The Figure 10 CDF in shuffled order: rank assignment permuted by a
    /// ChaCha8 stream seeded with `shuffle_seed`, so peer indices carry no
    /// rank information (bandwidth only; the swarm's standard setting).
    SaroiuShuffled {
        /// Seed of the shuffling stream.
        shuffle_seed: u64,
    },
    /// Explicit per-peer values.
    Explicit {
        /// One mark per peer.
        values: Vec<f64>,
    },
}

/// The unit a [`CapacityModel`] is read in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkUnit {
    /// Collaboration slots `b(p)` (the matching dynamics).
    Slots,
    /// Upload bandwidth in kbps (the swarm).
    Bandwidth,
}

impl CapacityModel {
    /// Checks this model for `n` peers read in `unit` (the rules are listed
    /// in `docs/SCENARIO_SCHEMA.md`, "Validation").
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidParameter`],
    /// [`ScenarioError::SizeMismatch`] or [`ScenarioError::CapacityUnit`]
    /// for the first violation.
    pub fn validate(&self, n: usize, unit: MarkUnit) -> Result<(), ScenarioError> {
        let mark = |v: f64| match unit {
            MarkUnit::Slots => ensure(
                v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v <= f64::from(u32::MAX),
                "slot capacity",
                || format!("must be a non-negative integer, got {v}"),
            ),
            MarkUnit::Bandwidth => ensure(v.is_finite() && v > 0.0, "bandwidth", || {
                format!("must be positive kbps, got {v}")
            }),
        };
        match self {
            CapacityModel::Constant { value } => mark(*value),
            CapacityModel::RoundedNormal { mean, sigma } => ensure(
                mean.is_finite() && sigma.is_finite() && *sigma >= 0.0,
                "normal capacity",
                || format!("need finite mean and sigma >= 0, got N({mean}, {sigma}^2)"),
            ),
            CapacityModel::Uniform { lo, hi } => {
                ensure(
                    lo.is_finite() && hi.is_finite() && lo < hi,
                    "uniform capacity",
                    || format!("need lo < hi, got [{lo}, {hi})"),
                )?;
                match unit {
                    MarkUnit::Slots => Ok(()),
                    MarkUnit::Bandwidth => mark(*lo),
                }
            }
            CapacityModel::SaroiuByRank | CapacityModel::SaroiuShuffled { .. } => match unit {
                MarkUnit::Slots => Err(ScenarioError::CapacityUnit {
                    model: format!("{self:?}"),
                    wanted: "collaboration slots",
                }),
                MarkUnit::Bandwidth => Ok(()),
            },
            CapacityModel::Explicit { values } => {
                if values.len() != n {
                    return Err(ScenarioError::SizeMismatch {
                        expected: n,
                        actual: values.len(),
                    });
                }
                values.iter().try_for_each(|&v| mark(v))
            }
        }
    }

    /// Samples collaboration-slot capacities for `n` peers.
    ///
    /// # Errors
    ///
    /// Returns what [`validate`](Self::validate) returns for
    /// [`MarkUnit::Slots`].
    pub fn slot_capacities<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
    ) -> Result<Capacities, ScenarioError> {
        self.validate(n, MarkUnit::Slots)?;
        Ok(match self {
            CapacityModel::Constant { value } => Capacities::constant(n, *value as u32),
            CapacityModel::RoundedNormal { mean, sigma } => Capacities::sample(
                n,
                &CapacityDistribution::RoundedNormal {
                    mean: *mean,
                    sigma: *sigma,
                },
                rng,
            ),
            CapacityModel::Uniform { lo, hi } => Capacities::from_values(
                (0..n)
                    .map(|_| (rng.gen_range(*lo..*hi).round().max(1.0)) as u32)
                    .collect(),
            ),
            CapacityModel::Explicit { values } => {
                Capacities::from_values(values.iter().map(|&v| v as u32).collect())
            }
            CapacityModel::SaroiuByRank | CapacityModel::SaroiuShuffled { .. } => {
                unreachable!("validate refuses bandwidth-only models as slots")
            }
        })
    }

    /// Samples per-peer upload bandwidths (kbps) for `n` peers.
    ///
    /// # Errors
    ///
    /// Returns what [`validate`](Self::validate) returns for
    /// [`MarkUnit::Bandwidth`].
    pub fn upload_bandwidths<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
    ) -> Result<Vec<f64>, ScenarioError> {
        self.validate(n, MarkUnit::Bandwidth)?;
        Ok(match self {
            CapacityModel::Constant { value } => vec![*value; n],
            CapacityModel::RoundedNormal { mean, sigma } => (0..n)
                .map(|_| (mean + sigma * standard_normal(rng)).max(1.0))
                .collect(),
            CapacityModel::Uniform { lo, hi } => (0..n).map(|_| rng.gen_range(*lo..*hi)).collect(),
            CapacityModel::SaroiuByRank => {
                BandwidthCdf::saroiu_gnutella_upstream().assign_by_rank(n)
            }
            CapacityModel::SaroiuShuffled { shuffle_seed } => {
                BandwidthCdf::saroiu_gnutella_upstream().assign_shuffled(n, *shuffle_seed)
            }
            CapacityModel::Explicit { values } => values.clone(),
        })
    }

    /// The bandwidth CDF behind Saroiu-style models (the Figure 11
    /// efficiency model keys on it); `None` for the others.
    #[must_use]
    pub fn bandwidth_cdf(&self) -> Option<BandwidthCdf> {
        match self {
            CapacityModel::SaroiuByRank | CapacityModel::SaroiuShuffled { .. } => {
                Some(BandwidthCdf::saroiu_gnutella_upstream())
            }
            _ => None,
        }
    }
}

/// The acceptance graph (dynamics) / tracker overlay (swarm).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TopologyModel {
    /// Complete knowledge: every pair is acceptable (§4's setting). The
    /// dynamics path uses the `O(n·b·α)` complete-graph specialization and
    /// never materializes the quadratic edge set.
    Complete,
    /// Erdős–Rényi `G(n, d)` by expected degree: each edge independently
    /// with probability `d / (n − 1)` (the paper's simulations).
    ErdosRenyiMeanDegree {
        /// Expected degree `d`.
        d: f64,
    },
    /// Erdős–Rényi `G(n, p)` by edge probability (the analytic chapters'
    /// parameterization).
    ErdosRenyiEdgeProbability {
        /// Edge probability `p`.
        p: f64,
    },
    /// Explicit edge list.
    Explicit {
        /// Undirected edges as `(u, v)` index pairs.
        edges: Vec<(usize, usize)>,
    },
}

impl TopologyModel {
    /// Checks this model on `n` nodes: a finite `d ≥ 0`, a finite
    /// `p ∈ [0, 1]`, explicit edges between two distinct nodes below `n`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidParameter`] for the first violation.
    pub fn validate(&self, n: usize) -> Result<(), ScenarioError> {
        match self {
            TopologyModel::Complete => Ok(()),
            TopologyModel::ErdosRenyiMeanDegree { d } => {
                ensure(d.is_finite() && *d >= 0.0, "mean degree", || {
                    format!("must be non-negative, got {d}")
                })
            }
            TopologyModel::ErdosRenyiEdgeProbability { p } => {
                ensure((0.0..=1.0).contains(p), "edge probability", || {
                    format!("must be in [0, 1], got {p}")
                })
            }
            TopologyModel::Explicit { edges } => {
                let bad = edges.iter().find(|&&(u, v)| u == v || u.max(v) >= n);
                ensure(bad.is_none(), "explicit edge", || {
                    let (u, v) = bad.copied().unwrap_or_default();
                    format!("({u}, {v}) is a self-loop or names a node outside 0..{n}")
                })
            }
        }
    }

    /// Materializes the graph on `n` nodes.
    ///
    /// # Errors
    ///
    /// Returns what [`validate`](Self::validate) returns.
    pub fn build_graph<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
    ) -> Result<Graph, ScenarioError> {
        self.validate(n)?;
        Ok(match self {
            TopologyModel::Complete => generators::complete(n),
            TopologyModel::ErdosRenyiMeanDegree { d } => {
                generators::erdos_renyi_mean_degree(n, *d, rng)
            }
            TopologyModel::ErdosRenyiEdgeProbability { p } => generators::erdos_renyi(n, *p, rng),
            TopologyModel::Explicit { edges } => Graph::from_edges(
                n,
                edges.iter().map(|&(u, v)| (NodeId::new(u), NodeId::new(v))),
            )?,
        })
    }

    /// Expected mean degree on `n` nodes (analytic kernels key on this).
    #[must_use]
    pub fn mean_degree(&self, n: usize) -> f64 {
        match self {
            TopologyModel::Complete => n.saturating_sub(1) as f64,
            TopologyModel::ErdosRenyiMeanDegree { d } => *d,
            TopologyModel::ErdosRenyiEdgeProbability { p } => p * (n.saturating_sub(1)) as f64,
            TopologyModel::Explicit { edges } => {
                if n == 0 {
                    0.0
                } else {
                    2.0 * edges.len() as f64 / n as f64
                }
            }
        }
    }

    /// Edge probability on `n` nodes (the independence model's `p`).
    #[must_use]
    pub fn edge_probability(&self, n: usize) -> f64 {
        match self {
            TopologyModel::ErdosRenyiEdgeProbability { p } => *p,
            _ if n <= 1 => 0.0,
            other => (other.mean_degree(n) / (n - 1) as f64).clamp(0.0, 1.0),
        }
    }
}

/// How peers order potential mates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum PreferenceModel {
    /// The paper's global ranking: peer index = rank (label `i` has rank
    /// `i`; all experiments' convention).
    GlobalRank,
    /// Ranks estimated by gossip sampling (`sample_size` probes per peer,
    /// Jelasity-style peer sampling — §1 reference `[8]`).
    GossipEstimated {
        /// Probes per peer.
        sample_size: usize,
    },
    /// Symmetric latency utility: peers prefer nearby peers; positions are
    /// drawn uniformly from `[0, span)` at build time.
    Latency {
        /// Extent of the (1-D) latency space.
        span: f64,
    },
    /// Lexicographic banded rank refined by latency (§7's combined
    /// utility): rank classes of `class_width`, ties broken by distance.
    BandedRankLatency {
        /// Width of one rank class.
        class_width: usize,
        /// Extent of the latency space.
        span: f64,
    },
}

/// A materialized preference system — what [`PreferenceModel`] builds for
/// the dynamics backends. Rank-shaped models carry a [`GlobalRanking`]
/// (they run on the ranked fast path); the latency-flavoured models carry
/// the core preference systems the generic engine consumes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum BuiltPreferences {
    /// A global-ranking utility (exact or gossip-estimated).
    Global(GlobalPrefs),
    /// The symmetric latency utility.
    Latency(LatencyPrefs),
    /// Banded rank classes refined by latency (§7's combined utility).
    BandedLatency(LexicographicPrefs<BandedRankPrefs, LatencyPrefs>),
}

impl BuiltPreferences {
    /// The global ranking, when this is a rank-shaped system.
    #[must_use]
    pub fn ranking(&self) -> Option<&GlobalRanking> {
        match self {
            BuiltPreferences::Global(prefs) => Some(prefs.ranking()),
            _ => None,
        }
    }
}

impl PreferenceSystem for BuiltPreferences {
    fn n(&self) -> usize {
        match self {
            BuiltPreferences::Global(p) => p.n(),
            BuiltPreferences::Latency(p) => p.n(),
            BuiltPreferences::BandedLatency(p) => p.n(),
        }
    }

    fn prefers(&self, p: NodeId, a: NodeId, b: NodeId) -> bool {
        match self {
            BuiltPreferences::Global(s) => s.prefers(p, a, b),
            BuiltPreferences::Latency(s) => s.prefers(p, a, b),
            BuiltPreferences::BandedLatency(s) => s.prefers(p, a, b),
        }
    }

    fn sort_key(&self, p: NodeId, candidate: NodeId) -> Option<f64> {
        match self {
            BuiltPreferences::Global(s) => s.sort_key(p, candidate),
            BuiltPreferences::Latency(s) => s.sort_key(p, candidate),
            BuiltPreferences::BandedLatency(s) => s.sort_key(p, candidate),
        }
    }
}

impl PreferenceModel {
    /// Checks this model: a gossip sample size, a rank class width and a
    /// finite latency span must all be positive.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidParameter`] for the first violation.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        match *self {
            PreferenceModel::GlobalRank => Ok(()),
            PreferenceModel::GossipEstimated { sample_size } => {
                ensure(sample_size > 0, "gossip sample size", || {
                    "must be positive".to_string()
                })
            }
            PreferenceModel::Latency { span } | PreferenceModel::BandedRankLatency { span, .. } => {
                ensure(span.is_finite() && span > 0.0, "latency span", || {
                    format!("must be positive and finite, got {span}")
                })?;
                ensure(self.class_width() != Some(0), "rank class width", || {
                    "must be positive".to_string()
                })
            }
        }
    }

    /// The global ranking this model induces for the ranked-dynamics path.
    ///
    /// `GlobalRank` and the latency-flavoured models use the identity
    /// ranking (labels are ranks); `GossipEstimated` samples an estimate
    /// from `rng` (no peers, no draws: the empty ranking).
    ///
    /// # Panics
    ///
    /// Panics on a zero gossip sample size with peers present, which
    /// [`validate`](Self::validate) refuses.
    pub fn build_ranking<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> GlobalRanking {
        match self {
            PreferenceModel::GossipEstimated { sample_size } if n > 0 => {
                gossip::estimate_ranking(&GlobalRanking::identity(n), *sample_size, rng)
            }
            _ => GlobalRanking::identity(n),
        }
    }

    /// Whether this model is a global-ranking utility, i.e. runs on the
    /// ranked key table of [`strat_core::Dynamics`] rather than the
    /// generalized one.
    #[must_use]
    pub fn is_ranked(&self) -> bool {
        matches!(
            self,
            PreferenceModel::GlobalRank | PreferenceModel::GossipEstimated { .. }
        )
    }

    /// Materializes the preference system this model describes, consuming
    /// exactly the randomness of [`build_ranking`](Self::build_ranking)
    /// (rank-shaped models) or
    /// [`latency_positions`](Self::latency_positions) (latency-flavoured
    /// models).
    ///
    /// # Errors
    ///
    /// Returns what [`validate`](Self::validate) returns.
    pub fn build_preferences<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
    ) -> Result<BuiltPreferences, ScenarioError> {
        self.validate()?;
        // Latency-flavoured models draw positions; rank-shaped ones a ranking.
        let positions = self.latency_positions(n, rng);
        Ok(match (self, positions) {
            (PreferenceModel::BandedRankLatency { class_width, .. }, Some(positions)) => {
                BuiltPreferences::BandedLatency(LexicographicPrefs::new(
                    BandedRankPrefs::new(GlobalRanking::identity(n), *class_width),
                    LatencyPrefs::new(positions),
                ))
            }
            (_, Some(positions)) => BuiltPreferences::Latency(LatencyPrefs::new(positions)),
            (_, None) => BuiltPreferences::Global(GlobalPrefs::new(self.build_ranking(n, rng))),
        })
    }

    /// Latency positions for the models that embed peers in a latency
    /// space (`None` otherwise). Drawing consumes `n` uniform draws.
    pub fn latency_positions<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Option<Vec<f64>> {
        match self {
            PreferenceModel::Latency { span } | PreferenceModel::BandedRankLatency { span, .. } => {
                Some((0..n).map(|_| rng.gen_range(0.0..*span)).collect())
            }
            _ => None,
        }
    }

    /// The rank-class width for banded models (`None` otherwise).
    #[must_use]
    pub fn class_width(&self) -> Option<usize> {
        match self {
            PreferenceModel::BandedRankLatency { class_width, .. } => Some(*class_width),
            _ => None,
        }
    }
}

/// Population turnover.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ChurnModel {
    /// Static population.
    None,
    /// Replacement churn: probability `rate` of one departure+arrival per
    /// initiative step (Figure 3's `x/1000` labels).
    Rate {
        /// Events per initiative step, in `[0, 1]`.
        rate: f64,
    },
    /// Poisson arrivals/departures: an expected `events_per_base_unit`
    /// replacement events per base unit (`n` initiatives), realized by
    /// Bernoulli thinning at rate `events_per_base_unit / n` per step.
    PoissonPerBaseUnit {
        /// Expected churn events per base unit.
        events_per_base_unit: f64,
    },
}

impl ChurnModel {
    /// Checks that the per-initiative-step event rate on an `n`-peer
    /// system lands in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidParameter`] otherwise.
    pub fn validate(&self, n: usize) -> Result<(), ScenarioError> {
        let rate = self.per_step(n);
        ensure((0.0..=1.0).contains(&rate), "churn rate", || {
            format!("per-step rate must be in [0, 1], got {rate}")
        })
    }

    /// The per-initiative-step event rate on an `n`-peer system.
    ///
    /// # Errors
    ///
    /// Returns what [`validate`](Self::validate) returns.
    pub fn rate_per_step(&self, n: usize) -> Result<f64, ScenarioError> {
        self.validate(n)?;
        Ok(self.per_step(n))
    }

    fn per_step(&self, n: usize) -> f64 {
        match self {
            ChurnModel::None => 0.0,
            ChurnModel::Rate { rate } => *rate,
            ChurnModel::PoissonPerBaseUnit { .. } if n == 0 => 0.0,
            ChurnModel::PoissonPerBaseUnit {
                events_per_base_unit,
            } => events_per_base_unit / n as f64,
        }
    }
}

/// Counts of protocol-deviant leechers in a swarm (everyone else runs the
/// compliant reference policy).
///
/// Assignment is deterministic: altruists take the **lowest** leecher
/// indices, free riders the **highest**, seeds are always compliant. With
/// shuffled capacity models the indices carry no rank information, so the
/// deviant populations are bandwidth-representative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BehaviorMix {
    /// Leechers that never upload.
    pub free_riders: usize,
    /// Leechers that upload like seeds (no reciprocation demanded).
    pub altruists: usize,
}

impl BehaviorMix {
    /// An all-compliant swarm.
    #[must_use]
    pub fn compliant() -> Self {
        Self {
            free_riders: 0,
            altruists: 0,
        }
    }

    /// Checks that the deviant counts fit in `leechers`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidParameter`] otherwise.
    pub fn validate(&self, leechers: usize) -> Result<(), ScenarioError> {
        let (free, alt) = (self.free_riders, self.altruists);
        ensure(free.saturating_add(alt) <= leechers, "behavior mix", || {
            format!("{free} free riders + {alt} altruists exceed {leechers} leechers")
        })
    }

    /// Expands the mix into one behavior per peer (`leechers + seeds`).
    ///
    /// # Errors
    ///
    /// Returns what [`validate`](Self::validate) returns.
    pub fn assign(
        &self,
        leechers: usize,
        seeds: usize,
    ) -> Result<Vec<PeerBehavior>, ScenarioError> {
        self.validate(leechers)?;
        let mut behaviors = vec![PeerBehavior::Compliant; leechers + seeds];
        for b in behaviors.iter_mut().take(self.altruists) {
            *b = PeerBehavior::Altruistic;
        }
        for b in behaviors
            .iter_mut()
            .take(leechers)
            .skip(leechers - self.free_riders)
        {
            *b = PeerBehavior::FreeRider;
        }
        Ok(behaviors)
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use super::*;

    #[test]
    fn constant_slots_and_bandwidth() {
        let model = CapacityModel::Constant { value: 3.0 };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let caps = model.slot_capacities(5, &mut rng).unwrap();
        assert_eq!(caps.as_slice(), &[3, 3, 3, 3, 3]);
        assert_eq!(model.upload_bandwidths(2, &mut rng).unwrap(), [3.0, 3.0]);
        assert!(CapacityModel::Constant { value: 2.5 }
            .slot_capacities(3, &mut rng)
            .is_err());
    }

    #[test]
    fn rounded_normal_matches_core_sampler() {
        let model = CapacityModel::RoundedNormal {
            mean: 6.0,
            sigma: 0.2,
        };
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        let via_model = model.slot_capacities(500, &mut a).unwrap();
        let via_core = Capacities::sample(
            500,
            &CapacityDistribution::RoundedNormal {
                mean: 6.0,
                sigma: 0.2,
            },
            &mut b,
        );
        assert_eq!(via_model, via_core, "RNG consumption must be identical");
    }

    #[test]
    fn saroiu_models_are_bandwidth_only() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!(matches!(
            CapacityModel::SaroiuByRank.slot_capacities(10, &mut rng),
            Err(ScenarioError::CapacityUnit { .. })
        ));
        let by_rank = CapacityModel::SaroiuByRank
            .upload_bandwidths(100, &mut rng)
            .unwrap();
        let shuffled = CapacityModel::SaroiuShuffled { shuffle_seed: 4 }
            .upload_bandwidths(100, &mut rng)
            .unwrap();
        let mut sorted = shuffled.clone();
        sorted.sort_by(|x, y| y.total_cmp(x));
        assert_eq!(by_rank, sorted);
    }

    #[test]
    fn explicit_values_validated() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let model = CapacityModel::Explicit {
            values: vec![3.0, 2.0, 2.0],
        };
        assert_eq!(
            model.slot_capacities(3, &mut rng).unwrap().as_slice(),
            &[3, 2, 2]
        );
        assert!(matches!(
            model.slot_capacities(4, &mut rng),
            Err(ScenarioError::SizeMismatch {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn topology_builders_and_degrees() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let complete = TopologyModel::Complete.build_graph(6, &mut rng).unwrap();
        assert_eq!(complete.edge_count(), 15);
        assert_eq!(TopologyModel::Complete.mean_degree(6), 5.0);

        let er = TopologyModel::ErdosRenyiMeanDegree { d: 8.0 }
            .build_graph(500, &mut rng)
            .unwrap();
        let mean = 2.0 * er.edge_count() as f64 / 500.0;
        assert!((mean - 8.0).abs() < 1.5, "mean degree {mean}");
        let p_model = TopologyModel::ErdosRenyiEdgeProbability { p: 0.01 };
        assert!((p_model.mean_degree(1001) - 10.0).abs() < 1e-9);
        assert!((p_model.edge_probability(1001) - 0.01).abs() < 1e-12);

        let explicit = TopologyModel::Explicit {
            edges: vec![(0, 1), (1, 2)],
        };
        let g = explicit.build_graph(3, &mut rng).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(explicit.build_graph(2, &mut rng).is_err());
    }

    #[test]
    fn er_mean_degree_matches_generator_stream() {
        // The scenario path must consume the RNG identically to calling
        // the generator directly (bit-identical graphs).
        let mut a = ChaCha8Rng::seed_from_u64(11);
        let mut b = ChaCha8Rng::seed_from_u64(11);
        let via_model = TopologyModel::ErdosRenyiMeanDegree { d: 10.0 }
            .build_graph(300, &mut a)
            .unwrap();
        let direct = generators::erdos_renyi_mean_degree(300, 10.0, &mut b);
        assert_eq!(via_model.edge_count(), direct.edge_count());
        for v in 0..300 {
            assert_eq!(
                via_model.neighbors(NodeId::new(v)),
                direct.neighbors(NodeId::new(v))
            );
        }
    }

    #[test]
    fn churn_rates() {
        assert_eq!(ChurnModel::None.rate_per_step(100).unwrap(), 0.0);
        assert_eq!(
            ChurnModel::Rate { rate: 0.01 }.rate_per_step(100).unwrap(),
            0.01
        );
        assert_eq!(
            ChurnModel::PoissonPerBaseUnit {
                events_per_base_unit: 5.0
            }
            .rate_per_step(1000)
            .unwrap(),
            0.005
        );
        assert!(ChurnModel::Rate { rate: 1.5 }.rate_per_step(10).is_err());
    }

    #[test]
    fn behavior_mix_assignment() {
        let mix = BehaviorMix {
            free_riders: 2,
            altruists: 1,
        };
        let behaviors = mix.assign(6, 2).unwrap();
        assert_eq!(behaviors.len(), 8);
        assert_eq!(behaviors[0], PeerBehavior::Altruistic);
        assert_eq!(behaviors[1], PeerBehavior::Compliant);
        assert_eq!(behaviors[4], PeerBehavior::FreeRider);
        assert_eq!(behaviors[5], PeerBehavior::FreeRider);
        assert_eq!(behaviors[6], PeerBehavior::Compliant); // seed
        assert!(BehaviorMix {
            free_riders: 5,
            altruists: 2
        }
        .assign(6, 0)
        .is_err());
    }

    #[test]
    fn gossip_preferences_estimate_ranks() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let model = PreferenceModel::GossipEstimated { sample_size: 50 };
        let est = model.build_ranking(200, &mut rng);
        let truth = GlobalRanking::identity(200);
        // Estimates are noisy (nonzero mean rank error) but stay local:
        // well under the n/sqrt(k) noise scale.
        let distortion = gossip::ranking_distortion(&truth, &est);
        assert!(
            distortion > 0.0 && distortion < 200.0 / (50.0f64).sqrt(),
            "distortion {distortion}"
        );
        assert!(model.latency_positions(10, &mut rng).is_none());
        let lat = PreferenceModel::Latency { span: 100.0 };
        let pos = lat.latency_positions(10, &mut rng).unwrap();
        assert_eq!(pos.len(), 10);
        assert!(pos.iter().all(|&x| (0.0..100.0).contains(&x)));
    }
}
