//! Core model of *Stratification in P2P Networks — Application to
//! BitTorrent* (Gai, Mathieu, Reynier, de Montgolfier; INRIA RR-6081 /
//! ICDCS 2007): **stable b-matching under a global ranking**.
//!
//! # Model
//!
//! Peers rank each other through a single shared utility (the *global
//! ranking*, [`GlobalRanking`]); each peer `p` owns `b(p)` collaboration
//! slots ([`Capacities`]); an acceptance graph restricts who may collaborate
//! ([`RankedAcceptance`]). A *configuration* ([`Matching`]) is stable when no
//! [blocking pair](blocking) exists. With a global ranking there are no
//! preference cycles, so a **unique** stable configuration exists — computed
//! by the greedy [`stable_configuration`] (Algorithm 1 of the paper) or, on
//! complete acceptance graphs, by the `O(n·b·α)`
//! [`stable_configuration_complete`].
//!
//! # Dynamics
//!
//! [`Dynamics`] simulates peers taking *initiatives* (best-mate, decremental
//! or random scans, [`InitiativeStrategy`]); Theorem 1 guarantees
//! convergence to the stable configuration, measured with the paper's
//! [`distance::disorder`] metric. [`ChurnProcess`] adds continuous
//! departures/arrivals (Figure 3).
//!
//! # Stratification
//!
//! [`cluster`] computes cluster sizes and the Mean Max Offset statistic of
//! Section 4 — the signature of stratification: collaboration clusters can
//! be made huge (variable capacities), yet every peer stays within a small
//! rank offset of its mates.
//!
//! # Data-oriented hot paths
//!
//! The matching core is laid out for the scans the model hammers in a
//! loop: [`RankedAcceptance`] stores adjacency in CSR form with a parallel
//! per-neighbour [`Rank`] array and binary-search membership;
//! [`Matching`] keeps each mate list as parallel `(NodeId, Rank)` arrays so
//! worst-mate ranks are `O(1)` reads; [`Dynamics`] maintains per-peer
//! acceptance thresholds incrementally, making each candidate probe two
//! array reads and a compare. The pre-optimization implementations live on
//! in [`mod@reference`] for differential testing and benchmarking.
//!
//! # Quick start
//!
//! ```
//! use strat_core::{
//!     blocking, stable_configuration, Capacities, GlobalRanking, RankedAcceptance,
//! };
//! use strat_graph::generators;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2007);
//! let graph = generators::erdos_renyi_mean_degree(500, 20.0, &mut rng);
//! let acc = RankedAcceptance::new(graph, GlobalRanking::identity(500))?;
//! let caps = Capacities::constant(500, 3);
//!
//! let stable = stable_configuration(&acc, &caps)?;
//! assert!(blocking::is_stable(&acc, &caps, &stable));
//! # Ok::<(), strat_core::ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
// Index-coupled loops are the domain idiom here: prefix-sum and permutation loops are index-coupled.
#![allow(clippy::needless_range_loop)]

mod accept;
pub mod blocking;
mod capacity;
mod churn;
pub mod cluster;
pub mod distance;
mod dynamics;
pub mod engine;
mod error;
pub mod gossip;
mod matching;
pub mod prefs;
mod rank;
pub mod reference;
mod stable;

pub use accept::RankedAcceptance;
pub use capacity::{standard_normal, Capacities, CapacityDistribution};
pub use churn::{ChurnEvent, ChurnProcess};
pub use dynamics::Dynamics;
pub use engine::{InitiativeOutcome, InitiativeStrategy, PreferenceKeys};
pub use error::ModelError;
pub use matching::Matching;
pub use prefs::PrefAcceptance;
pub use rank::{GlobalRanking, Rank};
pub use stable::{
    stable_configuration, stable_configuration_complete, stable_configuration_masked,
};
