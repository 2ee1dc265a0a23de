//! Declarative simulation scenarios: one serializable [`Scenario`] value is
//! the single way to instantiate *any* simulation in the workspace — the
//! abstract b-matching dynamics (`strat-core`), churned populations, and
//! the protocol-level swarm simulator (`strat-bittorrent`).
//!
//! The paper's central claim is that stratification emerges across
//! settings; this crate makes "a setting" a first-class value composed of
//! five orthogonal axes:
//!
//! * [`CapacityModel`] — the per-peer mark `S(p)`: collaboration slots for
//!   the dynamics, upload bandwidth (kbps) for the swarm. Constant,
//!   uniform, rounded-normal `N(b̄, σ²)` (§4.2), the Saroiu Figure 10 CDF
//!   (by rank or seed-shuffled), or explicit values;
//! * [`TopologyModel`] — the acceptance/overlay graph: complete, Erdős–
//!   Rényi by expected degree `d` or edge probability `p`, or explicit
//!   edges;
//! * [`PreferenceModel`] — how peers order mates: the paper's global rank,
//!   gossip-estimated ranks (§1 ref `[8]`), symmetric latency, or banded
//!   rank × latency (§7);
//! * [`ChurnModel`] — none, replacement churn per initiative step
//!   (Figure 3), or Poisson arrivals/departures per base unit;
//! * [`BehaviorMix`] (swarm only, inside [`SwarmParams`]) — compliant /
//!   free-rider / altruistic peer populations.
//!
//! Scenarios serialize to JSON ([`Scenario::to_json`] /
//! [`Scenario::from_json`]), so a new workload is a JSON file plus shape
//! checks — not a new module. Construction is **deterministic**: every
//! `build_*` method threads an explicit RNG, and the workspace convention
//! ([`stream_rng`]) derives independent ChaCha8 streams from
//! `(seed, stream)` pairs, which keeps results bit-identical for any
//! thread count.
//!
//! # Example
//!
//! Describe a churned 1-matching system, round-trip it through JSON, and
//! verify the rebuilt dynamics are bit-identical:
//!
//! ```
//! use strat_scenario::{stream_rng, CapacityModel, ChurnModel, Scenario, TopologyModel};
//!
//! let scenario = Scenario::new("demo", 200)
//!     .with_seed(7)
//!     .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 10.0 })
//!     .with_capacity(CapacityModel::Constant { value: 1.0 })
//!     .with_churn(ChurnModel::Rate { rate: 0.01 });
//!
//! let parsed = Scenario::from_json(&scenario.to_json())?;
//! assert_eq!(parsed, scenario);
//!
//! let mut a = scenario.build_churn(&mut stream_rng(scenario.seed, 0))?;
//! let mut b = parsed.build_churn(&mut stream_rng(parsed.seed, 0))?;
//! let mut rng_a = stream_rng(scenario.seed, 1);
//! let mut rng_b = stream_rng(parsed.seed, 1);
//! for _ in 0..5 {
//!     a.run_base_unit(&mut rng_a);
//!     b.run_base_unit(&mut rng_b);
//! }
//! assert_eq!(a.dynamics().matching(), b.dynamics().matching());
//! # Ok::<(), strat_scenario::ScenarioError>(())
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod error;
mod json;
mod model;
mod scenario;

pub use error::ScenarioError;
pub use model::{
    BehaviorMix, BuiltPreferences, CapacityModel, ChurnModel, MarkUnit, PreferenceModel,
    TopologyModel,
};
pub use scenario::{Scenario, ScenarioKeys, SwarmParams, UniverseParams};
// The swarm-churn section types come from the engine crate verbatim: the
// scenario's `swarm.churn` section *is* a session configuration, and the
// `swarm.faults` section *is* a fault plan.
pub use strat_bittorrent::session::{ArrivalProcess, DepartureRules, Session, SessionConfig};
pub use strat_bittorrent::universe::{CapacitySplit, MembershipModel, Universe, UniverseConfig};
pub use strat_bittorrent::{EventEngine, EventTiming, FaultPlan, FaultWindow};

/// Deterministic ChaCha8 stream `stream` derived from `seed` — the
/// workspace-wide seed-derivation convention (formerly
/// `strat_sim::experiments::common::rng`).
#[must_use]
pub fn stream_rng(seed: u64, stream: u64) -> rand_chacha::ChaCha8Rng {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    rng.set_stream(stream);
    rng
}
