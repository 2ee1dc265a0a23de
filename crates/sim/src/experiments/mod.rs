//! One module per paper artifact. Each exposes two entry points wired
//! into the [`runner`](crate::runner) registry:
//!
//! * `preset(&ExperimentContext) -> Scenario` — the named declarative
//!   scenario for the figure (what `experiments scenarios --dump` writes);
//! * `run_scenario(&ExperimentContext, &Scenario) -> Result<ExperimentResult,
//!   ScenarioError>` — the measurement kernel, driven entirely by the
//!   scenario (sweeps are expressed as `with_*` variants of it); a
//!   scenario the kernel cannot build or measure is a typed error.
//!
//! The registry's `run` field is `run_scenario(ctx, &preset(ctx))`, built
//! by the `entry!` macro in `runner.rs`; a preset always builds.
//!
//! All simulation state is instantiated through the scenario layer
//! (`strat-scenario`); experiment modules never construct `Dynamics` or
//! `SwarmConfig` by hand.

pub mod bt1;
pub mod btchurn;
pub mod btcluster;
pub mod btevent;
pub mod btfault;
pub mod btflash;
pub mod btfree;
pub mod btmulti;
pub mod btoverlay;
pub mod ext1;
pub mod ext2;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig3;
pub mod fig45;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fluid;
pub mod latstrat;
pub mod mmo;
pub mod table1;

pub(crate) mod common {
    use strat_scenario::{Scenario, ScenarioError, TopologyModel};

    pub use strat_scenario::stream_rng as rng;

    /// Runs `run` over independent sweep cells on
    /// `strat_par::default_threads()` workers and returns the results in
    /// cell order, or the first cell's build error in cell order. A cell
    /// must draw randomness only from its own scenario seed and own its
    /// observers, so the results (and the fold the caller runs over them
    /// in cell order) are the same at any thread count.
    pub fn par_cells<C: Sync, R: Send>(
        cells: &[C],
        run: impl Fn(&C) -> Result<R, ScenarioError> + Sync,
    ) -> Result<Vec<R>, ScenarioError> {
        strat_par::par_map(cells, strat_par::default_threads(), |_, cell| run(cell))
            .into_iter()
            .collect()
    }

    /// The scenario's peer count, refused with a typed error when it is
    /// below the `min` that kernel `id`'s sweep needs.
    pub fn min_peers(id: &str, scenario: &Scenario, min: usize) -> Result<usize, ScenarioError> {
        if scenario.peers >= min {
            Ok(scenario.peers)
        } else {
            Err(ScenarioError::InvalidParameter {
                what: "peers",
                reason: format!("{id} needs at least {min} peers, got {}", scenario.peers),
            })
        }
    }

    /// The paper's standard declarative setup: `G(n, d)` acceptance graph,
    /// identity ranking, constant 1-matching, best-mate initiatives.
    /// Experiments attach their own name/seed/churn on top.
    pub fn one_matching_scenario(id: &str, n: usize, d: f64) -> Scenario {
        Scenario::new(id, n).with_topology(TopologyModel::ErdosRenyiMeanDegree { d })
    }
}
