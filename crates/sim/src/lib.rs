//! Experiment harness regenerating **every table and figure** of
//! *Stratification in P2P Networks — Application to BitTorrent*.
//!
//! Each paper artifact has a module under [`experiments`] producing an
//! [`runner::ExperimentResult`]: a labeled numeric table (the figure's
//! series / the table's rows) plus machine-checked **shape criteria** — the
//! qualitative claims the paper makes about that artifact. The
//! `experiments` binary runs them all, writes CSVs, renders ASCII plots and
//! reports a PASS/FAIL summary; EXPERIMENTS.md records paper-vs-measured.
//!
//! Every experiment is **scenario-driven**: its setting is a declarative
//! `strat_scenario::Scenario` preset ([`runner::ExperimentEntry::preset`])
//! and its kernel ([`runner::ExperimentEntry::try_run_scenario`]) measures
//! an arbitrary scenario — `experiments --scenario file.json` reruns a figure
//! from JSON bit-identically, and `experiments scenarios --dump` writes
//! the named presets (canonical copies in `results/scenarios/`).
//!
//! Independent experiments fan out across worker threads
//! ([`runner::run_parallel`], CLI flag `--jobs`, default `STRAT_THREADS`
//! or all cores), and so do the independent sweep cells inside the
//! session-based experiments (`btchurn`, `btfault`, `btoverlay`,
//! `btevent`, `btmulti`, at `STRAT_THREADS` or all cores). Every
//! experiment and every cell derives its RNG streams from its scenario
//! seed alone, and cell results are folded in cell order, so results are
//! identical for any job or thread count — the workspace-wide `strat_par`
//! determinism contract.
//!
//! | id | artifact |
//! |----|----------|
//! | `fig1` | convergence from `C∅` |
//! | `fig2` | single-peer removal |
//! | `fig3` | continuous churn |
//! | `fig45` | constant-b clusters + extra connection |
//! | `table1` | cluster size & MMO, constant vs `N(b̄, 0.2²)` |
//! | `fig6` | σ phase transition |
//! | `fig7` | exact vs independence error (n = 3) |
//! | `fig8` | mate-distribution regimes (n = 5000) |
//! | `fig9` | Algorithm 3 vs Monte Carlo |
//! | `fig10` | bandwidth CDF |
//! | `fig11` | D/U efficiency curve |
//! | `bt1` | protocol-level swarm validation |
//! | `fluid` | Conjecture 1 fluid limit |
//! | `mmo` | MMO closed form |
//!
//! # Example
//!
//! ```
//! use strat_sim::runner::{self, ExperimentContext};
//!
//! let entry = runner::find("fig7").expect("registered");
//! let result = (entry.run)(&ExperimentContext { quick: true, seed: 1 });
//! assert!(result.all_passed());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
// Index-coupled loops are the domain idiom here: experiment kernels mirror the paper's loop structure over (config, time) grids.
#![allow(clippy::needless_range_loop)]

pub mod experiments;
pub mod output;
pub mod runner;
