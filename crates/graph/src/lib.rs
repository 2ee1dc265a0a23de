//! Graph substrate for the *Stratification in P2P Networks* reproduction.
//!
//! The stratification model (see the `strat-core` crate) is defined over an
//! **acceptance graph**: an undirected, loopless graph whose edges mark pairs
//! of peers willing to collaborate. This crate provides:
//!
//! * [`Graph`] — compact undirected graphs with sorted adjacency,
//! * [`generators`] — the acceptance-graph families used by the paper
//!   (complete graphs for the Section 4 toy model, Erdős–Rényi `G(n, d)` for
//!   the Section 5 random-graph analysis),
//! * [`UnionFind`] and [`components::Components`] — connected-component
//!   analysis for cluster-size statistics,
//! * [`metrics`] — degrees, BFS distances, diameter.
//!
//! # Example
//!
//! Build the paper's `G(n, d)` acceptance graph and check its shape:
//!
//! ```
//! use rand::SeedableRng;
//! use strat_graph::{components::Components, generators, metrics};
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2007);
//! let g = generators::erdos_renyi_mean_degree(1000, 10.0, &mut rng);
//!
//! assert!((metrics::mean_degree(&g) - 10.0).abs() < 1.0);
//! // With d = 10 ≫ 1 the graph a.s. has a giant component.
//! assert!(Components::of(&g).giant_size() > 900);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
// Index-coupled loops are the domain idiom here: adjacency construction couples node indices with membership arrays.
#![allow(clippy::needless_range_loop)]

pub mod components;
mod error;
pub mod generators;
#[allow(clippy::module_inception)]
mod graph;
pub mod metrics;
mod node;
mod union_find;

pub use error::GraphError;
pub use graph::{Graph, GraphBuilder};
pub use node::{node_ids, NodeId};
pub use union_find::UnionFind;
