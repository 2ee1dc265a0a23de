//! Round-based BitTorrent swarm simulator with Tit-for-Tat choking,
//! optimistic unchoke, and rarest-first piece selection — the application
//! substrate of *Stratification in P2P Networks* (§6).
//!
//! The paper argues that BitTorrent's TFT policy *is* a global-ranking
//! b-matching run under random initiatives: each peer uploads to the
//! `b₀ = 3` contacts it downloaded the most from in the last rechoke
//! period, while one *generous* (optimistic) slot probes random partners.
//! This crate implements that protocol faithfully enough to observe the
//! predicted phenomena in vivo:
//!
//! * **stratification** — reciprocated TFT partners converge to nearby
//!   upload-bandwidth ranks ([`metrics::stratification_snapshot`]);
//! * **share-ratio structure** — fast peers subsidize the swarm, peers at
//!   bandwidth density peaks trade at ratio ≈ 1
//!   ([`metrics::leecher_performance`]).
//!
//! The simulation is **post-flash-crowd** by default: leechers start with a
//! random fraction of pieces so content availability is not the bottleneck,
//! matching the paper's §6 assumption.
//!
//! # Example
//!
//! ```
//! use strat_bittorrent::{metrics, Swarm, SwarmConfig};
//!
//! let config = SwarmConfig::builder()
//!     .leechers(40)
//!     .seeds(1)
//!     .fluid_content(true) // steady-state §6 setting
//!     .seed(1)
//!     .build();
//! // Two bandwidth classes.
//! let mut uploads = vec![100.0; 20];
//! uploads.extend(vec![1000.0; 21]);
//! let mut swarm = Swarm::new(config, &uploads);
//! swarm.run_rounds(50);
//!
//! let snap = metrics::stratification_snapshot(&swarm);
//! assert!(snap.reciprocal_pairs > 0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]
// Index-coupled loops are the domain idiom here: round loops couple peer indices across multiple state arrays.
#![allow(clippy::needless_range_loop)]

mod avail;
mod behavior;
mod config;
pub mod events;
pub mod faults;
pub mod metrics;
pub mod observer;
pub mod overlay;
mod piece;
pub mod reference;
pub mod session;
mod streams;
mod swarm;
mod tracker;
pub mod universe;

pub use behavior::PeerBehavior;
pub use config::{SwarmConfig, SwarmConfigBuilder};
pub use events::{CompletionRecord, EventEngine, EventStats, EventTiming};
pub use faults::{FaultPlan, FaultWindow};
pub use observer::{
    ClusterAffinity, ClusterObserver, NullObserver, RunObserver, TraceLog, TraceObserver,
};
pub use piece::{PieceSet, PieceView};
pub use swarm::{Peer, PeerId, Population, Swarm};
pub use universe::{
    derive_seed, CapacitySplit, MembershipModel, Universe, UniverseCompletion, UniverseConfig,
    UniverseStats,
};
