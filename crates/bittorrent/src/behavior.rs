//! Per-peer protocol behaviors (the scenario axis beyond bandwidth).
//!
//! The paper's §6 analysis assumes every leecher runs the reference
//! Tit-for-Tat policy; real swarms mix strategies. This axis models the
//! two classic deviations studied in the clustering/sharing-incentives
//! literature (Legout et al.):
//!
//! * **free riders** — leech but never unchoke anyone (zero upload
//!   contribution); they only receive through other peers' optimistic
//!   slots, which bounds their download at the "generous" bandwidth share;
//! * **altruists** — upload like seeds even while leeching: they rotate
//!   their unchokes uniformly at random over interested neighbours instead
//!   of reciprocating, donating capacity without demanding a TFT signal.

use serde::Serialize;

/// How a peer runs the choking algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
#[non_exhaustive]
pub enum PeerBehavior {
    /// Reference client: Tit-for-Tat reciprocation plus the optimistic
    /// rotation (the paper's §6 setting).
    Compliant,
    /// Never uploads: all unchoke slots stay closed.
    FreeRider,
    /// Uploads without demanding reciprocation: rechokes like a seed
    /// (uniform random rotation over interested neighbours) even while
    /// still leeching.
    Altruistic,
}

impl PeerBehavior {
    /// Whether this behavior uploads at all.
    #[must_use]
    #[inline]
    pub fn uploads(self) -> bool {
        !matches!(self, PeerBehavior::FreeRider)
    }

    /// Whether this behavior ignores the reciprocation signal when
    /// selecting unchoke targets.
    #[must_use]
    #[inline]
    pub fn ignores_reciprocation(self) -> bool {
        matches!(self, PeerBehavior::Altruistic)
    }
}
