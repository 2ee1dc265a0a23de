//! Deterministic fault injection for open-membership swarms.
//!
//! A [`FaultPlan`] describes every adversity a session can suffer:
//!
//! * **crashes** — abrupt departures that sever a peer's overlay row with
//!   no lifecycle cleanup (no completion record, no graceful leave draw);
//! * **transfer loss** — a per-delivery probability that an individual
//!   flow vanishes in transit (the sender still spends the capacity, the
//!   recipient receives nothing);
//! * **tracker outages** — round windows during which announces fail, so
//!   arriving peers queue and retry with exponential backoff;
//! * **partitions** — round windows during which the overlay is cut into
//!   two halves (even/odd arena slots); every cross-half edge is severed
//!   at the window start and the tracker refuses cross-half wiring until
//!   the window closes ("heals").
//!
//! # Determinism contract
//!
//! Every fault decision draws from its own ChaCha8 stream keyed by
//! `(fault_seed, round, fault_event)` in the `streams::FAULTS` family,
//! distinct from the session and parallel-round families. No
//! fault stream is ever touched by the regular session or swarm passes,
//! and a plan for which [`FaultPlan::is_inert`] holds consumes **zero**
//! randomness — sessions carrying an inert plan are bit-identical to
//! sessions built without one, serially and at any thread count.
//!
//! Transfer-loss draws use the same keyed family with the edge's
//! recipient-side arena slot as the event id (tagged with
//! `LOSS_EVENT_BIT` so it can never collide with the session-level
//! fault events), which makes loss schedules independent of worker
//! partitioning in the parallel engine.

use serde::{Deserialize, Serialize};

use crate::streams;

/// Fault event id of the per-round crash pass.
pub(crate) const CRASH_EVENT: u64 = 0;
/// Fault event id of the per-round overlay-repair pass.
pub(crate) const REPAIR_EVENT: u64 = 1;
/// Tag bit of transfer-loss events: the event id is
/// `LOSS_EVENT_BIT | recipient_edge_slot`, disjoint from the small
/// session-level event ids by construction.
pub(crate) const LOSS_EVENT_BIT: u64 = 1 << 31;

/// One deterministic loss draw for the delivery arriving at recipient-side
/// edge slot `edge` in `round`. Used by both the serial and the parallel
/// delivery paths, so loss schedules are thread-count independent.
#[must_use]
pub(crate) fn loss_drawn(fault_seed: u64, round: u64, edge: usize, prob: f64) -> bool {
    use rand::Rng;
    let event = LOSS_EVENT_BIT | edge as u64;
    streams::keyed(
        fault_seed,
        streams::FAULTS,
        streams::round_stream(round, event),
    )
    .gen_bool(prob)
}

/// A half-open round window `[start, start + rounds)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// First round the window covers.
    pub start: u64,
    /// Window length in rounds (validation requires ≥ 1).
    pub rounds: u64,
}

impl FaultWindow {
    /// Whether `round` falls inside the window.
    #[must_use]
    pub fn contains(&self, round: u64) -> bool {
        round >= self.start && round < self.end()
    }

    /// One past the last covered round.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.start.saturating_add(self.rounds)
    }
}

/// A deterministic fault schedule for one session (see the module docs
/// for the semantics of each axis and the determinism contract).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Per-round crash probability of every present non-publisher peer.
    pub crash_prob: f64,
    /// Per-delivery transfer-loss probability.
    pub loss_prob: f64,
    /// Tracker outage windows (announces fail while one is active).
    pub outages: Vec<FaultWindow>,
    /// Overlay partition windows (even/odd halves, healed at window end).
    pub partitions: Vec<FaultWindow>,
    /// Seed of the fault stream family, independent of the session seed.
    pub fault_seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The zero-fault plan: no crashes, no loss, no outages, no
    /// partitions. Sessions carrying it behave bit-identically to
    /// sessions built without a plan.
    #[must_use]
    pub fn none() -> Self {
        Self {
            crash_prob: 0.0,
            loss_prob: 0.0,
            outages: Vec::new(),
            partitions: Vec::new(),
            fault_seed: 0,
        }
    }

    /// Whether the plan injects nothing (every axis disabled). Inert
    /// plans consume no randomness and leave session output untouched.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.crash_prob == 0.0
            && self.loss_prob == 0.0
            && self.outages.is_empty()
            && self.partitions.is_empty()
    }

    /// Validates the plan: probabilities must be finite and in `[0, 1]`,
    /// every window must cover at least one round.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("crash_prob", self.crash_prob),
            ("loss_prob", self.loss_prob),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability in [0, 1], got {p}"));
            }
        }
        for (name, windows) in [("outages", &self.outages), ("partitions", &self.partitions)] {
            if let Some(w) = windows.iter().find(|w| w.rounds == 0) {
                return Err(format!(
                    "{name} window starting at round {} covers zero rounds",
                    w.start
                ));
            }
        }
        Ok(())
    }

    /// Whether the tracker is down in `round`.
    #[must_use]
    pub fn outage_active(&self, round: u64) -> bool {
        self.outages.iter().any(|w| w.contains(round))
    }

    /// Whether a partition is active in `round` (cross-half wiring is
    /// refused and cross-half edges stay severed).
    #[must_use]
    pub fn partition_active(&self, round: u64) -> bool {
        self.partitions.iter().any(|w| w.contains(round))
    }

    /// Whether a partition window begins exactly at `round` (the moment
    /// its cross-half edges are severed).
    #[must_use]
    pub fn partition_starts_at(&self, round: u64) -> bool {
        self.partitions
            .iter()
            .any(|w| w.start == round && w.rounds > 0)
    }

    /// Whether the session should run its reconnect-to-target-degree
    /// repair pass: only plans that damage the overlay (crashes or
    /// partitions) enable it, so loss/outage-only plans keep the wiring
    /// history of the fault-free session.
    #[must_use]
    pub fn repair_enabled(&self) -> bool {
        self.crash_prob > 0.0 || !self.partitions.is_empty()
    }

    /// Whether arena slots `p` and `q` fall on opposite partition halves
    /// (even vs odd slot index).
    #[must_use]
    pub fn cross_partition(p: usize, q: usize) -> bool {
        (p ^ q) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert_and_valid() {
        let plan = FaultPlan::none();
        assert!(plan.is_inert());
        assert!(plan.validate().is_ok());
        assert!(!plan.repair_enabled());
        assert!(!plan.outage_active(0) && !plan.partition_active(0));
    }

    #[test]
    fn validation_rejects_bad_probabilities_and_empty_windows() {
        let mut plan = FaultPlan::none();
        plan.crash_prob = 1.5;
        assert!(plan.validate().unwrap_err().contains("crash_prob"));
        plan.crash_prob = f64::NAN;
        assert!(plan.validate().is_err());
        plan.crash_prob = 0.0;
        plan.loss_prob = -0.1;
        assert!(plan.validate().unwrap_err().contains("loss_prob"));
        plan.loss_prob = 0.0;
        plan.outages.push(FaultWindow {
            start: 5,
            rounds: 0,
        });
        assert!(plan.validate().unwrap_err().contains("outages"));
        plan.outages.clear();
        plan.partitions.push(FaultWindow {
            start: 0,
            rounds: 0,
        });
        assert!(plan.validate().unwrap_err().contains("partitions"));
    }

    #[test]
    fn windows_are_half_open() {
        let w = FaultWindow {
            start: 10,
            rounds: 3,
        };
        assert!(!w.contains(9));
        assert!(w.contains(10) && w.contains(12));
        assert!(!w.contains(13));
        assert_eq!(w.end(), 13);
        let plan = FaultPlan {
            outages: vec![w],
            partitions: vec![FaultWindow {
                start: 20,
                rounds: 1,
            }],
            ..FaultPlan::none()
        };
        assert!(plan.outage_active(12) && !plan.outage_active(13));
        assert!(plan.partition_starts_at(20) && !plan.partition_starts_at(21));
        assert!(plan.partition_active(20) && !plan.partition_active(21));
    }

    #[test]
    fn loss_draws_are_deterministic_and_edge_keyed() {
        let hits_a: Vec<bool> = (0..64).map(|e| loss_drawn(9, 5, e, 0.5)).collect();
        let hits_b: Vec<bool> = (0..64).map(|e| loss_drawn(9, 5, e, 0.5)).collect();
        assert_eq!(hits_a, hits_b);
        assert!(hits_a.iter().any(|&h| h) && hits_a.iter().any(|&h| !h));
        assert!((0..64).all(|e| !loss_drawn(9, 5, e, 0.0)));
        assert!((0..64).all(|e| loss_drawn(9, 5, e, 1.0)));
    }

    #[test]
    fn cross_partition_is_slot_parity() {
        assert!(FaultPlan::cross_partition(0, 1));
        assert!(!FaultPlan::cross_partition(0, 2));
        assert!(!FaultPlan::cross_partition(3, 7));
        assert!(FaultPlan::cross_partition(4, 9));
    }
}
