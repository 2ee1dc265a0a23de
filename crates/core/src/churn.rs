//! Continuous churn (§3, Figure 3).
//!
//! Peers can be removed from or re-introduced into the system at any time,
//! according to a churn-rate parameter. The paper's Figure 3 labels runs
//! "Churn = 30/1000", "10/1000", … with `n = 1000` peers: we read this as
//! *churn events per initiative step*, i.e. rate `ρ = 30/1000` produces on
//! average 30 churn events per base unit (one base unit = `n` initiatives)
//! in a 1000-peer system.
//!
//! A churn event is a **replacement**: a uniformly random present peer
//! departs (dropping its collaborations) and a uniformly random absent peer
//! simultaneously re-joins with no mates. The very first event has no absent
//! peer to re-insert and is a pure departure, after which the population
//! stays pinned at `n − 1` — i.e. effectively stationary, as arrival and
//! departure flows balance in the paper's setting.

use rand::Rng;
use serde::Serialize;
use strat_graph::NodeId;

use crate::{Dynamics, InitiativeOutcome, PreferenceKeys, RankedAcceptance};

/// What a single churn event did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ChurnEvent {
    /// A present peer left and no absent peer was available to replace it
    /// (only possible when everybody is present).
    Departure(NodeId),
    /// A present peer left and an absent peer simultaneously re-joined.
    Replacement {
        /// The departing peer (collaborations dropped).
        departed: NodeId,
        /// The arriving peer (joins with no mates).
        arrived: NodeId,
    },
}

/// Churn-driven simulation: wraps a [`Dynamics`] driver and interleaves
/// random departures/arrivals with initiative steps.
///
/// The process is generic over the driver's key table `K` (the global
/// ranking by default): every preference model churns the same way,
/// consuming identical randomness for identical presence decisions.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use strat_core::{Capacities, ChurnProcess, Dynamics, GlobalRanking, InitiativeStrategy,
///                  RankedAcceptance};
/// use strat_graph::generators;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let graph = generators::erdos_renyi_mean_degree(100, 10.0, &mut rng);
/// let acc = RankedAcceptance::new(graph, GlobalRanking::identity(100))?;
/// let caps = Capacities::constant(100, 1);
/// let dynamics = Dynamics::new(acc, caps, InitiativeStrategy::BestMate)?;
///
/// let mut churn = ChurnProcess::new(dynamics, 0.01); // 1 event / 100 steps
/// for _ in 0..20 {
///     churn.run_base_unit(&mut rng);
/// }
/// // Disorder stays under control (bounded well below 1).
/// assert!(churn.dynamics().disorder() < 0.5);
/// # Ok::<(), strat_core::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ChurnProcess<K: PreferenceKeys = RankedAcceptance> {
    dynamics: Dynamics<K>,
    rate: f64,
    events: u64,
}

impl<K: PreferenceKeys> ChurnProcess<K> {
    /// Wraps a dynamics driver with churn at `rate` events per initiative
    /// step.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a finite value in `[0, 1]`.
    #[must_use]
    pub fn new(dynamics: Dynamics<K>, rate: f64) -> Self {
        assert!(
            rate.is_finite() && (0.0..=1.0).contains(&rate),
            "churn rate must be in [0, 1], got {rate}"
        );
        Self {
            dynamics,
            rate,
            events: 0,
        }
    }

    /// The wrapped dynamics (current configuration, disorder, …).
    #[must_use]
    pub fn dynamics(&self) -> &Dynamics<K> {
        &self.dynamics
    }

    /// Churn events triggered so far.
    #[must_use]
    pub fn event_count(&self) -> u64 {
        self.events
    }

    /// Churn rate (events per initiative step).
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// One simulation step: maybe a churn event, then one initiative.
    ///
    /// Returns the churn event (if any) and the initiative outcome.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> (Option<ChurnEvent>, InitiativeOutcome) {
        let event = if self.rate > 0.0 && rng.gen_bool(self.rate) {
            self.churn_event(rng)
        } else {
            None
        };
        let outcome = self.dynamics.step(rng);
        (event, outcome)
    }

    /// Runs `n` steps (one base unit). Returns the number of churn events.
    pub fn run_base_unit<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        let n = self.dynamics.node_count();
        (0..n).filter(|_| self.step(rng).0.is_some()).count()
    }

    fn churn_event<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<ChurnEvent> {
        let n = self.dynamics.node_count();
        let present = self.dynamics.present_count();
        if n == 0 || present == 0 {
            return None;
        }
        self.events += 1;
        // Uniform present peer via rejection sampling (presence dominates).
        let departed = loop {
            let v = NodeId::new(rng.gen_range(0..n));
            if self.dynamics.is_present(v) {
                break v;
            }
        };
        self.dynamics.remove_peer(departed);
        if present == n {
            // Nobody was absent before this departure: pure departure.
            return Some(ChurnEvent::Departure(departed));
        }
        // Replacement: a uniformly random *previously* absent peer re-joins
        // (never the one that just departed).
        let arrived = loop {
            let v = NodeId::new(rng.gen_range(0..n));
            if v != departed && !self.dynamics.is_present(v) {
                break v;
            }
        };
        self.dynamics.insert_peer(arrived);
        Some(ChurnEvent::Replacement { departed, arrived })
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use strat_graph::generators;

    use crate::{Capacities, GlobalRanking, InitiativeStrategy};

    use super::*;

    fn make(count: usize, rate: f64, seed: u64) -> (ChurnProcess, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::erdos_renyi_mean_degree(count, 10.0, &mut rng);
        let acc = RankedAcceptance::new(graph, GlobalRanking::identity(count)).unwrap();
        let caps = Capacities::constant(count, 1);
        let dynamics = Dynamics::new(acc, caps, InitiativeStrategy::BestMate).unwrap();
        (ChurnProcess::new(dynamics, rate), rng)
    }

    #[test]
    fn zero_rate_never_churns() {
        let (mut churn, mut rng) = make(50, 0.0, 1);
        for _ in 0..10 {
            churn.run_base_unit(&mut rng);
        }
        assert_eq!(churn.event_count(), 0);
        assert_eq!(churn.dynamics().present_count(), 50);
    }

    #[test]
    fn event_rate_is_respected() {
        let (mut churn, mut rng) = make(100, 0.05, 2);
        let steps = 20_000;
        for _ in 0..steps {
            churn.step(&mut rng);
        }
        let expected = 0.05 * steps as f64;
        let got = churn.event_count() as f64;
        assert!(
            (got - expected).abs() < 5.0 * expected.sqrt(),
            "{got} events vs {expected}"
        );
    }

    #[test]
    fn population_stays_stationary() {
        let (mut churn, mut rng) = make(60, 0.2, 3);
        for _ in 0..100 {
            churn.run_base_unit(&mut rng);
            let present = churn.dynamics().present_count();
            // Replacement churn pins the population at n or n - 1.
            assert!((59..=60).contains(&present), "present = {present}");
        }
        assert!(churn.event_count() > 100);
    }

    #[test]
    fn low_churn_keeps_disorder_small() {
        let (mut churn, mut rng) = make(100, 0.002, 5);
        for _ in 0..30 {
            churn.run_base_unit(&mut rng);
        }
        assert!(
            churn.dynamics().disorder() < 0.15,
            "disorder {}",
            churn.dynamics().disorder()
        );
    }

    #[test]
    fn higher_churn_means_more_disorder_on_average() {
        let avg = |rate: f64| {
            let (mut churn, mut rng) = make(120, rate, 11);
            let mut total = 0.0;
            // warm-up
            for _ in 0..10 {
                churn.run_base_unit(&mut rng);
            }
            for _ in 0..20 {
                churn.run_base_unit(&mut rng);
                total += churn.dynamics().disorder();
            }
            total / 20.0
        };
        let low = avg(0.001);
        let high = avg(0.1);
        assert!(
            high > low,
            "high-churn disorder {high} not above low-churn {low}"
        );
    }

    #[test]
    #[should_panic(expected = "churn rate must be in [0, 1]")]
    fn invalid_rate_panics() {
        let (churn, _) = make(10, 0.0, 1);
        let dynamics = churn.dynamics().clone();
        let _ = ChurnProcess::new(dynamics, 1.5);
    }
}
