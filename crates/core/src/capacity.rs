//! Collaboration-slot capacities `b(p)`.
//!
//! Each peer `p` owns a bounded number `b(p)` of collaboration slots (§2).
//! Section 4 contrasts *constant* `b₀`-matching with capacities drawn from a
//! rounded normal distribution `N(b̄, σ²)` — the variance is what triggers the
//! phase transition from disjoint clusters to stratified giant components.

use rand::Rng;
use serde::Serialize;
use strat_graph::NodeId;

use crate::ModelError;

/// Per-peer slot capacities `b(p)`.
///
/// # Examples
///
/// ```
/// use strat_core::Capacities;
///
/// let caps = Capacities::constant(5, 3);
/// assert_eq!(caps.len(), 5);
/// assert_eq!(caps.total(), 15);
/// assert_eq!(caps.of(strat_graph::NodeId::new(2)), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Capacities {
    values: Vec<u32>,
    total: u64,
}

impl Capacities {
    /// Constant `b₀`-matching capacities: every peer gets `b0` slots.
    #[must_use]
    pub fn constant(n: usize, b0: u32) -> Self {
        Self {
            values: vec![b0; n],
            total: n as u64 * u64::from(b0),
        }
    }

    /// Capacities from explicit per-peer values.
    #[must_use]
    pub fn from_values(values: Vec<u32>) -> Self {
        let total = values.iter().map(|&b| u64::from(b)).sum();
        Self { values, total }
    }

    /// Samples capacities from `distribution`.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(
        n: usize,
        distribution: &CapacityDistribution,
        rng: &mut R,
    ) -> Self {
        Self::from_values((0..n).map(|_| distribution.sample_one(rng)).collect())
    }

    /// Number of peers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether there are no peers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Capacity of peer `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn of(&self, v: NodeId) -> u32 {
        self.values[v.index()]
    }

    /// Total number of slots `B = Σ b(p)`.
    ///
    /// Theorem 1 bounds convergence by `B / 2` active initiatives.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean capacity, or 0 for an empty peer set.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.total as f64 / self.values.len() as f64
    }

    /// Grants `extra` additional slots to peer `v` (Figure 5's "one extra
    /// connection" experiment).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn grant_extra(&mut self, v: NodeId, extra: u32) {
        self.values[v.index()] += extra;
        self.total += u64::from(extra);
    }

    /// Checks this capacity vector covers exactly `n` peers.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::SizeMismatch`] on disagreement.
    pub fn check_len(&self, n: usize) -> Result<(), ModelError> {
        if self.values.len() == n {
            Ok(())
        } else {
            Err(ModelError::SizeMismatch {
                expected: n,
                actual: self.values.len(),
            })
        }
    }

    /// Read-only view of the raw values.
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        &self.values
    }
}

/// Distribution from which per-peer capacities are drawn.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[non_exhaustive]
pub enum CapacityDistribution {
    /// Every peer gets exactly `b0` slots (constant `b₀`-matching, §4.1).
    Constant(u32),
    /// Rounded normal `N(mean, sigma²)` (§4.2): samples are rounded to the
    /// nearest *positive* integer, exactly as in the paper.
    RoundedNormal {
        /// Mean `b̄` of the underlying normal.
        mean: f64,
        /// Standard deviation `σ` of the underlying normal.
        sigma: f64,
    },
}

impl CapacityDistribution {
    /// Draws one capacity.
    ///
    /// # Panics
    ///
    /// Panics if a `RoundedNormal` has non-finite parameters or `sigma < 0`.
    #[must_use]
    pub fn sample_one<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match *self {
            CapacityDistribution::Constant(b0) => b0,
            CapacityDistribution::RoundedNormal { mean, sigma } => {
                assert!(
                    mean.is_finite() && sigma.is_finite() && sigma >= 0.0,
                    "invalid normal parameters mean={mean} sigma={sigma}"
                );
                let x = mean + sigma * standard_normal(rng);
                // "all samples are rounded to the nearest positive integer"
                let rounded = x.round();
                if rounded < 1.0 {
                    1
                } else if rounded > f64::from(u32::MAX) {
                    u32::MAX
                } else {
                    rounded as u32
                }
            }
        }
    }
}

/// One standard-normal draw via the Box–Muller transform.
///
/// `rand` does not ship a normal distribution (that lives in `rand_distr`,
/// outside the allowed dependency set), and Box–Muller is exact. Public so
/// other samplers (the scenario layer's bandwidth models) consume the RNG
/// identically to [`CapacityDistribution::RoundedNormal`].
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen_range(0.0..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use super::*;

    #[test]
    fn constant_capacities() {
        let c = Capacities::constant(4, 3);
        assert_eq!(c.total(), 12);
        assert_eq!(c.mean(), 3.0);
        assert_eq!(c.of(NodeId::new(3)), 3);
        assert!(c.check_len(4).is_ok());
        assert!(c.check_len(5).is_err());
    }

    #[test]
    fn from_values_and_extra() {
        let mut c = Capacities::from_values(vec![1, 2, 3]);
        assert_eq!(c.total(), 6);
        c.grant_extra(NodeId::new(0), 2);
        assert_eq!(c.of(NodeId::new(0)), 3);
        assert_eq!(c.total(), 8);
        assert_eq!(c.as_slice(), &[3, 2, 3]);
    }

    #[test]
    fn empty_capacities() {
        let c = Capacities::from_values(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.mean(), 0.0);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn rounded_normal_is_positive_and_centered() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let dist = CapacityDistribution::RoundedNormal {
            mean: 6.0,
            sigma: 0.5,
        };
        let caps = Capacities::sample(20_000, &dist, &mut rng);
        assert!(caps.as_slice().iter().all(|&b| b >= 1));
        let mean = caps.mean();
        assert!((mean - 6.0).abs() < 0.05, "sample mean {mean} far from 6");
    }

    #[test]
    fn rounded_normal_sigma_zero_is_constant() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let dist = CapacityDistribution::RoundedNormal {
            mean: 4.0,
            sigma: 0.0,
        };
        let caps = Capacities::sample(100, &dist, &mut rng);
        assert!(caps.as_slice().iter().all(|&b| b == 4));
    }

    #[test]
    fn rounded_normal_clamps_to_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let dist = CapacityDistribution::RoundedNormal {
            mean: -5.0,
            sigma: 0.1,
        };
        let caps = Capacities::sample(50, &dist, &mut rng);
        assert!(caps.as_slice().iter().all(|&b| b == 1));
    }

    #[test]
    fn box_muller_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    #[should_panic(expected = "invalid normal parameters")]
    fn invalid_normal_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let _ = CapacityDistribution::RoundedNormal {
            mean: 1.0,
            sigma: -1.0,
        }
        .sample_one(&mut rng);
    }
}
