//! Upstream-bandwidth distributions (§6, Figure 10).
//!
//! The paper instantiates its efficiency model on the upstream-bandwidth
//! distribution measured by Saroiu, Gummadi & Gribble on Gnutella (MMCN
//! 2002). That raw dataset is not redistributable, so this module ships a
//! **synthetic piecewise log-linear CDF** whose control points are read off
//! the paper's Figure 10, with the density concentrations ("peaks") at the
//! access technologies of the era — 56 k modem, 128 k ISDN/DSL upstream,
//! 256 k / 512 k DSL, ~1 M cable, 10 M LAN. Everything downstream of this
//! module (Figure 11's efficiency curve) depends only on these shape
//! features, which is why the substitution preserves the paper's findings
//! (see DESIGN.md).

use rand::Rng;
use serde::Serialize;

/// Error raised when constructing a [`BandwidthCdf`] from invalid points.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BandwidthError {
    /// Fewer than two control points.
    TooFewPoints,
    /// Bandwidths must be positive and strictly increasing; fractions must
    /// be strictly increasing within `[0, 1]` ending at 1.
    InvalidPoints {
        /// Index of the offending control point.
        index: usize,
    },
}

impl core::fmt::Display for BandwidthError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            BandwidthError::TooFewPoints => write!(f, "need at least two control points"),
            BandwidthError::InvalidPoints { index } => {
                write!(f, "invalid control point at index {index}")
            }
        }
    }
}

impl std::error::Error for BandwidthError {}

/// A cumulative distribution of upstream bandwidth (kbps), piecewise linear
/// in `log₁₀(bandwidth)`.
///
/// # Examples
///
/// ```
/// use strat_bandwidth::BandwidthCdf;
///
/// let cdf = BandwidthCdf::saroiu_gnutella_upstream();
/// // Roughly a fifth of hosts sit at or below the 56k modem class.
/// let f = cdf.cdf(64.0);
/// assert!(f > 0.15 && f < 0.3, "{f}");
/// // Quantiles invert the CDF.
/// let q = cdf.quantile(f);
/// assert!((q - 64.0).abs() / 64.0 < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BandwidthCdf {
    /// `(log10(kbps), cumulative fraction)`, strictly increasing in both.
    points: Vec<(f64, f64)>,
}

impl BandwidthCdf {
    /// Builds a CDF from `(bandwidth kbps, cumulative fraction)` control
    /// points.
    ///
    /// The first fraction may be any value in `[0, 1)` (mass below the first
    /// point is collapsed onto it); the last must be exactly 1.
    ///
    /// # Errors
    ///
    /// Returns [`BandwidthError`] if fewer than two points are given, or if
    /// bandwidths/fractions are not strictly increasing, or bandwidths are
    /// not positive, or the last fraction is not 1.
    pub fn from_points(points: &[(f64, f64)]) -> Result<Self, BandwidthError> {
        if points.len() < 2 {
            return Err(BandwidthError::TooFewPoints);
        }
        let mut log_points = Vec::with_capacity(points.len());
        for (idx, &(bw, frac)) in points.iter().enumerate() {
            if !(bw.is_finite() && bw > 0.0 && (0.0..=1.0).contains(&frac)) {
                return Err(BandwidthError::InvalidPoints { index: idx });
            }
            if let Some(&(prev_log, prev_frac)) = log_points.last() {
                if bw.log10() <= prev_log || frac <= prev_frac {
                    return Err(BandwidthError::InvalidPoints { index: idx });
                }
            }
            log_points.push((bw.log10(), frac));
        }
        if (log_points.last().expect("nonempty").1 - 1.0).abs() > 1e-12 {
            return Err(BandwidthError::InvalidPoints {
                index: points.len() - 1,
            });
        }
        Ok(Self { points: log_points })
    }

    /// The synthetic stand-in for the Saroiu et al. Gnutella *upstream*
    /// measurement used by the paper's Figure 10.
    ///
    /// Control points (kbps → cumulative %): steep risers encode the density
    /// peaks at 56 k modems, 128 k ISDN/DSL, 256 k & 512 k DSL upstreams,
    /// ~1 M cable, and 10 M LAN.
    #[must_use]
    pub fn saroiu_gnutella_upstream() -> Self {
        Self::from_points(&[
            (16.0, 0.0),  // slowest measured hosts
            (40.0, 0.04), // slow tail
            (48.0, 0.06),
            (64.0, 0.25), // 56k modem class: ~19% of hosts at 48-64 kbps
            (96.0, 0.32),
            (128.0, 0.41), // ISDN / low-DSL upstream class
            (192.0, 0.48),
            (256.0, 0.56), // DSL 256k upstream class
            (384.0, 0.63),
            (512.0, 0.71), // DSL 512k upstream class
            (800.0, 0.78),
            (1_200.0, 0.84), // cable ~1M class
            (2_500.0, 0.89),
            (5_000.0, 0.93),
            (12_000.0, 0.97), // 10M LAN class
            (40_000.0, 1.0),  // campus links
        ])
        .expect("preset control points are valid")
    }

    /// Cumulative fraction of hosts with bandwidth `<= bw` kbps.
    ///
    /// Clamps outside the supported range.
    #[must_use]
    pub fn cdf(&self, bw: f64) -> f64 {
        assert!(
            bw > 0.0 && bw.is_finite(),
            "bandwidth must be positive, got {bw}"
        );
        let x = bw.log10();
        let pts = &self.points;
        if x <= pts[0].0 {
            return pts[0].1;
        }
        if x >= pts[pts.len() - 1].0 {
            return 1.0;
        }
        let hi = pts.partition_point(|&(px, _)| px < x);
        let (x0, f0) = pts[hi - 1];
        let (x1, f1) = pts[hi];
        f0 + (f1 - f0) * (x - x0) / (x1 - x0)
    }

    /// Bandwidth (kbps) at cumulative fraction `u ∈ [0, 1]` (inverse CDF).
    ///
    /// Fractions at or below the first control point's mass map to the
    /// lowest bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `u ∉ [0, 1]` or `u` is NaN.
    #[must_use]
    pub fn quantile(&self, u: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&u),
            "fraction must be in [0, 1], got {u}"
        );
        let pts = &self.points;
        if u <= pts[0].1 {
            return 10f64.powf(pts[0].0);
        }
        let hi = pts.partition_point(|&(_, pf)| pf < u).min(pts.len() - 1);
        let (x0, f0) = pts[hi - 1];
        let (x1, f1) = pts[hi];
        let x = x0 + (x1 - x0) * (u - f0) / (f1 - f0);
        10f64.powf(x)
    }

    /// Draws one host bandwidth.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile(rng.gen_range(0.0..1.0))
    }

    /// Bandwidths for `n` peers **indexed by global rank** (rank 0 = best):
    /// `bw[r] = quantile(1 − (r + ½)/n)`, the mid-quantile discretization of
    /// the distribution.
    ///
    /// This is how the efficiency model (§6 / Figure 11) couples the global
    /// ranking to the bandwidth distribution: upload capacity *is* the mark
    /// `S(p)`.
    #[must_use]
    pub fn assign_by_rank(&self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|r| self.quantile(1.0 - (r as f64 + 0.5) / n as f64))
            .collect()
    }

    /// Bandwidths for `n` peers in **shuffled order**: the mid-quantile
    /// rank assignment of [`assign_by_rank`](Self::assign_by_rank),
    /// permuted by a ChaCha8 stream seeded with `seed` so the peer index
    /// carries no rank information.
    ///
    /// This is the standard way experiments hand upload capacities to the
    /// swarm simulator (peer ids are protocol-level, not rank-level); the
    /// seed makes the permutation part of the declarative scenario rather
    /// than ambient RNG state.
    #[must_use]
    pub fn assign_shuffled(&self, n: usize, seed: u64) -> Vec<f64> {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut values = self.assign_by_rank(n);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        values.shuffle(&mut rng);
        values
    }

    /// Supported bandwidth range `(min, max)` in kbps.
    #[must_use]
    pub fn support(&self) -> (f64, f64) {
        (
            10f64.powf(self.points[0].0),
            10f64.powf(self.points[self.points.len() - 1].0),
        )
    }

    /// The control points as `(kbps, fraction)` pairs (for plotting
    /// Figure 10).
    #[must_use]
    pub fn control_points(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|&(x, f)| (10f64.powf(x), f))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use super::*;

    #[test]
    fn preset_is_monotone_and_normalized() {
        let cdf = BandwidthCdf::saroiu_gnutella_upstream();
        let (lo, hi) = cdf.support();
        assert!((lo - 16.0).abs() < 1e-9);
        assert!((hi - 40_000.0).abs() < 1e-6);
        let mut prev = -1.0;
        let mut bw = lo;
        while bw <= hi {
            let f = cdf.cdf(bw);
            assert!(f >= prev, "CDF not monotone at {bw}");
            prev = f;
            bw *= 1.07;
        }
        assert_eq!(cdf.cdf(hi), 1.0);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let cdf = BandwidthCdf::saroiu_gnutella_upstream();
        for u in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let bw = cdf.quantile(u);
            let back = cdf.cdf(bw);
            assert!((back - u).abs() < 1e-9, "u={u}: bw={bw}, back={back}");
        }
    }

    #[test]
    fn density_peak_at_modem_class() {
        // The CDF must rise much faster across the 56k riser than just
        // before it: that is the density peak Figure 11 keys on.
        let cdf = BandwidthCdf::saroiu_gnutella_upstream();
        let peak_slope = (cdf.cdf(64.0) - cdf.cdf(48.0)) / (64f64.log10() - 48f64.log10());
        let before_slope = (cdf.cdf(48.0) - cdf.cdf(40.0)) / (48f64.log10() - 40f64.log10());
        assert!(
            peak_slope > 3.0 * before_slope,
            "{peak_slope} vs {before_slope}"
        );
    }

    #[test]
    fn assign_by_rank_is_decreasing() {
        let cdf = BandwidthCdf::saroiu_gnutella_upstream();
        let bw = cdf.assign_by_rank(500);
        assert_eq!(bw.len(), 500);
        for w in bw.windows(2) {
            assert!(w[0] >= w[1], "rank assignment must be non-increasing");
        }
        // Best peer near the top of the support, worst near the bottom.
        assert!(bw[0] > 30_000.0);
        assert!(bw[499] < 20.0);
    }

    #[test]
    fn assign_shuffled_is_a_seeded_permutation_of_by_rank() {
        let cdf = BandwidthCdf::saroiu_gnutella_upstream();
        let by_rank = cdf.assign_by_rank(200);
        let shuffled = cdf.assign_shuffled(200, 9);
        // Same multiset, different order, deterministic per seed.
        let mut a = by_rank.clone();
        let mut b = shuffled.clone();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        assert_eq!(a, b);
        assert_ne!(by_rank, shuffled);
        assert_eq!(shuffled, cdf.assign_shuffled(200, 9));
        assert_ne!(shuffled, cdf.assign_shuffled(200, 10));
    }

    #[test]
    fn sampling_matches_cdf() {
        let cdf = BandwidthCdf::saroiu_gnutella_upstream();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let n = 50_000;
        let below_64k = (0..n).filter(|_| cdf.sample(&mut rng) <= 64.0).count() as f64 / n as f64;
        let expected = cdf.cdf(64.0);
        assert!(
            (below_64k - expected).abs() < 0.01,
            "{below_64k} vs {expected}"
        );
    }

    #[test]
    fn from_points_validation() {
        assert_eq!(
            BandwidthCdf::from_points(&[(10.0, 0.5)]).unwrap_err(),
            BandwidthError::TooFewPoints
        );
        // Non-increasing fraction.
        assert!(matches!(
            BandwidthCdf::from_points(&[(10.0, 0.5), (20.0, 0.4), (30.0, 1.0)]).unwrap_err(),
            BandwidthError::InvalidPoints { index: 1 }
        ));
        // Non-increasing bandwidth.
        assert!(matches!(
            BandwidthCdf::from_points(&[(10.0, 0.1), (10.0, 0.5), (30.0, 1.0)]).unwrap_err(),
            BandwidthError::InvalidPoints { index: 1 }
        ));
        // Last fraction must be 1.
        assert!(matches!(
            BandwidthCdf::from_points(&[(10.0, 0.1), (20.0, 0.9)]).unwrap_err(),
            BandwidthError::InvalidPoints { index: 1 }
        ));
        // Valid two-point CDF.
        let cdf = BandwidthCdf::from_points(&[(10.0, 0.0), (1000.0, 1.0)]).unwrap();
        assert!((cdf.quantile(0.5) - 100.0).abs() < 1e-9); // log-uniform midpoint
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0, 1]")]
    fn bad_quantile_panics() {
        let _ = BandwidthCdf::saroiu_gnutella_upstream().quantile(1.5);
    }

    #[test]
    fn control_points_round_trip() {
        let pts = vec![(10.0, 0.0), (100.0, 0.5), (1000.0, 1.0)];
        let cdf = BandwidthCdf::from_points(&pts).unwrap();
        let back = cdf.control_points();
        for (a, b) in pts.iter().zip(&back) {
            assert!((a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-12);
        }
    }
}
