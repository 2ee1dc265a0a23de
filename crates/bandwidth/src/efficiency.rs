//! Expected download/upload efficiency (§6, Figure 11).
//!
//! The paper couples the stable-matching model to a bandwidth distribution:
//!
//! * peers are ranked by **upload bandwidth per slot** — with `b₀` TFT slots
//!   plus one generous (optimistic) slot, peer `i` offers
//!   `slot(i) = U(i) / (b₀ + 1)` per collaboration;
//! * the acceptance graph is `G(n, d)` with `d` expected acceptable peers;
//! * peer `i`'s expected download rate is `Σ_c Σ_j D_c(i,j) · slot(j)`
//!   (Algorithm 3 drives who collaborates with whom).
//!
//! Two efficiency ratios are exposed:
//!
//! * [`EfficiencyPoint::ratio`] — download per unit of *used* upload
//!   (`E[D] / (E[#mates] · slot(i))`), the share-ratio-per-active-slot the
//!   Figure 11 observations are phrased in (ratio ≈ 1 at density peaks,
//!   < 1 for the best peers, > 1 for the lowest peers);
//! * [`EfficiencyPoint::ratio_offered`] — download per unit of *offered*
//!   TFT upload (`E[D] / (b₀ · slot(i))`), which additionally discounts the
//!   unmatched risk of the worst peers (Figure 8c).

use serde::Serialize;
use strat_analytic::b_matching;

use crate::BandwidthCdf;

/// Parameters of the Figure 11 experiment.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EfficiencyModel {
    /// Number of TFT collaboration slots per peer (paper: 3, i.e. 4 minus
    /// the generous slot).
    pub b0: u32,
    /// Expected number of acceptable peers (paper: 20).
    pub d: f64,
    /// Discretization: number of peers drawn from the bandwidth CDF. The
    /// model is n-free (§5), so this only controls resolution.
    pub n: usize,
}

impl Default for EfficiencyModel {
    /// The paper's Figure 11 parameters (`b₀ = 3`, `d = 20`) at a
    /// resolution of 2000 peers.
    fn default() -> Self {
        Self {
            b0: 3,
            d: 20.0,
            n: 2000,
        }
    }
}

/// One peer of the efficiency curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EfficiencyPoint {
    /// Global rank (0 = best).
    pub rank: usize,
    /// Total upload bandwidth `U(i)` in kbps.
    pub upload: f64,
    /// Upload bandwidth per slot `U(i) / (b₀ + 1)` — Figure 11's x-axis.
    pub slot_bandwidth: f64,
    /// Expected download rate `Σ_c Σ_j D_c(i,j)·slot(j)` in kbps.
    pub expected_download: f64,
    /// Expected number of matched TFT slots `Σ_c P(choice c exists)`.
    pub expected_mates: f64,
    /// Download per unit of used upload: `expected_download /
    /// (expected_mates · slot_bandwidth)`; 0 when never matched.
    pub ratio: f64,
    /// Download per unit of offered TFT upload: `expected_download /
    /// (b₀ · slot_bandwidth)`.
    pub ratio_offered: f64,
}

/// The full efficiency curve: one [`EfficiencyPoint`] per discretized peer,
/// best rank first.
///
/// # Examples
///
/// Reproduce Figure 11's qualitative claims:
///
/// ```
/// use strat_bandwidth::{efficiency_curve, BandwidthCdf, EfficiencyModel};
///
/// let cdf = BandwidthCdf::saroiu_gnutella_upstream();
/// let model = EfficiencyModel { b0: 3, d: 20.0, n: 600 };
/// let curve = efficiency_curve(&model, &cdf);
///
/// // Best peers are penalized: they can only collaborate downwards.
/// assert!(curve[0].ratio < 1.0);
/// // The lowest peers enjoy high efficiency when matched.
/// let worst = &curve[curve.len() - 1];
/// assert!(worst.ratio > 1.0);
/// ```
#[must_use]
pub fn efficiency_curve(model: &EfficiencyModel, cdf: &BandwidthCdf) -> Vec<EfficiencyPoint> {
    assert!(model.n >= 2, "need at least two peers");
    assert!(model.b0 >= 1, "b0 must be at least 1");
    assert!(model.d > 0.0 && model.d.is_finite(), "d must be positive");
    let n = model.n;
    let uploads = cdf.assign_by_rank(n);
    let slots: Vec<f64> = uploads
        .iter()
        .map(|u| u / f64::from(model.b0 + 1))
        .collect();
    let p = (model.d / (n as f64 - 1.0)).clamp(0.0, 1.0);
    let exp = b_matching::solve_expectations(n, p, model.b0, &slots);
    (0..n)
        .map(|i| {
            let expected_mates = exp.expected_degree[i];
            let expected_download = exp.weighted[i];
            let used = expected_mates * slots[i];
            let offered = f64::from(model.b0) * slots[i];
            EfficiencyPoint {
                rank: i,
                upload: uploads[i],
                slot_bandwidth: slots[i],
                expected_download,
                expected_mates,
                ratio: if used > 0.0 {
                    expected_download / used
                } else {
                    0.0
                },
                ratio_offered: if offered > 0.0 {
                    expected_download / offered
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// Mean [`EfficiencyPoint::ratio`] over the peers whose slot bandwidth lies
/// within `[lo, hi)` kbps — a shape probe for the Figure 11 criteria.
#[must_use]
pub fn mean_ratio_in_band(curve: &[EfficiencyPoint], lo: f64, hi: f64) -> Option<f64> {
    let band: Vec<f64> = curve
        .iter()
        .filter(|pt| pt.slot_bandwidth >= lo && pt.slot_bandwidth < hi)
        .map(|pt| pt.ratio)
        .collect();
    if band.is_empty() {
        return None;
    }
    Some(band.iter().sum::<f64>() / band.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> Vec<EfficiencyPoint> {
        let cdf = BandwidthCdf::saroiu_gnutella_upstream();
        efficiency_curve(
            &EfficiencyModel {
                b0: 3,
                d: 20.0,
                n: 800,
            },
            &cdf,
        )
    }

    #[test]
    fn best_peers_have_low_ratio() {
        let curve = curve();
        // §6 bullet 1: the best peers can only collaborate with lower peers,
        // so their exchange is suboptimal.
        let top_mean: f64 = curve[..8].iter().map(|p| p.ratio).sum::<f64>() / 8.0;
        assert!(top_mean < 1.0, "top-peer mean ratio {top_mean}");
    }

    #[test]
    fn density_peak_peers_have_ratio_near_one() {
        let curve = curve();
        // §6 bullet 2: the 56k modem class (upload 52-56 kbps, slot
        // 13-14 kbps) mostly collaborates with its own kind, so its ratio
        // sits near 1 — the residual excess comes from the exponential tail
        // of the mate-offset distribution reaching into better classes
        // (exactly the paper's Figure 11, where density-peak dips sit at
        // ~0.9-1.2 between efficiency spikes).
        let peak = mean_ratio_in_band(&curve, 13.0, 14.0).expect("modem band populated");
        assert!((peak - 1.0).abs() < 0.25, "modem-class ratio {peak}");
    }

    #[test]
    fn worst_peers_have_high_ratio() {
        let curve = curve();
        // §6 bullet 4: the lowest peers obtain several times their own slot
        // bandwidth when matched.
        let worst = &curve[curve.len() - 1];
        assert!(worst.ratio > 1.3, "worst-peer ratio {}", worst.ratio);
        // ... at the cost of a real unmatched risk.
        assert!(worst.expected_mates < 3.0);
    }

    #[test]
    fn efficiency_peak_just_above_density_peak() {
        let curve = curve();
        // §6 bullet 3: peers just above the modem peak (slot 14.5-20 kbps,
        // upload 58-80) beat peers inside the peak (12.6-14 kbps): their
        // lower mates offer almost the same bandwidth while their upper
        // mates offer more.
        let above = mean_ratio_in_band(&curve, 14.5, 20.0).expect("band populated");
        let inside = mean_ratio_in_band(&curve, 12.6, 14.0).expect("band populated");
        assert!(above > inside, "above-peak {above} !> in-peak {inside}");
    }

    #[test]
    fn offered_ratio_discounts_unmatched_risk() {
        let curve = curve();
        for pt in &curve {
            // ratio_offered = ratio · expected_mates / b0 <= ratio when the
            // peer is not always fully matched.
            assert!(pt.ratio_offered <= pt.ratio + 1e-9);
        }
        // For a mid-rank (always matched) peer the two coincide.
        let mid = &curve[400];
        assert!(
            (mid.expected_mates - 3.0).abs() < 0.05,
            "{}",
            mid.expected_mates
        );
        assert!((mid.ratio - mid.ratio_offered).abs() < 0.05);
    }

    #[test]
    fn slot_bandwidth_is_quarter_of_upload() {
        let curve = curve();
        for pt in curve.iter().step_by(97) {
            assert!((pt.slot_bandwidth - pt.upload / 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn curve_is_rank_ordered_and_finite() {
        let curve = curve();
        assert_eq!(curve.len(), 800);
        for (i, pt) in curve.iter().enumerate() {
            assert_eq!(pt.rank, i);
            assert!(pt.ratio.is_finite() && pt.ratio >= 0.0);
        }
        for w in curve.windows(2) {
            assert!(w[0].upload >= w[1].upload);
        }
    }

    #[test]
    fn band_probe_handles_empty_band() {
        let curve = curve();
        assert!(mean_ratio_in_band(&curve, 1e9, 2e9).is_none());
    }
}
