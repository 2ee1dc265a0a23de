//! Stratification and performance metrics over a running swarm (§6).
//!
//! The paper's claim is that BitTorrent's Tit-for-Tat exchanges behave like
//! random-initiative global-ranking b-matching on upload bandwidth, hence
//! **stratify**: reciprocated TFT partners end up close in upload-bandwidth
//! rank. These metrics observe exactly that, plus the share-ratio /
//! efficiency quantities of Figure 11.

use serde::Serialize;

use crate::{PeerId, Swarm};

/// A reciprocated TFT pair: both endpoints TFT-unchoke each other. These
/// are the model's *collaborations* — the matching the theory reasons
/// about.
#[must_use]
pub fn reciprocal_tft_pairs(swarm: &Swarm) -> Vec<(PeerId, PeerId)> {
    let n = swarm.peer_count();
    let unchoked: Vec<Vec<PeerId>> = (0..n).map(|p| swarm.tft_unchoked(p)).collect();
    let mut pairs = Vec::new();
    for (p, targets) in unchoked.iter().enumerate() {
        for &q in targets {
            if p < q && unchoked[q].contains(&p) {
                pairs.push((p, q));
            }
        }
    }
    pairs
}

/// Ranks peers by upload capacity, best (fastest) first; `rank[p]` is the
/// dense rank of peer `p`. Ties keep index order (stable).
#[must_use]
pub fn upload_ranks(swarm: &Swarm) -> Vec<usize> {
    let n = swarm.peer_count();
    let mut order: Vec<PeerId> = (0..n).collect();
    order.sort_by(|&a, &b| {
        swarm
            .peer(b)
            .upload_kbps()
            .total_cmp(&swarm.peer(a).upload_kbps())
            .then(a.cmp(&b))
    });
    let mut rank = vec![0usize; n];
    for (r, &p) in order.iter().enumerate() {
        rank[p] = r;
    }
    rank
}

/// Snapshot of the stratification state of a swarm.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StratificationSnapshot {
    /// Simulation round at which the snapshot was taken.
    pub round: u64,
    /// Number of reciprocated TFT pairs.
    pub reciprocal_pairs: usize,
    /// Mean upload-rank offset `|rank(p) − rank(q)|` over reciprocated
    /// pairs (the swarm analogue of the paper's MMO); `None` without pairs.
    pub mean_rank_offset: Option<f64>,
    /// Mean rank offset normalized by the peer count (scale-free).
    pub normalized_offset: Option<f64>,
}

/// Takes a [`StratificationSnapshot`] of the current rechoke state.
#[must_use]
pub fn stratification_snapshot(swarm: &Swarm) -> StratificationSnapshot {
    let pairs = reciprocal_tft_pairs(swarm);
    let ranks = upload_ranks(swarm);
    let mean = if pairs.is_empty() {
        None
    } else {
        Some(
            pairs
                .iter()
                .map(|&(p, q)| ranks[p].abs_diff(ranks[q]) as f64)
                .sum::<f64>()
                / pairs.len() as f64,
        )
    };
    StratificationSnapshot {
        round: swarm.round_count(),
        reciprocal_pairs: pairs.len(),
        mean_rank_offset: mean,
        normalized_offset: mean.map(|m| m / swarm.peer_count() as f64),
    }
}

/// Per-peer performance summary for the leecher population.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PeerPerformance {
    /// Peer index.
    pub peer: PeerId,
    /// Upload capacity (kbps).
    pub upload_kbps: f64,
    /// Cumulative download (kbit).
    pub downloaded_kbit: f64,
    /// Cumulative upload (kbit).
    pub uploaded_kbit: f64,
    /// Share ratio `downloaded / uploaded`, the paper's D/U (Figure 11);
    /// `None` if nothing was uploaded.
    pub share_ratio: Option<f64>,
    /// Share ratio restricted to the TFT economy (optimistic windfalls
    /// excluded) — the quantity the paper's matching model describes.
    pub tft_share_ratio: Option<f64>,
    /// Round at which the peer completed the file, if it did.
    pub completed_round: Option<u64>,
}

/// Collects [`PeerPerformance`] for every original leecher.
#[must_use]
pub fn leecher_performance(swarm: &Swarm) -> Vec<PeerPerformance> {
    (0..swarm.peer_count())
        .filter(|&p| !swarm.peer(p).is_original_seed())
        .map(|p| {
            let peer = swarm.peer(p);
            PeerPerformance {
                peer: p,
                upload_kbps: peer.upload_kbps(),
                downloaded_kbit: peer.total_downloaded(),
                uploaded_kbit: peer.total_uploaded(),
                share_ratio: peer.share_ratio(),
                tft_share_ratio: peer.tft_share_ratio(),
                completed_round: peer.completed_round(),
            }
        })
        .collect()
}

/// Mean share ratio of the leechers whose upload capacity falls within
/// `[lo, hi)` kbps; `None` if the band is empty or nobody uploaded.
#[must_use]
pub fn mean_share_ratio_in_band(swarm: &Swarm, lo: f64, hi: f64) -> Option<f64> {
    let ratios: Vec<f64> = leecher_performance(swarm)
        .into_iter()
        .filter(|perf| perf.upload_kbps >= lo && perf.upload_kbps < hi)
        .filter_map(|perf| perf.share_ratio)
        .collect();
    if ratios.is_empty() {
        return None;
    }
    Some(ratios.iter().sum::<f64>() / ratios.len() as f64)
}

/// **Aggregate** TFT share ratio of a bandwidth class: total TFT download
/// over total TFT upload of the leechers in `[lo, hi)` kbps. Traffic
/// weighting makes this the class-level subsidy measure (who pays, who
/// rides) the paper's Figure 11 reasons about; `None` if the band is empty
/// or carried no TFT upload.
#[must_use]
pub fn aggregate_tft_ratio_in_band(swarm: &Swarm, lo: f64, hi: f64) -> Option<f64> {
    let mut down = 0.0;
    let mut up = 0.0;
    for p in 0..swarm.peer_count() {
        let peer = swarm.peer(p);
        if peer.is_original_seed() {
            continue;
        }
        if peer.upload_kbps() >= lo && peer.upload_kbps() < hi {
            down += peer.tft_downloaded();
            up += peer.tft_uploaded();
        }
    }
    (up > 0.0).then(|| down / up)
}

#[cfg(test)]
mod tests {
    use crate::SwarmConfig;

    use super::*;

    fn two_class_swarm(seed: u64) -> Swarm {
        // 30 slow (100 kbps) + 30 fast (2000 kbps) leechers + 2 seeds, in
        // the paper's steady-state (fluid-content) setting.
        let cfg = SwarmConfig::builder()
            .leechers(60)
            .seeds(2)
            .piece_count(128)
            .piece_size_kbit(500.0)
            .initial_completion(0.3)
            .mean_neighbors(20.0)
            .fluid_content(true)
            .seed(seed)
            .build();
        let mut uploads = vec![100.0; 30];
        uploads.extend(vec![2000.0; 30]);
        uploads.extend(vec![1000.0; 2]);
        Swarm::new(cfg, &uploads)
    }

    #[test]
    fn ranks_follow_upload_capacity() {
        let swarm = two_class_swarm(1);
        let ranks = upload_ranks(&swarm);
        // Fast leechers (30..60) outrank slow ones (0..30).
        for fast in 30..60 {
            for slow in 0..30 {
                assert!(ranks[fast] < ranks[slow]);
            }
        }
    }

    #[test]
    fn reciprocal_pairs_are_symmetric_and_canonical() {
        let mut swarm = two_class_swarm(2);
        swarm.run_rounds(10);
        for (p, q) in reciprocal_tft_pairs(&swarm) {
            assert!(p < q);
            assert!(swarm.tft_unchoked(p).contains(&q));
            assert!(swarm.tft_unchoked(q).contains(&p));
        }
    }

    #[test]
    fn tft_clusters_by_bandwidth_class() {
        // The paper's §6 claim in miniature: after TFT settles, fast peers
        // reciprocate mostly with fast peers.
        let mut swarm = two_class_swarm(3);
        swarm.run_rounds(60);
        let pairs = reciprocal_tft_pairs(&swarm);
        assert!(!pairs.is_empty(), "no reciprocated pairs formed");
        let same_class = pairs.iter().filter(|&&(p, q)| (p < 30) == (q < 30)).count() as f64;
        let frac = same_class / pairs.len() as f64;
        assert!(frac > 0.7, "only {frac:.2} of pairs are same-class");
    }

    #[test]
    fn stratification_tightens_over_time() {
        // A continuum of distinct bandwidths, assigned in shuffled order so
        // peer index carries no rank information. Early TFT pairs are
        // arbitrary (rate-blind); after convergence, reciprocated partners
        // sit close in bandwidth rank — the §6 stratification claim.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let n = 80usize;
        let cfg = SwarmConfig::builder()
            .leechers(n)
            .seeds(1)
            .mean_neighbors(24.0)
            .fluid_content(true)
            .seed(11)
            .build();
        let mut uploads: Vec<f64> = (0..n).map(|i| 100.0 * 1.05f64.powi(i as i32)).collect();
        let mut shuffle_rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        uploads.shuffle(&mut shuffle_rng);
        uploads.push(1000.0); // the seed
        let mut swarm = Swarm::new(cfg, &uploads);
        swarm.run_rounds(2);
        let early = stratification_snapshot(&swarm);
        swarm.run_rounds(80);
        let late = stratification_snapshot(&swarm);
        let (Some(e), Some(l)) = (early.mean_rank_offset, late.mean_rank_offset) else {
            panic!("missing offsets: {early:?} {late:?}");
        };
        assert!(
            l < 0.6 * e,
            "offset did not shrink enough: early {e}, late {l}"
        );
    }

    #[test]
    fn fast_peers_download_faster() {
        let mut swarm = two_class_swarm(5);
        swarm.run_rounds(40);
        let perf = leecher_performance(&swarm);
        let mean = |lo: f64, hi: f64| {
            let xs: Vec<f64> = perf
                .iter()
                .filter(|p| p.upload_kbps >= lo && p.upload_kbps < hi)
                .map(|p| p.downloaded_kbit)
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let slow = mean(0.0, 500.0);
        let fast = mean(500.0, 1e9);
        assert!(
            fast > 1.5 * slow,
            "fast-class download {fast} not well above slow-class {slow}"
        );
    }

    #[test]
    fn share_ratio_band_probe() {
        let mut swarm = two_class_swarm(6);
        swarm.run_rounds(40);
        assert!(mean_share_ratio_in_band(&swarm, 0.0, 1e9).is_some());
        assert!(mean_share_ratio_in_band(&swarm, 1e9, 2e9).is_none());
    }

    #[test]
    fn empty_snapshot_before_any_round() {
        let swarm = two_class_swarm(7);
        let snap = stratification_snapshot(&swarm);
        assert_eq!(snap.reciprocal_pairs, 0);
        assert!(snap.mean_rank_offset.is_none());
    }
}
