//! Algorithm 2: the independent 1-matching mate distribution (§5.1–5.2).
//!
//! Under the independence assumption (Assumption 1), the probability
//! `D(i, j)` that peer `i` is matched with peer `j` on an Erdős–Rényi
//! acceptance graph with edge probability `p` obeys the recurrence
//!
//! ```text
//! D(i, j) = p · (1 − Σ_{k<j} D(i, k)) · (1 − Σ_{k<i} D(j, k))     (Eq. 2)
//! ```
//!
//! (indices are ranks, best first). The paper's Algorithm 2 fills the full
//! `n × n` matrix; this implementation streams the computation with running
//! prefix sums — `O(n)` memory plus one `O(n)` buffer per *requested* row —
//! so the paper's `n = 5000` (Figure 8) runs in milliseconds. The
//! distribution is *n-free*: `D(i, j)` does not depend on `n` (§5.1.1), so
//! truncation only cuts the tail.

use std::collections::BTreeMap;

use serde::Serialize;

/// Solution of the independent 1-matching recurrence.
///
/// Holds full distribution rows for the peers requested at solve time plus
/// the total match probability for *every* peer.
///
/// # Examples
///
/// Reproduce a slice of Figure 8 (mate distribution of a mid-rank peer):
///
/// ```
/// use strat_analytic::one_matching::solve;
///
/// let sol = solve(500, 0.05, &[250]);
/// let row = sol.row(250).unwrap();
/// // The distribution is centred near the peer's own rank: stratification.
/// let mode = (0..500).max_by(|&a, &b| row[a].total_cmp(&row[b])).unwrap();
/// assert!((mode as i64 - 250).abs() < 25, "mode {mode}");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MateDistribution {
    n: usize,
    p: f64,
    /// Full rows `D(i, ·)` for requested peers `i` (0-based ranks).
    rows: BTreeMap<usize, Vec<f64>>,
    /// `mass[i] = Σ_j D(i, j)` — total probability of being matched.
    mass: Vec<f64>,
}

impl MateDistribution {
    /// Number of peers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Edge probability.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Full mate distribution `D(i, ·)` of peer `i`, if requested at solve
    /// time.
    #[must_use]
    pub fn row(&self, i: usize) -> Option<&[f64]> {
        self.rows.get(&i).map(Vec::as_slice)
    }

    /// Total match probability `Σ_j D(i, j)` of peer `i`.
    ///
    /// By Lemma 1 this tends to 1 as peers are added below `i`; the worst
    /// peers retain a visible unmatched probability (Figure 8c).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[must_use]
    pub fn match_probability(&self, i: usize) -> f64 {
        self.mass[i]
    }

    /// Probability that peer `i` ends up unmatched (`1 − match_probability`).
    #[must_use]
    pub fn unmatched_probability(&self, i: usize) -> f64 {
        (1.0 - self.mass[i]).max(0.0)
    }

    /// Ranks of requested rows.
    pub fn requested(&self) -> impl Iterator<Item = usize> + '_ {
        self.rows.keys().copied()
    }
}

/// Solves the independent 1-matching recurrence for `n` peers and edge
/// probability `p`, retaining full rows for `peers`.
///
/// # Panics
///
/// Panics if `p ∉ [0, 1]` or any requested peer is `>= n`.
#[must_use]
pub fn solve(n: usize, p: f64, peers: &[usize]) -> MateDistribution {
    assert!(
        p.is_finite() && (0.0..=1.0).contains(&p),
        "p must be in [0, 1], got {p}"
    );
    let mut rows: BTreeMap<usize, Vec<f64>> = peers
        .iter()
        .map(|&i| {
            assert!(i < n, "requested peer {i} out of range for n = {n}");
            (i, vec![0.0; n])
        })
        .collect();
    let mut mass = vec![0.0; n];
    // colcum[j] = Σ_{k<i} D(k, j) while processing row i.
    let mut colcum = vec![0.0f64; n];
    for i in 0..n {
        // Σ_{k<i} D(i, k): symmetric entries already computed.
        let mut rowcum = colcum[i];
        for j in (i + 1)..n {
            let d = p * (1.0 - rowcum) * (1.0 - colcum[j]);
            rowcum += d;
            colcum[j] += d;
            if d != 0.0 {
                if let Some(row) = rows.get_mut(&i) {
                    row[j] = d;
                }
                if let Some(row) = rows.get_mut(&j) {
                    row[i] = d;
                }
            }
        }
        mass[i] = rowcum;
    }
    MateDistribution { n, p, rows, mass }
}

/// Dense solver filling the full `D` matrix, exactly as the paper's
/// Algorithm 2 pseudo-code. `O(n²)` memory — the ablation baseline for the
/// streaming [`solve`]; use it only for small `n`.
///
/// # Panics
///
/// Panics if `p ∉ [0, 1]`.
#[must_use]
pub fn solve_dense(n: usize, p: f64) -> Vec<Vec<f64>> {
    assert!(
        p.is_finite() && (0.0..=1.0).contains(&p),
        "p must be in [0, 1], got {p}"
    );
    let mut d = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let si: f64 = (0..j).map(|k| d[i][k]).sum();
            let sj: f64 = (0..i).map(|k| d[j][k]).sum();
            let v = p * (1.0 - si) * (1.0 - sj);
            d[i][j] = v;
            d[j][i] = v;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_matches_dense() {
        let n = 60;
        let p = 0.1;
        let dense = solve_dense(n, p);
        let peers: Vec<usize> = (0..n).collect();
        let streaming = solve(n, p, &peers);
        for i in 0..n {
            let row = streaming.row(i).unwrap();
            for j in 0..n {
                assert!(
                    (row[j] - dense[i][j]).abs() < 1e-12,
                    "D({i},{j}): {} vs {}",
                    row[j],
                    dense[i][j]
                );
            }
        }
    }

    #[test]
    fn first_pair_probability_is_p() {
        // D(0, 1) = p exactly: the two best peers match iff connected.
        let sol = solve(10, 0.37, &[0]);
        assert!((sol.row(0).unwrap()[1] - 0.37).abs() < 1e-15);
    }

    #[test]
    fn best_peer_row_is_truncated_geometric() {
        // D(0, j) = p (1 - p)^{j-1}: peer 0 matches its best connected peer.
        let p = 0.2;
        let sol = solve(50, p, &[0]);
        let row = sol.row(0).unwrap();
        for j in 1..20 {
            let expected = p * (1.0 - p).powi(j as i32 - 1);
            assert!((row[j] - expected).abs() < 1e-12, "j={j}");
        }
    }

    #[test]
    fn rows_are_symmetric_subprobabilities() {
        let sol = solve(200, 0.05, &[10, 100, 190]);
        for i in [10usize, 100, 190] {
            let row = sol.row(i).unwrap();
            assert!(row.iter().all(|&x| (0.0..=1.0).contains(&x)));
            assert!((row.iter().sum::<f64>() - sol.match_probability(i)).abs() < 1e-9);
            assert!(sol.match_probability(i) <= 1.0 + 1e-12);
            assert_eq!(row[i], 0.0, "D(i,i) must be 0");
        }
    }

    #[test]
    fn symmetry_d_ij_equals_d_ji() {
        let peers: Vec<usize> = (0..30).collect();
        let sol = solve(30, 0.15, &peers);
        for i in 0..30 {
            for j in 0..30 {
                let dij = sol.row(i).unwrap()[j];
                let dji = sol.row(j).unwrap()[i];
                assert!((dij - dji).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn lemma1_mass_approaches_one_with_peers_below() {
        // Adding many peers below rank i drives the match probability to 1.
        let sol = solve(2000, 0.01, &[]);
        assert!(
            sol.match_probability(100) > 0.999,
            "{}",
            sol.match_probability(100)
        );
        // The worst peer matches in roughly half the cases (§5.3).
        let last = sol.match_probability(1999);
        assert!((last - 0.5).abs() < 0.05, "worst peer mass {last}");
    }

    #[test]
    fn truncation_consistency() {
        // n-freeness (§5.1.1): D(i, j) computed with n = 100 equals the
        // restriction of the n = 300 solution.
        let small = solve(100, 0.08, &[20]);
        let large = solve(300, 0.08, &[20]);
        let (rs, rl) = (small.row(20).unwrap(), large.row(20).unwrap());
        for j in 0..100 {
            assert!((rs[j] - rl[j]).abs() < 1e-12, "j={j}");
        }
    }

    #[test]
    fn extreme_p_values() {
        let sol = solve(10, 0.0, &[0]);
        assert!(sol.row(0).unwrap().iter().all(|&x| x == 0.0));
        assert_eq!(sol.match_probability(5), 0.0);

        let sol = solve(10, 1.0, &[0, 1]);
        // Complete graph: consecutive pairs match with certainty.
        assert_eq!(sol.row(0).unwrap()[1], 1.0);
        assert_eq!(sol.row(1).unwrap()[0], 1.0);
        assert!(sol.row(0).unwrap()[2] == 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_peer_request_panics() {
        let _ = solve(5, 0.5, &[7]);
    }

    #[test]
    #[should_panic(expected = "p must be in [0, 1]")]
    fn bad_p_panics() {
        let _ = solve(5, -0.1, &[]);
    }
}
