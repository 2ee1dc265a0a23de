//! Algorithm 3: the independent `b₀`-matching per-choice mate distribution
//! (§5.4).
//!
//! For `b₀`-matching the quantity of interest is `D_c(i, j)`: the
//! probability that the `c`-th best mate (*choice* `c`, `1 ≤ c ≤ b₀`) of
//! peer `i` is peer `j`. Under the independence assumption (Assumption 2)
//! the joint quantity `D^{c_j}_{c_i}(i, j)` — choice `c_i` of `i` is `j`
//! *and* choice `c_j` of `j` is `i` — factorizes as
//!
//! ```text
//! D^{c_j}_{c_i}(i,j) = p · [Σ_{k<j} D_{c_i−1}(i,k) − D_{c_i}(i,k)]
//!                        · [Σ_{k<i} D_{c_j−1}(j,k) − D_{c_j}(j,k)]   (Eq. 4)
//! ```
//!
//! with the convention that the `c = 0` prefix sum is identically 1. As for
//! [Algorithm 2](crate::one_matching), we stream the computation with
//! `O(b₀·n)` running prefix sums instead of the paper's
//! `O(b₀²·n²)` arrays, keeping `n = 5000` (Figure 9) cheap.

use std::collections::BTreeMap;

use serde::Serialize;

/// Solution of the independent `b₀`-matching recurrence.
///
/// # Examples
///
/// ```
/// use strat_analytic::b_matching::solve;
///
/// // 2-matching on 400 peers with ~20 acceptable peers each.
/// let sol = solve(400, 0.05, 2, &[200]);
/// let first = sol.choice_row(200, 1).unwrap();
/// let second = sol.choice_row(200, 2).unwrap();
/// // First choices are better-ranked than second choices on average.
/// let mean = |row: &[f64]| {
///     let m: f64 = row.iter().sum();
///     row.iter().enumerate().map(|(j, d)| j as f64 * d).sum::<f64>() / m
/// };
/// assert!(mean(first) < mean(second));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BMatchingDistribution {
    n: usize,
    p: f64,
    b0: u32,
    /// `rows[i][c-1][j] = D_c(i, j)` for requested peers.
    rows: BTreeMap<usize, Vec<Vec<f64>>>,
    /// `mass[c-1][i] = Σ_j D_c(i, j)`: probability peer `i` has a `c`-th mate.
    mass: Vec<Vec<f64>>,
}

impl BMatchingDistribution {
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

    /// Number of slots per peer.
    #[must_use]
    pub fn b0(&self) -> u32 {
        self.b0
    }

    /// Distribution `D_c(i, ·)` of the `c`-th choice of peer `i`
    /// (`1 ≤ c ≤ b₀`), if `i` was requested at solve time.
    #[must_use]
    pub fn choice_row(&self, i: usize, c: u32) -> Option<&[f64]> {
        if c == 0 || c > self.b0 {
            return None;
        }
        self.rows.get(&i).map(|r| r[(c - 1) as usize].as_slice())
    }

    /// Probability that peer `i` has at least `c` mates.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` or `c ∉ 1..=b₀`.
    #[must_use]
    pub fn choice_mass(&self, i: usize, c: u32) -> f64 {
        assert!(
            (1..=self.b0).contains(&c),
            "choice {c} out of 1..={}",
            self.b0
        );
        self.mass[(c - 1) as usize][i]
    }

    /// Expected number of mates of peer `i` (`Σ_c choice_mass`).
    #[must_use]
    pub fn expected_degree(&self, i: usize) -> f64 {
        (1..=self.b0).map(|c| self.choice_mass(i, c)).sum()
    }
}

/// Solves the independent `b₀`-matching recurrence, retaining per-choice
/// rows for `peers`.
///
/// # Panics
///
/// Panics if `p ∉ [0, 1]`, `b0 == 0`, or a requested peer is `>= n`.
#[must_use]
pub fn solve(n: usize, p: f64, b0: u32, peers: &[usize]) -> BMatchingDistribution {
    assert!(
        p.is_finite() && (0.0..=1.0).contains(&p),
        "p must be in [0, 1], got {p}"
    );
    assert!(b0 >= 1, "b0 must be at least 1");
    let b = b0 as usize;
    let mut rows: BTreeMap<usize, Vec<Vec<f64>>> = peers
        .iter()
        .map(|&i| {
            assert!(i < n, "requested peer {i} out of range for n = {n}");
            (i, vec![vec![0.0; n]; b])
        })
        .collect();
    let mut mass = vec![vec![0.0f64; n]; b];
    // colcum[c][j] = Σ_{k<i} D_{c+1}(j, k) while processing row i.
    let mut colcum = vec![vec![0.0f64; n]; b];
    // Scratch buffers reused across pairs.
    let mut rowcum = vec![0.0f64; b];
    let mut d_i = vec![0.0f64; b]; // D_{c}(i, j) for the current pair
    let mut d_j = vec![0.0f64; b]; // D_{c}(j, i) for the current pair
    for i in 0..n {
        // Initialize Σ_{k<i} D_c(i, k) from the symmetric column sums.
        for c in 0..b {
            rowcum[c] = colcum[c][i];
        }
        for j in (i + 1)..n {
            // factor_i[c] = P(choice c+1 of i is free at level j);
            // factor_j[c] = P(choice c+1 of j is free at level i).
            // The whole b×b block is evaluated from the prefix sums as they
            // stood BEFORE this pair, then applied at once.
            d_i.fill(0.0);
            d_j.fill(0.0);
            for ci in 0..b {
                let fi = (if ci == 0 { 1.0 } else { rowcum[ci - 1] }) - rowcum[ci];
                if fi <= 0.0 {
                    continue;
                }
                for cj in 0..b {
                    let fj = (if cj == 0 { 1.0 } else { colcum[cj - 1][j] }) - colcum[cj][j];
                    if fj <= 0.0 {
                        continue;
                    }
                    let v = p * fi * fj;
                    d_i[ci] += v; // D_{ci+1}(i, j), summed over j's choice
                    d_j[cj] += v; // D_{cj+1}(j, i), summed over i's choice
                }
            }
            for c in 0..b {
                rowcum[c] += d_i[c];
                colcum[c][j] += d_j[c];
            }
            if let Some(r) = rows.get_mut(&i) {
                for c in 0..b {
                    r[c][j] = d_i[c];
                }
            }
            if let Some(r) = rows.get_mut(&j) {
                for c in 0..b {
                    r[c][i] = d_j[c];
                }
            }
        }
        for c in 0..b {
            mass[c][i] = rowcum[c];
        }
    }
    BMatchingDistribution {
        n,
        p,
        b0,
        rows,
        mass,
    }
}

/// Per-peer expectations over the mate distribution, computed in one
/// streaming pass without materializing any row.
///
/// This powers the §6 efficiency model (Figure 11): with `weights[j]` = the
/// per-slot upload bandwidth of peer `j`, `weighted[i]` is peer `i`'s
/// expected download rate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExchangeExpectations {
    /// `weighted[i] = Σ_c Σ_j D_c(i, j) · weights[j]`.
    pub weighted: Vec<f64>,
    /// `expected_degree[i] = Σ_c Σ_j D_c(i, j)`: expected number of mates.
    pub expected_degree: Vec<f64>,
    /// `choice_mass[c-1][i] = Σ_j D_c(i, j)`.
    pub choice_mass: Vec<Vec<f64>>,
}

/// Runs the Algorithm 3 recurrence accumulating, for **every** peer, the
/// expectation `Σ_c Σ_j D_c(i, j)·weights[j]` and the per-choice masses —
/// `O(b₀·n)` memory even though all `n` rows are covered.
///
/// # Panics
///
/// Panics if `p ∉ [0, 1]`, `b0 == 0`, or `weights.len() != n`.
#[must_use]
pub fn solve_expectations(n: usize, p: f64, b0: u32, weights: &[f64]) -> ExchangeExpectations {
    assert!(
        p.is_finite() && (0.0..=1.0).contains(&p),
        "p must be in [0, 1], got {p}"
    );
    assert!(b0 >= 1, "b0 must be at least 1");
    assert_eq!(weights.len(), n, "weights must cover all peers");
    let b = b0 as usize;
    let mut weighted = vec![0.0f64; n];
    let mut colcum = vec![vec![0.0f64; n]; b];
    let mut rowcum = vec![0.0f64; b];
    let mut d_i = vec![0.0f64; b];
    let mut d_j = vec![0.0f64; b];
    let mut mass = vec![vec![0.0f64; n]; b];
    for i in 0..n {
        for c in 0..b {
            rowcum[c] = colcum[c][i];
        }
        for j in (i + 1)..n {
            d_i.fill(0.0);
            d_j.fill(0.0);
            for ci in 0..b {
                let fi = (if ci == 0 { 1.0 } else { rowcum[ci - 1] }) - rowcum[ci];
                if fi <= 0.0 {
                    continue;
                }
                for cj in 0..b {
                    let fj = (if cj == 0 { 1.0 } else { colcum[cj - 1][j] }) - colcum[cj][j];
                    if fj <= 0.0 {
                        continue;
                    }
                    let v = p * fi * fj;
                    d_i[ci] += v;
                    d_j[cj] += v;
                }
            }
            let (mut pair_i, mut pair_j) = (0.0, 0.0);
            for c in 0..b {
                rowcum[c] += d_i[c];
                colcum[c][j] += d_j[c];
                pair_i += d_i[c];
                pair_j += d_j[c];
            }
            weighted[i] += pair_i * weights[j];
            weighted[j] += pair_j * weights[i];
        }
        for c in 0..b {
            mass[c][i] = rowcum[c];
        }
    }
    let expected_degree = (0..n).map(|i| (0..b).map(|c| mass[c][i]).sum()).collect();
    ExchangeExpectations {
        weighted,
        expected_degree,
        choice_mass: mass,
    }
}

#[cfg(test)]
mod tests {
    use crate::one_matching;

    use super::*;

    #[test]
    fn b1_reduces_to_algorithm2() {
        let n = 80;
        let p = 0.07;
        let peers: Vec<usize> = (0..n).collect();
        let one = one_matching::solve(n, p, &peers);
        let b = solve(n, p, 1, &peers);
        for i in 0..n {
            let r1 = one.row(i).unwrap();
            let rb = b.choice_row(i, 1).unwrap();
            for j in 0..n {
                assert!(
                    (r1[j] - rb[j]).abs() < 1e-12,
                    "D({i},{j}): {} vs {}",
                    r1[j],
                    rb[j]
                );
            }
            assert!((one.match_probability(i) - b.choice_mass(i, 1)).abs() < 1e-12);
        }
    }

    #[test]
    fn choice_rows_are_subprobabilities_and_ordered() {
        let sol = solve(300, 0.05, 3, &[150]);
        let mut prev_mass = f64::INFINITY;
        for c in 1..=3u32 {
            let row = sol.choice_row(150, c).unwrap();
            assert!(row.iter().all(|&x| (0.0..=1.0).contains(&x)));
            let mass: f64 = row.iter().sum();
            assert!((mass - sol.choice_mass(150, c)).abs() < 1e-9);
            assert!(
                mass <= prev_mass + 1e-12,
                "choice {c} mass {mass} above previous"
            );
            prev_mass = mass;
        }
        assert!(sol.expected_degree(150) <= 3.0 + 1e-9);
    }

    #[test]
    fn first_choice_outranks_second_on_average() {
        let sol = solve(500, 0.04, 2, &[250]);
        let mean_rank = |row: &[f64]| {
            let m: f64 = row.iter().sum();
            row.iter()
                .enumerate()
                .map(|(j, d)| j as f64 * d)
                .sum::<f64>()
                / m
        };
        let m1 = mean_rank(sol.choice_row(250, 1).unwrap());
        let m2 = mean_rank(sol.choice_row(250, 2).unwrap());
        assert!(
            m1 < m2,
            "first-choice mean rank {m1} not better than second {m2}"
        );
    }

    #[test]
    fn best_pair_first_choice_is_p() {
        // Choice 1 of peer 0 is peer 1 iff the edge (0,1) exists.
        let sol = solve(20, 0.3, 2, &[0]);
        assert!((sol.choice_row(0, 1).unwrap()[1] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn n_freeness_truncation() {
        let small = solve(80, 0.06, 2, &[30]);
        let large = solve(200, 0.06, 2, &[30]);
        for c in 1..=2u32 {
            let (rs, rl) = (
                small.choice_row(30, c).unwrap(),
                large.choice_row(30, c).unwrap(),
            );
            for j in 0..80 {
                assert!((rs[j] - rl[j]).abs() < 1e-12, "c={c} j={j}");
            }
        }
    }

    #[test]
    fn diagonal_is_zero_and_out_of_range_choice_is_none() {
        let sol = solve(30, 0.2, 2, &[10]);
        assert_eq!(sol.choice_row(10, 1).unwrap()[10], 0.0);
        assert!(sol.choice_row(10, 0).is_none());
        assert!(sol.choice_row(10, 3).is_none());
        assert!(sol.choice_row(11, 1).is_none()); // not requested
    }

    #[test]
    fn complete_graph_b2_forms_triangles() {
        // p = 1: stable 2-matching on a complete graph is consecutive
        // 3-cliques; peer 0's choices are peers 1 and 2 with certainty.
        let sol = solve(12, 1.0, 2, &[0, 1, 4]);
        assert!((sol.choice_row(0, 1).unwrap()[1] - 1.0).abs() < 1e-9);
        assert!((sol.choice_row(0, 2).unwrap()[2] - 1.0).abs() < 1e-9);
        // Peer 1's first choice is peer 0.
        assert!((sol.choice_row(1, 1).unwrap()[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "b0 must be at least 1")]
    fn zero_b0_panics() {
        let _ = solve(5, 0.5, 0, &[]);
    }

    #[test]
    fn expectations_match_explicit_rows() {
        let n = 120;
        let p = 0.06;
        let b0 = 3;
        let weights: Vec<f64> = (0..n).map(|j| 1000.0 / (j as f64 + 1.0)).collect();
        let exp = solve_expectations(n, p, b0, &weights);
        let peers: Vec<usize> = (0..n).collect();
        let rows = solve(n, p, b0, &peers);
        for i in (0..n).step_by(17) {
            let explicit: f64 = (1..=b0)
                .map(|c| {
                    rows.choice_row(i, c)
                        .unwrap()
                        .iter()
                        .zip(&weights)
                        .map(|(d, w)| d * w)
                        .sum::<f64>()
                })
                .sum();
            assert!(
                (exp.weighted[i] - explicit).abs() < 1e-9,
                "peer {i}: {} vs {explicit}",
                exp.weighted[i]
            );
            assert!((exp.expected_degree[i] - rows.expected_degree(i)).abs() < 1e-9);
            for c in 1..=b0 {
                assert!(
                    (exp.choice_mass[(c - 1) as usize][i] - rows.choice_mass(i, c)).abs() < 1e-9
                );
            }
        }
    }

    #[test]
    fn expectations_with_unit_weights_equal_degree() {
        let exp = solve_expectations(60, 0.1, 2, &vec![1.0; 60]);
        for i in 0..60 {
            assert!((exp.weighted[i] - exp.expected_degree[i]).abs() < 1e-12);
        }
    }
}
