//! Algorithms 2 and 3: the independent mate distributions (§5.1–5.4).
//!
//! For `b₀`-matching the quantity of interest is `D_c(i, j)`: the
//! probability that the `c`-th best mate (*choice* `c`, `1 ≤ c ≤ b₀`) of
//! peer `i` is peer `j` (indices are ranks, best first). Under the
//! independence assumption (Assumption 2) the joint quantity
//! `D^{c_j}_{c_i}(i, j)` — choice `c_i` of `i` is `j` *and* choice `c_j` of
//! `j` is `i` — factorizes as
//!
//! ```text
//! D^{c_j}_{c_i}(i,j) = p · [Σ_{k<j} D_{c_i−1}(i,k) − D_{c_i}(i,k)]
//!                        · [Σ_{k<i} D_{c_j−1}(j,k) − D_{c_j}(j,k)]   (Eq. 4)
//! ```
//!
//! with the convention that the `c = 0` prefix sum is identically 1. At
//! `b₀ = 1` this is Algorithm 2's recurrence for 1-matching,
//! `D(i, j) = p · (1 − Σ_{k<j} D(i, k)) · (1 − Σ_{k<i} D(j, k))` (Eq. 2),
//! so [`solve`]`(n, p, 1, ..)` *is* Algorithm 2; the paper's literal dense
//! form stays in [`one_matching::solve_dense`](crate::one_matching) as the
//! reference.
//!
//! One sweep over the pairs `i < j` evaluates the recurrence with `O(b₀·n)`
//! running prefix sums instead of the paper's `O(b₀²·n²)` arrays, keeping
//! `n = 5000` (Figures 8 and 9) in milliseconds. [`solve`] keeps the rows
//! of the requested peers; [`solve_expectations`] keeps per-peer weighted
//! sums (Figure 11). The distribution is *n-free*: `D_c(i, j)` does not
//! depend on `n` (§5.1.1), so truncation only cuts the tail.

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
    /// `row_of[i]`: index of peer `i`'s rows in `rows`, or [`UNREQUESTED`].
    row_of: Vec<u32>,
    /// `rows[(r·b₀ + c − 1)·n + j] = D_c(i, j)` for the peer `i` with
    /// `row_of[i] = r`.
    rows: Vec<f64>,
    /// `mass[i·b₀ + c − 1] = Σ_j D_c(i, j)`: probability peer `i` has a
    /// `c`-th mate.
    mass: Vec<f64>,
}

/// `row_of` entry of a peer whose rows were not requested.
const UNREQUESTED: u32 = u32::MAX;

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
        let r = *self.row_of.get(i).filter(|&&r| r != UNREQUESTED)? as usize;
        let start = (r * self.b0 as usize + (c - 1) as usize) * self.n;
        Some(&self.rows[start..start + self.n])
    }

    /// Probability that peer `i` has at least `c` mates.
    ///
    /// By Lemma 1 the first-choice mass tends to 1 as peers are added
    /// below `i`; the worst peers keep a visible unmatched probability
    /// (Figure 8c).
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
        self.mass[i * self.b0 as usize + (c - 1) as usize]
    }

    /// Expected number of mates of peer `i` (`Σ_c choice_mass`).
    #[must_use]
    pub fn expected_degree(&self, i: usize) -> f64 {
        (1..=self.b0).map(|c| self.choice_mass(i, c)).sum()
    }
}

/// Receives every pair's per-choice probabilities from [`sweep`].
trait Visit {
    /// Pair `i < j`, in row-major order: `d_ij[c − 1] = D_c(i, j)` and
    /// `d_ji[c − 1] = D_c(j, i)` for `1 ≤ c ≤ b₀`. A choice that no term
    /// reached reads `-0.0`.
    fn pair(&mut self, i: usize, j: usize, d_ij: &[f64], d_ji: &[f64]);
}

/// Evaluates Eq. 4 over every pair `i < j`, handing each pair to `visit`,
/// and returns the per-choice masses `mass[i·b₀ + c − 1] = Σ_j D_c(i, j)`.
///
/// The widths the paper uses get their own copy of the loop with the
/// width fixed at compile time; wider ones run the same body.
///
/// # Panics
///
/// Panics if `p ∉ [0, 1]` or `b0 == 0`.
fn sweep(n: usize, p: f64, b0: u32, visit: &mut impl Visit) -> Vec<f64> {
    assert!(
        p.is_finite() && (0.0..=1.0).contains(&p),
        "p must be in [0, 1], got {p}"
    );
    match b0 {
        0 => panic!("b0 must be at least 1"),
        1 => sweep_with(n, p, &mut [0.0; 3], visit),
        2 => sweep_with(n, p, &mut [0.0; 6], visit),
        3 => sweep_with(n, p, &mut [0.0; 9], visit),
        b => sweep_with(n, p, &mut vec![0.0; 3 * b as usize], visit),
    }
}

/// The body of [`sweep`] at width `scratch.len() / 3`; inlined into each
/// arm so a literal width unrolls the choice loops.
#[inline(always)]
fn sweep_with(n: usize, p: f64, scratch: &mut [f64], visit: &mut impl Visit) -> Vec<f64> {
    let b = scratch.len() / 3;
    let (rowcum, pair) = scratch.split_at_mut(b);
    let (d_i, d_j) = pair.split_at_mut(b);
    // sums[j·b + c] = Σ_{k<i} D_{c+1}(j, k) while processing row i; row i
    // ends holding Σ_k D_{c+1}(i, k), its masses.
    let mut sums = vec![0.0f64; n * b];
    for i in 0..n {
        let (done, below) = sums.split_at_mut((i + 1) * b);
        let row = &mut done[i * b..];
        rowcum.copy_from_slice(row);
        for (j, colcum) in (i + 1..n).zip(below.chunks_exact_mut(b)) {
            // The whole b×b block is evaluated from the prefix sums as they
            // stood BEFORE this pair, then applied at once. The sums start
            // at -0.0, the exact additive identity, so a one-term choice is
            // that term: no extra add on the chain through rowcum.
            d_i.fill(-0.0);
            d_j.fill(-0.0);
            for ci in 0..b {
                // P(choice ci+1 of i is free at level j).
                let fi = (if ci == 0 { 1.0 } else { rowcum[ci - 1] }) - rowcum[ci];
                if fi <= 0.0 {
                    continue;
                }
                let pfi = p * fi;
                for cj in 0..b {
                    // P(choice cj+1 of j is free at level i).
                    let fj = (if cj == 0 { 1.0 } else { colcum[cj - 1] }) - colcum[cj];
                    if fj <= 0.0 {
                        continue;
                    }
                    let v = pfi * fj;
                    d_i[ci] += v; // D_{ci+1}(i, j), summed over j's choice
                    d_j[cj] += v; // D_{cj+1}(j, i), summed over i's choice
                }
            }
            for c in 0..b {
                rowcum[c] += d_i[c];
                colcum[c] += d_j[c];
            }
            visit.pair(i, j, d_i, d_j);
        }
        row.copy_from_slice(rowcum);
    }
    sums
}

/// Solves the independent `b₀`-matching recurrence, retaining per-choice
/// rows for `peers`.
///
/// # Panics
///
/// Panics if `p ∉ [0, 1]`, `b0 == 0`, or a requested peer is `>= n`.
#[must_use]
pub fn solve(n: usize, p: f64, b0: u32, peers: &[usize]) -> BMatchingDistribution {
    let b = b0 as usize;
    let mut row_of = vec![UNREQUESTED; n];
    let mut requested = 0;
    for &i in peers {
        assert!(i < n, "requested peer {i} out of range for n = {n}");
        if row_of[i] == UNREQUESTED {
            row_of[i] = requested;
            requested += 1;
        }
    }
    let mut visit = Rows {
        n,
        row_of: &row_of,
        rows: vec![0.0; requested as usize * b * n],
    };
    let mass = sweep(n, p, b0, &mut visit);
    let rows = visit.rows;
    BMatchingDistribution {
        n,
        p,
        b0,
        row_of,
        rows,
        mass,
    }
}

/// [`solve`]'s visitor: copies each pair into the requested rows.
struct Rows<'a> {
    n: usize,
    row_of: &'a [u32],
    rows: Vec<f64>,
}

impl Visit for Rows<'_> {
    #[inline(always)]
    fn pair(&mut self, i: usize, j: usize, d_ij: &[f64], d_ji: &[f64]) {
        let b = d_ij.len();
        for (me, mate, d) in [(i, j, d_ij), (j, i, d_ji)] {
            let r = self.row_of[me];
            if r != UNREQUESTED {
                for c in 0..b {
                    // + 0.0 turns the sweep's -0.0 (no term) into 0.
                    self.rows[(r as usize * b + c) * self.n + mate] = d[c] + 0.0;
                }
            }
        }
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
    assert_eq!(weights.len(), n, "weights must cover all peers");
    let mut visit = Weighted {
        weights,
        weighted: vec![0.0; n],
    };
    let mass = sweep(n, p, b0, &mut visit);
    let b = b0 as usize;
    let expected_degree = mass.chunks_exact(b).map(|m| m.iter().sum()).collect();
    let choice_mass = (0..b)
        .map(|c| mass.iter().skip(c).step_by(b).copied().collect())
        .collect();
    ExchangeExpectations {
        weighted: visit.weighted,
        expected_degree,
        choice_mass,
    }
}

/// [`solve_expectations`]' visitor: weights each pair by the mate's
/// bandwidth.
struct Weighted<'a> {
    weights: &'a [f64],
    weighted: Vec<f64>,
}

impl Visit for Weighted<'_> {
    #[inline(always)]
    fn pair(&mut self, i: usize, j: usize, d_ij: &[f64], d_ji: &[f64]) {
        self.weighted[i] += d_ij.iter().sum::<f64>() * self.weights[j];
        self.weighted[j] += d_ji.iter().sum::<f64>() * self.weights[i];
    }
}

#[cfg(test)]
mod tests {
    use crate::one_matching;

    use super::*;

    #[test]
    fn b1_matches_dense_algorithm2() {
        let n = 80;
        let p = 0.07;
        let dense = one_matching::solve_dense(n, p);
        let peers: Vec<usize> = (0..n).collect();
        let sol = solve(n, p, 1, &peers);
        for i in 0..n {
            let row = sol.choice_row(i, 1).unwrap();
            for j in 0..n {
                assert!(
                    (row[j] - dense[i][j]).abs() < 1e-12,
                    "D({i},{j}): {} vs {}",
                    row[j],
                    dense[i][j]
                );
            }
            let mass: f64 = dense[i].iter().sum();
            assert!((sol.choice_mass(i, 1) - mass).abs() < 1e-12);
        }
    }

    #[test]
    fn best_peer_row_is_truncated_geometric() {
        // D(0, j) = p (1 - p)^{j-1} at b0 = 1: peer 0 matches its best
        // connected peer, so D(0, 1) = p exactly.
        let p = 0.2;
        let sol = solve(50, p, 1, &[0]);
        let row = sol.choice_row(0, 1).unwrap();
        assert_eq!(row[1], p);
        for j in 1..20 {
            let expected = p * (1.0 - p).powi(j as i32 - 1);
            assert!((row[j] - expected).abs() < 1e-12, "j={j}");
        }
    }

    #[test]
    fn b1_rows_are_symmetric() {
        let peers: Vec<usize> = (0..30).collect();
        let sol = solve(30, 0.15, 1, &peers);
        for i in 0..30 {
            for j in 0..30 {
                let dij = sol.choice_row(i, 1).unwrap()[j];
                let dji = sol.choice_row(j, 1).unwrap()[i];
                assert!((dij - dji).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn lemma1_mass_approaches_one_with_peers_below() {
        // Adding many peers below rank i drives the match probability to 1.
        let sol = solve(2000, 0.01, 1, &[]);
        let top = sol.choice_mass(100, 1);
        assert!(top > 0.999, "{top}");
        // The worst peer matches in roughly half the cases (§5.3).
        let last = sol.choice_mass(1999, 1);
        assert!((last - 0.5).abs() < 0.05, "worst peer mass {last}");
    }

    #[test]
    fn mid_rank_mode_sits_at_own_rank() {
        // Figure 8's central regime: the distribution is centred near the
        // peer's own rank (stratification).
        let sol = solve(500, 0.05, 1, &[250]);
        let row = sol.choice_row(250, 1).unwrap();
        let mode = (0..500).max_by(|&a, &b| row[a].total_cmp(&row[b])).unwrap();
        assert!((mode as i64 - 250).abs() < 25, "mode {mode}");
    }

    #[test]
    fn extreme_p_values() {
        let sol = solve(10, 0.0, 1, &[0]);
        assert!(sol.choice_row(0, 1).unwrap().iter().all(|&x| x == 0.0));
        assert_eq!(sol.choice_mass(5, 1), 0.0);

        let sol = solve(10, 1.0, 1, &[0, 1]);
        // Complete graph: consecutive pairs match with certainty.
        assert_eq!(sol.choice_row(0, 1).unwrap()[1], 1.0);
        assert_eq!(sol.choice_row(1, 1).unwrap()[0], 1.0);
        assert_eq!(sol.choice_row(0, 1).unwrap()[2], 0.0);
    }

    #[test]
    fn duplicate_requests_share_one_row() {
        let once = solve(60, 0.1, 2, &[20]);
        let twice = solve(60, 0.1, 2, &[20, 20]);
        assert_eq!(once, twice);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_peer_request_panics() {
        let _ = solve(5, 0.5, 1, &[7]);
    }

    #[test]
    #[should_panic(expected = "p must be in [0, 1]")]
    fn bad_p_panics() {
        let _ = solve(5, -0.1, 1, &[]);
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
        // n-freeness (§5.1.1): D_c(i, j) computed with n = 80 equals the
        // restriction of the n = 200 solution.
        for b0 in 1..=2u32 {
            let small = solve(80, 0.06, b0, &[30]);
            let large = solve(200, 0.06, b0, &[30]);
            for c in 1..=b0 {
                let (rs, rl) = (
                    small.choice_row(30, c).unwrap(),
                    large.choice_row(30, c).unwrap(),
                );
                for j in 0..80 {
                    assert!((rs[j] - rl[j]).abs() < 1e-12, "b0={b0} c={c} j={j}");
                }
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
