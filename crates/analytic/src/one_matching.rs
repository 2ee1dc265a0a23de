//! Algorithm 2 in the paper's literal form: the independent 1-matching
//! mate distribution (§5.1–5.2).
//!
//! Under the independence assumption (Assumption 1), the probability
//! `D(i, j)` that peer `i` is matched with peer `j` on an Erdős–Rényi
//! acceptance graph with edge probability `p` obeys the recurrence
//!
//! ```text
//! D(i, j) = p · (1 − Σ_{k<j} D(i, k)) · (1 − Σ_{k<i} D(j, k))     (Eq. 2)
//! ```
//!
//! (indices are ranks, best first). This is Eq. 4 at `b₀ = 1`, so the
//! streaming solver is [`b_matching::solve`](crate::b_matching::solve)
//! with `b0 = 1`; this module keeps the paper's dense pseudo-code as the
//! reference it is tested against.

/// Dense solver filling the full `D` matrix, exactly as the paper's
/// Algorithm 2 pseudo-code. `O(n²)` memory and `O(n³)` time — the ablation
/// baseline for the streaming [`b_matching::solve`](crate::b_matching::solve);
/// use it only for small `n`.
///
/// # Panics
///
/// Panics if `p ∉ [0, 1]`.
///
/// # Examples
///
/// ```
/// use strat_analytic::{b_matching, one_matching};
///
/// let dense = one_matching::solve_dense(40, 0.1);
/// let sweep = b_matching::solve(40, 0.1, 1, &[7]);
/// let row = sweep.choice_row(7, 1).unwrap();
/// assert!((0..40).all(|j| (row[j] - dense[7][j]).abs() < 1e-12));
/// ```
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
