//! Exact mate distributions by exhaustive graph enumeration (Figure 7).
//!
//! For tiny `n`, every Erdős–Rényi realization can be enumerated: there are
//! `2^(n(n−1)/2)` possible graphs, each with probability
//! `p^e (1−p)^(E−e)`. Computing the unique stable matching of each graph
//! (Algorithm 1) and accumulating probabilities yields the **exact**
//! `D(i, j)` — the gold standard against which the independence
//! approximation of Algorithms 2–3 ([`b_matching`](crate::b_matching),
//! Algorithm 2 being its `b₀ = 1` case) is measured.
//!
//! The paper's Figure 7 works this out for `n = 3`:
//!
//! ```text
//! D_exact(1,2) = p,   D_exact(1,3) = p(1−p),   D_exact(2,3) = p(1−p)²
//! ```
//!
//! while Algorithm 2 yields `D(2,3) = p(1−p)(1 − p(1−p))`, an excess of
//! exactly `p³(1−p)` ([`figure7_approx`]; `fig7` checks it against
//! `b_matching::solve(3, p, 1, ..)`).

use strat_core::{stable_configuration, Capacities, GlobalRanking, RankedAcceptance};
use strat_graph::{Graph, NodeId};

/// Exact mate distribution for `b₀`-matching on `G(n, p)`, by enumerating
/// all `2^(n(n−1)/2)` graphs.
///
/// Returns the matrix `D[i][j]` = probability that `i` and `j` are matched
/// (any choice index).
///
/// # Panics
///
/// Panics if `n > 8` (enumeration would exceed 2²⁸ graphs) or `p ∉ [0, 1]`.
///
/// # Examples
///
/// ```
/// let p = 0.3;
/// let d = strat_analytic::exact::exact_distribution(3, p, 1);
/// assert!((d[0][1] - p).abs() < 1e-12);
/// assert!((d[0][2] - p * (1.0 - p)).abs() < 1e-12);
/// assert!((d[1][2] - p * (1.0 - p) * (1.0 - p)).abs() < 1e-12);
/// ```
#[must_use]
pub fn exact_distribution(n: usize, p: f64, b0: u32) -> Vec<Vec<f64>> {
    assert!(n <= 8, "exact enumeration supports n <= 8, got {n}");
    assert!(
        p.is_finite() && (0.0..=1.0).contains(&p),
        "p must be in [0, 1], got {p}"
    );
    let ranking = GlobalRanking::identity(n);
    let caps = Capacities::constant(n, b0);
    let pair_count = n * n.saturating_sub(1) / 2;
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect();
    let mut d = vec![vec![0.0f64; n]; n];
    for mask in 0u64..(1u64 << pair_count) {
        let edges = mask.count_ones() as i32;
        let prob = p.powi(edges) * (1.0 - p).powi(pair_count as i32 - edges);
        if prob == 0.0 {
            continue;
        }
        let mut builder = Graph::builder(n);
        for (bit, &(i, j)) in pairs.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                builder
                    .add_edge(NodeId::new(i), NodeId::new(j))
                    .expect("valid pair");
            }
        }
        let acc = RankedAcceptance::new(builder.build(), ranking.clone()).expect("sizes match");
        let m = stable_configuration(&acc, &caps).expect("sizes match");
        for i in 0..n {
            for &mate in m.mates(NodeId::new(i)) {
                // Each link is visited from both endpoints, filling d[i][j]
                // and d[j][i] symmetrically.
                d[i][mate.index()] += prob;
            }
        }
    }
    d
}

/// The paper's closed forms for `n = 3`, 1-matching (Figure 7).
///
/// Returns `(D(1,2), D(1,3), D(2,3))` in the paper's 1-based labels.
#[must_use]
pub fn figure7_exact(p: f64) -> (f64, f64, f64) {
    (p, p * (1.0 - p), p * (1.0 - p) * (1.0 - p))
}

/// Algorithm 2's approximation for `n = 3` and the paper's derived error:
/// `D(2,3) = D_exact(2,3) + p³(1−p)`.
///
/// Returns `(D(1,2), D(1,3), D(2,3))`.
#[must_use]
pub fn figure7_approx(p: f64) -> (f64, f64, f64) {
    let d23 = p * (1.0 - p) * (1.0 - p * (1.0 - p));
    (p, p * (1.0 - p), d23)
}

#[cfg(test)]
mod tests {
    use crate::b_matching;

    use super::*;

    #[test]
    fn figure7_closed_forms_match_enumeration() {
        for p in [0.1, 0.3, 0.5, 0.9] {
            let d = exact_distribution(3, p, 1);
            let (d12, d13, d23) = figure7_exact(p);
            assert!((d[0][1] - d12).abs() < 1e-12, "p={p}");
            assert!((d[0][2] - d13).abs() < 1e-12, "p={p}");
            assert!((d[1][2] - d23).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn approximation_error_is_p3_1mp() {
        for p in [0.05, 0.2, 0.5, 0.8] {
            let (_, _, exact) = figure7_exact(p);
            let (_, _, approx) = figure7_approx(p);
            let err = approx - exact;
            assert!(
                (err - p.powi(3) * (1.0 - p)).abs() < 1e-12,
                "p={p}: err {err}"
            );
        }
    }

    #[test]
    fn algorithm2_matches_its_closed_form_on_n3() {
        for p in [0.1, 0.4, 0.7] {
            let sol = b_matching::solve(3, p, 1, &[0, 1, 2]);
            let (a12, a13, a23) = figure7_approx(p);
            assert!((sol.choice_row(0, 1).unwrap()[1] - a12).abs() < 1e-12);
            assert!((sol.choice_row(0, 1).unwrap()[2] - a13).abs() < 1e-12);
            assert!((sol.choice_row(1, 1).unwrap()[2] - a23).abs() < 1e-12);
        }
    }

    #[test]
    fn exact_rows_are_subprobabilities() {
        let d = exact_distribution(5, 0.4, 1);
        for i in 0..5 {
            let mass: f64 = d[i].iter().sum();
            assert!((0.0..=1.0 + 1e-12).contains(&mass), "row {i} mass {mass}");
            assert_eq!(d[i][i], 0.0);
            for j in 0..5 {
                assert!((d[i][j] - d[j][i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn approximation_close_to_exact_for_small_p() {
        // §5.1.2: the independence assumption is good when p is small.
        let n = 6;
        let p = 0.05;
        let exact = exact_distribution(n, p, 1);
        let peers: Vec<usize> = (0..n).collect();
        let approx = b_matching::solve(n, p, 1, &peers);
        for i in 0..n {
            for j in 0..n {
                let err = (exact[i][j] - approx.choice_row(i, 1).unwrap()[j]).abs();
                assert!(err < 5e-4, "D({i},{j}) error {err}");
            }
        }
    }

    #[test]
    fn exact_bmatching_complete_limit() {
        // p = 1: constant 2-matching on K4 gives the clusters {0,1,2} plus
        // peer 3 matched to... on K4 with b0 = 2 the stable config is
        // 0-1, 0-2, 1-2, and then 3 left with 0 capacity around: check mass.
        let d = exact_distribution(4, 1.0, 2);
        assert!((d[0][1] - 1.0).abs() < 1e-12);
        assert!((d[0][2] - 1.0).abs() < 1e-12);
        assert!((d[1][2] - 1.0).abs() < 1e-12);
        // Peer 3's mass: everyone better is saturated.
        let mass3: f64 = d[3].iter().sum();
        assert!(
            mass3.abs() < 1e-12,
            "peer 3 should be isolated, mass {mass3}"
        );
    }

    #[test]
    #[should_panic(expected = "n <= 8")]
    fn oversized_enumeration_panics() {
        let _ = exact_distribution(9, 0.5, 1);
    }
}
