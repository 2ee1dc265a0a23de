//! Property-based tests for the analytic solvers.

#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use strat_analytic::{b_matching, exact, one_matching};

proptest! {
    /// Algorithm 2 rows (the sweep at b0 = 1) are symmetric
    /// subprobability vectors with zero diagonal, for arbitrary (n, p).
    #[test]
    fn algorithm2_rows_are_subprobabilities(
        n in 2usize..120,
        p in 0.0f64..=1.0,
    ) {
        let peers: Vec<usize> = (0..n).step_by((n / 6).max(1)).collect();
        let sol = b_matching::solve(n, p, 1, &peers);
        for &i in &peers {
            let row = sol.choice_row(i, 1).expect("requested");
            prop_assert!(row.iter().all(|&x| (0.0..=1.0).contains(&x)));
            prop_assert!((row.iter().sum::<f64>() - sol.choice_mass(i, 1)).abs() < 1e-9);
            prop_assert!(sol.choice_mass(i, 1) <= 1.0 + 1e-12);
            prop_assert_eq!(row[i], 0.0);
        }
    }

    /// The sweep at b0 = 1 agrees everywhere with the paper's dense
    /// Algorithm 2.
    #[test]
    fn streaming_equals_dense(n in 2usize..60, p in 0.0f64..=1.0) {
        let dense = one_matching::solve_dense(n, p);
        let peers: Vec<usize> = (0..n).collect();
        let stream = b_matching::solve(n, p, 1, &peers);
        for i in 0..n {
            let row = stream.choice_row(i, 1).expect("requested");
            for j in 0..n {
                prop_assert!((row[j] - dense[i][j]).abs() < 1e-12, "D({},{})", i, j);
            }
        }
    }

    /// Per-choice masses are decreasing in the choice index and the
    /// expected degree never exceeds b0 (widths past 3 run the sweep at a
    /// run-time width).
    #[test]
    fn choice_masses_are_monotone(
        n in 4usize..80,
        p in 0.0f64..0.5,
        b0 in 1u32..6,
    ) {
        let mid = n / 2;
        let sol = b_matching::solve(n, p, b0, &[mid]);
        let mut prev = f64::INFINITY;
        for c in 1..=b0 {
            let mass = sol.choice_mass(mid, c);
            prop_assert!(mass <= prev + 1e-12, "choice {} mass {} above previous", c, mass);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&mass));
            prev = mass;
        }
        prop_assert!(sol.expected_degree(mid) <= f64::from(b0) + 1e-9);
    }

    /// `solve_expectations` agrees with explicitly materialized rows for
    /// arbitrary weights.
    #[test]
    fn expectations_agree_with_rows(
        n in 4usize..60,
        p in 0.0f64..0.4,
        b0 in 1u32..6,
        scale in 0.1f64..100.0,
    ) {
        let weights: Vec<f64> = (0..n).map(|j| scale * (n - j) as f64).collect();
        let exp = b_matching::solve_expectations(n, p, b0, &weights);
        let peers: Vec<usize> = (0..n).collect();
        let rows = b_matching::solve(n, p, b0, &peers);
        for i in (0..n).step_by((n / 5).max(1)) {
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
            prop_assert!(
                (exp.weighted[i] - explicit).abs() < 1e-6 * explicit.abs().max(1.0),
                "peer {}: {} vs {}", i, exp.weighted[i], explicit
            );
        }
    }

    /// Exact enumeration stays close to the independence model when p is
    /// small (§5.1.2) for any tiny instance.
    #[test]
    fn independence_error_small_for_small_p(
        n in 3usize..6,
        p in 0.001f64..0.08,
    ) {
        let exact_d = exact::exact_distribution(n, p, 1);
        let peers: Vec<usize> = (0..n).collect();
        let approx = b_matching::solve(n, p, 1, &peers);
        for i in 0..n {
            for j in 0..n {
                let err = (exact_d[i][j] - approx.choice_row(i, 1).unwrap()[j]).abs();
                // Leading error term is O(p^3).
                prop_assert!(err < 10.0 * p * p * p + 1e-12, "D({},{}) err {}", i, j, err);
            }
        }
    }
}
