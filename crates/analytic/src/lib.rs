//! Analytic mate-distribution solvers for global-ranking b-matching on
//! Erdős–Rényi acceptance graphs (Section 5 of *Stratification in P2P
//! Networks*).
//!
//! Four complementary routes to the mate distribution `D(i, j)`:
//!
//! | module | method | role |
//! |--------|--------|------|
//! | [`b_matching`] | Algorithms 2 and 3 (independence assumption) | one `O(b₀²·n²)` time / `O(b₀·n)` memory sweep giving the per-choice distributions `D_c(i, j)`; Algorithm 2 is `b₀ = 1` |
//! | [`one_matching`] | Algorithm 2 in the paper's dense form | `O(n²)` memory reference the sweep is tested against |
//! | [`exact`] | exhaustive graph enumeration (tiny `n`) | gold standard; quantifies the independence error (Figure 7) |
//! | [`monte_carlo`] | parallel simulation of Algorithm 1 over graph ensembles | empirical validation at real scale (Figure 9) |
//!
//! plus [`fluid`], the `n → ∞` fluid limit `M_{0,d}(β) = d·e^{−βd}`
//! (Conjecture 1) showing stratification is governed solely by the mean
//! acceptable-peer count `d` — the paper's scalability argument.
//!
//! # Example: the regimes of Figure 8
//!
//! ```
//! use strat_analytic::b_matching;
//!
//! // Independent 1-matching (Algorithm 2) is b₀-matching at b₀ = 1.
//! let n = 1000;
//! let sol = b_matching::solve(n, 0.025, 1, &[40, 500, 960]);
//!
//! // Top peers mate just below themselves; mid-rank peers see a symmetric
//! // distribution centred on their own rank; bottom peers risk staying
//! // unmatched.
//! let unmatched = |i| 1.0 - sol.choice_mass(i, 1);
//! assert!(unmatched(40) < 1e-6);
//! assert!(unmatched(960) > 0.005);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
// Index-coupled loops are the domain idiom here: the recurrence solvers iterate coupled (i, j, c) index families over triangular domains; iterator rewrites obscure the paper's algorithm statements.
#![allow(clippy::needless_range_loop)]

pub mod b_matching;
pub mod exact;
pub mod fluid;
pub mod monte_carlo;
pub mod one_matching;
