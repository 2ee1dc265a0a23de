//! Fluid limit of the mate distribution (§5.2, Conjecture 1).
//!
//! With `p_n = d/n` and `n → ∞`, the mate distribution of peer
//! `i_n = 1 + ⌊nα⌋` rescaled by `n` converges to an absolutely continuous
//! law `M_{α,d}`. The paper derives the `α = 0` case (the best peer):
//!
//! ```text
//! M_{0,d}(dβ) = d · e^{−βd} dβ
//! ```
//!
//! i.e. the best peer's mate sits an *exponential* rank fraction below it
//! with rate `d` — the crucial observation that makes stratification
//! **scalable**: the distribution shape depends only on the mean number of
//! acceptable peers `d`, not on the system size `n`.

/// Fluid-limit density `M_{0,d}(β) = d·e^{−βd}` of the best peer's mate at
/// scaled rank `β = j/n`.
///
/// # Examples
///
/// ```
/// let f = strat_analytic::fluid::density_best(20.0, 0.0);
/// assert_eq!(f, 20.0); // density at the top equals d
/// ```
#[must_use]
pub fn density_best(d: f64, beta: f64) -> f64 {
    if beta < 0.0 {
        return 0.0;
    }
    d * (-beta * d).exp()
}

/// Fluid-limit CDF `1 − e^{−βd}` of the best peer's mate.
#[must_use]
pub fn cdf_best(d: f64, beta: f64) -> f64 {
    if beta < 0.0 {
        return 0.0;
    }
    1.0 - (-beta * d).exp()
}

/// Empirical check of Conjecture 1 at `α = 0`: solves Algorithm 2
/// ([`b_matching::solve`](crate::b_matching::solve) at `b₀ = 1`) with
/// `p = d/n` and returns the maximum absolute error between `n·D(1, j)` and
/// `d·e^{−(j/n)·d}` over scaled ranks `β = j/n ≤ beta_max`.
///
/// # Panics
///
/// Panics if parameters are non-positive or `d >= n`.
#[must_use]
pub fn best_peer_fluid_error(n: usize, d: f64, beta_max: f64) -> f64 {
    assert!(n > 1 && d > 0.0 && beta_max > 0.0, "invalid parameters");
    assert!(d < n as f64, "d must be below n");
    let p = d / n as f64;
    let sol = crate::b_matching::solve(n, p, 1, &[0]);
    let row = sol.choice_row(0, 1).expect("row 0 requested");
    let j_max = ((beta_max * n as f64) as usize).min(n - 1);
    let mut worst = 0.0f64;
    for j in 1..=j_max {
        let beta = j as f64 / n as f64;
        let scaled = n as f64 * row[j];
        let err = (scaled - density_best(d, beta)).abs();
        worst = worst.max(err);
    }
    worst
}

/// Parameters of the BitTorrent population fluid model (Qiu–Srikant form,
/// the deterministic limit Xu's *Performance Modeling of BitTorrent P2P
/// File Sharing Networks* (arXiv 1311.1195) builds on), in **per-round**
/// units so the swarm session maps onto it directly:
///
/// * `lambda` — leecher arrivals per round;
/// * `mu` — per-peer upload service rate in *files per round*
///   (`upload_kbit_per_round / file_kbit`);
/// * `gamma` — per-round departure rate of **promoted** seeds (leechers
///   that completed and linger);
/// * `theta` — per-round mid-download abort rate;
/// * `eta` — effectiveness of leecher upload capacity (≈ 1 under
///   rarest-first with enough pieces — the Qiu–Srikant argument);
/// * `s0` — permanent original seeds (the publisher squad that never
///   leaves; its capacity is a constant term).
///
/// With leecher population `x` and promoted-seed population `y`, the
/// upload-constrained dynamics are
///
/// ```text
/// x' = λ − θx − φ,   y' = φ − γy,   φ = μ(ηx + y + s0)
/// ```
///
/// `φ` being the completion flux (total useful upload capacity, in files
/// per round). Downloads are not separately capped — the swarm engine has
/// no download limit — except for the trajectory integrator's
/// regularization `φ ≤ x` (a leecher cannot complete faster than one file
/// per round).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BtFluidParams {
    /// Arrivals per round.
    pub lambda: f64,
    /// Per-peer service rate, files per round.
    pub mu: f64,
    /// Promoted-seed departure rate per round.
    pub gamma: f64,
    /// Mid-download abort rate per round.
    pub theta: f64,
    /// Leecher upload effectiveness.
    pub eta: f64,
    /// Permanent original seeds.
    pub s0: f64,
}

/// A point of the fluid trajectory: leecher and promoted-seed masses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BtFluidState {
    /// Leecher population `x`.
    pub leechers: f64,
    /// Promoted-seed population `y` (original seeds excluded).
    pub seeds: f64,
}

impl BtFluidParams {
    fn validate(&self) {
        assert!(
            self.lambda >= 0.0
                && self.mu > 0.0
                && self.gamma > 0.0
                && self.theta >= 0.0
                && self.eta > 0.0
                && self.s0 >= 0.0,
            "fluid parameters out of range: {self:?}"
        );
    }

    /// The steady state of the upload-constrained dynamics:
    ///
    /// ```text
    /// x̄ = (λ − μ·s0·γ/(γ−μ)) / (θ + μ·η·γ/(γ−μ)),   ȳ = (λ − θ·x̄)/γ
    /// ```
    ///
    /// (for `θ = 0` this is the classic `x̄ = (λ/μ − λ/γ − s0)/η`,
    /// `ȳ = λ/γ`). Requires `γ > μ` — otherwise promoted seeds accumulate
    /// capacity faster than they leave and the swarm is not
    /// upload-constrained (no interior steady state exists in this
    /// branch).
    ///
    /// # Panics
    ///
    /// Panics when `γ ≤ μ`, on out-of-range parameters, or when the seed
    /// squad alone oversupplies the arrival flux (`x̄ ≤ 0`).
    #[must_use]
    pub fn steady_state(&self) -> BtFluidState {
        self.validate();
        assert!(
            self.gamma > self.mu,
            "steady state requires gamma > mu (got gamma = {}, mu = {})",
            self.gamma,
            self.mu
        );
        let boost = self.gamma / (self.gamma - self.mu);
        let x =
            (self.lambda - self.mu * self.s0 * boost) / (self.theta + self.mu * self.eta * boost);
        assert!(
            x > 0.0,
            "no interior steady state: seed capacity oversupplies arrivals ({self:?})"
        );
        let y = (self.lambda - self.theta * x) / self.gamma;
        BtFluidState {
            leechers: x,
            seeds: y,
        }
    }

    /// Mean rounds a peer spends downloading in steady state (Little's
    /// law over the leecher pool, `x̄ / λ`).
    ///
    /// # Panics
    ///
    /// As [`BtFluidParams::steady_state`], plus `λ > 0` is required.
    #[must_use]
    pub fn mean_download_rounds(&self) -> f64 {
        assert!(
            self.lambda > 0.0,
            "Little's law needs a positive arrival rate"
        );
        self.steady_state().leechers / self.lambda
    }

    /// Integrates the fluid ODE with classic RK4 from `(x0, y0)`,
    /// sampling every `dt` rounds until `t_end`; returns
    /// `(t, x, y)` triples including both endpoints. The completion flux
    /// is clamped to `min(μ(ηx + y + s0), x)` and populations to ≥ 0, so
    /// the integrator stays meaningful outside the upload-constrained
    /// interior.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters or a non-positive `dt`.
    #[must_use]
    pub fn trajectory(&self, x0: f64, y0: f64, t_end: f64, dt: f64) -> Vec<(f64, f64, f64)> {
        self.validate();
        assert!(dt > 0.0 && t_end >= 0.0, "need dt > 0 and t_end >= 0");
        let deriv = |x: f64, y: f64| -> (f64, f64) {
            let flux = (self.mu * (self.eta * x + y + self.s0)).min(x.max(0.0));
            (
                self.lambda - self.theta * x.max(0.0) - flux,
                flux - self.gamma * y.max(0.0),
            )
        };
        let steps = (t_end / dt).ceil() as usize;
        let mut out = Vec::with_capacity(steps + 1);
        let (mut x, mut y) = (x0.max(0.0), y0.max(0.0));
        out.push((0.0, x, y));
        for step in 1..=steps {
            let (k1x, k1y) = deriv(x, y);
            let (k2x, k2y) = deriv(x + 0.5 * dt * k1x, y + 0.5 * dt * k1y);
            let (k3x, k3y) = deriv(x + 0.5 * dt * k2x, y + 0.5 * dt * k2y);
            let (k4x, k4y) = deriv(x + dt * k3x, y + dt * k3y);
            x = (x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)).max(0.0);
            y = (y + dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)).max(0.0);
            out.push((step as f64 * dt, x, y));
        }
        out
    }
}

/// Parameters of the **multi-class** BitTorrent fluid model (Xu's
/// heterogeneous extension of the Qiu–Srikant dynamics, arXiv
/// 1311.1195): `k` bandwidth classes with arrival rates `lambda[i]` and
/// per-peer service rates `mu[i]` (files per round), a common promoted-
/// seed departure rate `gamma`, leecher upload effectiveness `eta`, and
/// a permanent publisher squad of `s0` seeds serving at `mu_seed`.
///
/// The capacity split encodes the stratification the paper predicts:
/// leecher-to-leecher upload is **reciprocated within the class** (under
/// TFT a peer downloads from other leechers at the rate it uploads,
/// `η·μ_i`), while seed capacity
///
/// ```text
/// S = μ_seed·s0 + Σ_i μ_i·ȳ_i,   ȳ_i = λ_i/γ
/// ```
///
/// is altruistic and shared equally over all `X = Σ_i x̄_i` leechers. The
/// class-`i` balance `x̄_i · (η·μ_i + S/X) = λ_i` then closes into one
/// scalar fixed point
///
/// ```text
/// Σ_i λ_i / (η·μ_i·X + S) = 1
/// ```
///
/// whose left side is strictly decreasing in `X` — solved here by
/// bisection. For `k = 1` (and `mu_seed = mu`) the solution collapses to
/// the classic `θ = 0` closed form `x̄ = (λ/μ − λ/γ − s0)/η` of
/// [`BtFluidParams::steady_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct BtMultiClassParams {
    /// Arrivals per round, one entry per class.
    pub lambda: Vec<f64>,
    /// Per-peer service rate in files per round, one entry per class.
    pub mu: Vec<f64>,
    /// Promoted-seed departure rate per round (common to all classes).
    pub gamma: f64,
    /// Leecher upload effectiveness.
    pub eta: f64,
    /// Permanent original seeds.
    pub s0: f64,
    /// Service rate of the permanent seeds, files per round.
    pub mu_seed: f64,
}

/// Steady state of the multi-class fluid model.
#[derive(Debug, Clone, PartialEq)]
pub struct BtMultiClassState {
    /// Leecher population per class (`x̄_i`).
    pub leechers: Vec<f64>,
    /// Promoted-seed population per class (`ȳ_i = λ_i/γ`).
    pub seeds: Vec<f64>,
}

impl BtMultiClassParams {
    fn validate(&self) {
        assert!(
            !self.lambda.is_empty() && self.lambda.len() == self.mu.len(),
            "need one (lambda, mu) pair per class"
        );
        assert!(
            self.lambda.iter().all(|&l| l.is_finite() && l > 0.0)
                && self.mu.iter().all(|&m| m.is_finite() && m > 0.0)
                && self.gamma > 0.0
                && self.eta > 0.0
                && self.s0 >= 0.0
                && self.mu_seed >= 0.0,
            "multi-class fluid parameters out of range: {self:?}"
        );
    }

    /// Total altruistic seed capacity `S` in files per round.
    fn seed_capacity(&self) -> f64 {
        let promoted: f64 = self
            .lambda
            .iter()
            .zip(&self.mu)
            .map(|(&l, &m)| m * l / self.gamma)
            .sum();
        self.mu_seed * self.s0 + promoted
    }

    /// The steady state: per-class leecher masses `x̄_i` from the scalar
    /// fixed point above, promoted seeds `ȳ_i = λ_i/γ`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters or when the seed capacity alone
    /// oversupplies the total arrival flux (`S ≥ Σλ_i` leaves no
    /// interior steady state, mirroring the single-class panic).
    #[must_use]
    pub fn steady_state(&self) -> BtMultiClassState {
        self.validate();
        let s = self.seed_capacity();
        let total_lambda: f64 = self.lambda.iter().sum();
        assert!(
            s < total_lambda,
            "no interior steady state: seed capacity {s} oversupplies arrivals {total_lambda}"
        );
        // f(X) = Σ λ_i/(η μ_i X + S) − 1 is strictly decreasing with
        // f(0) = Σλ/S − 1 > 0; double an upper bracket until f < 0,
        // then bisect.
        let f = |x: f64| -> f64 {
            self.lambda
                .iter()
                .zip(&self.mu)
                .map(|(&l, &m)| l / (self.eta * m * x + s))
                .sum::<f64>()
                - 1.0
        };
        let mut hi = 1.0;
        while f(hi) > 0.0 {
            hi *= 2.0;
            assert!(hi.is_finite(), "bisection bracket diverged: {self:?}");
        }
        let mut lo = 0.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if f(mid) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let x_total = 0.5 * (lo + hi);
        let leechers = self
            .lambda
            .iter()
            .zip(&self.mu)
            .map(|(&l, &m)| l / (self.eta * m + s / x_total))
            .collect();
        let seeds = self.lambda.iter().map(|&l| l / self.gamma).collect();
        BtMultiClassState { leechers, seeds }
    }

    /// Mean rounds a class-`i` peer spends downloading in steady state
    /// (Little's law per class, `x̄_i / λ_i`) — the per-class completion
    /// time oracle the `btevent` experiment sweeps against.
    ///
    /// # Panics
    ///
    /// As [`BtMultiClassParams::steady_state`].
    #[must_use]
    pub fn mean_download_rounds(&self) -> Vec<f64> {
        let state = self.steady_state();
        state
            .leechers
            .iter()
            .zip(&self.lambda)
            .map(|(&x, &l)| x / l)
            .collect()
    }

    /// The model with every **class** service rate scaled by
    /// `share ∈ (0, 1]` — the capacity-share-adjusted oracle for
    /// multi-swarm universes: a member splitting its upload across `k`
    /// concurrent torrents serves each at `share ≈ 1/k` of its rate, in
    /// the leecher phase *and* the promoted-seed phase, so the
    /// per-torrent dynamics follow the same fixed point with effective
    /// rates `share·μ_i`. The permanent publishers (`s0`, `mu_seed`)
    /// stay single-torrent in the universe and keep their full rate, and
    /// arrival/departure rates are membership counts, not bandwidth — the
    /// `btmulti` experiment threads its own effective per-torrent `λ`
    /// separately.
    ///
    /// # Panics
    ///
    /// Panics when `share` is outside `(0, 1]`.
    #[must_use]
    pub fn with_capacity_share(&self, share: f64) -> Self {
        assert!(
            share.is_finite() && share > 0.0 && share <= 1.0,
            "capacity share must lie in (0, 1], got {share}"
        );
        Self {
            mu: self.mu.iter().map(|m| m * share).collect(),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_integrates_to_one() {
        let d = 10.0;
        let steps = 200_000;
        let h = 5.0 / steps as f64; // integrate to β = 5 (mass beyond is e^{-50})
        let integral: f64 = (0..steps)
            .map(|k| density_best(d, (k as f64 + 0.5) * h) * h)
            .sum();
        assert!((integral - 1.0).abs() < 1e-6, "integral {integral}");
    }

    #[test]
    fn cdf_is_the_integral_of_density() {
        let d = 7.0;
        for beta in [0.01, 0.1, 0.5, 1.0] {
            let steps = 20_000;
            let h = beta / steps as f64;
            let integral: f64 = (0..steps)
                .map(|k| density_best(d, (k as f64 + 0.5) * h) * h)
                .sum();
            assert!((integral - cdf_best(d, beta)).abs() < 1e-6, "beta={beta}");
        }
    }

    #[test]
    fn negative_beta_has_no_mass() {
        assert_eq!(density_best(5.0, -0.1), 0.0);
        assert_eq!(cdf_best(5.0, -0.1), 0.0);
    }

    #[test]
    fn conjecture1_error_shrinks_with_n() {
        // n·D(1, βn) → d·e^{−βd}: the sup-error over β ≤ 0.5 decreases in n
        // and is already small at n = 4000.
        let d = 10.0;
        let e_small = best_peer_fluid_error(500, d, 0.5);
        let e_large = best_peer_fluid_error(4000, d, 0.5);
        assert!(e_large < e_small, "{e_large} !< {e_small}");
        assert!(e_large < 0.2 * d, "error {e_large} too large vs d = {d}");
    }

    fn bt_params() -> BtFluidParams {
        BtFluidParams {
            lambda: 4.0,
            mu: 1.0 / 16.0,
            gamma: 0.25,
            theta: 0.0,
            eta: 1.0,
            s0: 2.0,
        }
    }

    #[test]
    fn bt_steady_state_satisfies_the_balance_equations() {
        let p = bt_params();
        let s = p.steady_state();
        // x' = 0 and y' = 0 at the fixed point.
        let flux = p.mu * (p.eta * s.leechers + s.seeds + p.s0);
        assert!((p.lambda - p.theta * s.leechers - flux).abs() < 1e-10);
        assert!((flux - p.gamma * s.seeds).abs() < 1e-10);
        // The theta = 0 closed form.
        let expect = (p.lambda / p.mu - p.lambda / p.gamma - p.s0) / p.eta;
        assert!((s.leechers - expect).abs() < 1e-10);
        assert!((s.seeds - p.lambda / p.gamma).abs() < 1e-10);
        // Little's law.
        assert!((p.mean_download_rounds() - s.leechers / p.lambda).abs() < 1e-12);
    }

    #[test]
    fn bt_steady_state_with_aborts_balances() {
        let p = BtFluidParams {
            theta: 0.02,
            ..bt_params()
        };
        let s = p.steady_state();
        let flux = p.mu * (p.eta * s.leechers + s.seeds + p.s0);
        assert!((p.lambda - p.theta * s.leechers - flux).abs() < 1e-10);
        assert!((flux - p.gamma * s.seeds).abs() < 1e-10);
        // Aborts shrink the leecher pool relative to the no-abort case.
        assert!(s.leechers < bt_params().steady_state().leechers);
    }

    #[test]
    fn bt_trajectory_converges_to_the_steady_state() {
        let p = bt_params();
        let s = p.steady_state();
        // Start well away from the fixed point.
        let path = p.trajectory(2.0 * s.leechers, 0.1, 600.0, 0.25);
        let (_, x_end, y_end) = *path.last().expect("non-empty");
        assert!(
            (x_end - s.leechers).abs() < 0.01 * s.leechers,
            "x_end {x_end} vs {}",
            s.leechers
        );
        assert!(
            (y_end - s.seeds).abs() < 0.01 * s.seeds.max(1.0),
            "y_end {y_end} vs {}",
            s.seeds
        );
        // Populations never go negative along the way.
        assert!(path.iter().all(|&(_, x, y)| x >= 0.0 && y >= 0.0));
    }

    #[test]
    #[should_panic(expected = "gamma > mu")]
    fn bt_seed_accumulation_regime_rejected() {
        let p = BtFluidParams {
            gamma: 0.05,
            mu: 0.1,
            ..bt_params()
        };
        let _ = p.steady_state();
    }

    #[test]
    fn multiclass_collapses_to_single_class() {
        let p = bt_params(); // theta = 0
        let mc = BtMultiClassParams {
            lambda: vec![p.lambda],
            mu: vec![p.mu],
            gamma: p.gamma,
            eta: p.eta,
            s0: p.s0,
            mu_seed: p.mu,
        };
        let single = p.steady_state();
        let multi = mc.steady_state();
        assert!((multi.leechers[0] - single.leechers).abs() < 1e-8);
        assert!((multi.seeds[0] - single.seeds).abs() < 1e-12);
        assert!((mc.mean_download_rounds()[0] - p.mean_download_rounds()).abs() < 1e-8);
    }

    #[test]
    fn multiclass_balance_and_monotonicity() {
        let mc = BtMultiClassParams {
            lambda: vec![2.0, 2.0, 2.0],
            mu: vec![1.0 / 32.0, 1.0 / 16.0, 1.0 / 8.0],
            gamma: 0.25,
            eta: 1.0,
            s0: 2.0,
            mu_seed: 1.0 / 16.0,
        };
        let state = mc.steady_state();
        // Scalar fixed point holds.
        let x: f64 = state.leechers.iter().sum();
        let s = mc.mu_seed * mc.s0
            + mc.mu
                .iter()
                .zip(&state.seeds)
                .map(|(&m, &y)| m * y)
                .sum::<f64>();
        let resid: f64 = mc
            .lambda
            .iter()
            .zip(&mc.mu)
            .map(|(&l, &m)| l / (mc.eta * m * x + s))
            .sum::<f64>()
            - 1.0;
        assert!(resid.abs() < 1e-10, "fixed-point residual {resid}");
        // Per-class balance: x_i (η μ_i + S/X) = λ_i.
        for i in 0..3 {
            let flux = state.leechers[i] * (mc.eta * mc.mu[i] + s / x);
            assert!((flux - mc.lambda[i]).abs() < 1e-8);
        }
        // Faster classes finish faster.
        let t = mc.mean_download_rounds();
        assert!(t[0] > t[1] && t[1] > t[2], "{t:?}");
    }

    #[test]
    fn multiclass_equal_mu_split_is_invariant() {
        // Splitting one class's arrivals into two equal-mu classes must
        // not move the total population or the per-class delay.
        let whole = BtMultiClassParams {
            lambda: vec![4.0],
            mu: vec![1.0 / 16.0],
            gamma: 0.25,
            eta: 1.0,
            s0: 2.0,
            mu_seed: 1.0 / 16.0,
        };
        let split = BtMultiClassParams {
            lambda: vec![1.0, 3.0],
            mu: vec![1.0 / 16.0, 1.0 / 16.0],
            ..whole.clone()
        };
        let a = whole.steady_state();
        let b = split.steady_state();
        let xa: f64 = a.leechers.iter().sum();
        let xb: f64 = b.leechers.iter().sum();
        assert!((xa - xb).abs() < 1e-8);
        let ta = whole.mean_download_rounds()[0];
        for tb in split.mean_download_rounds() {
            assert!((ta - tb).abs() < 1e-8);
        }
    }

    #[test]
    fn capacity_share_slows_every_class_but_spares_publishers() {
        let mc = BtMultiClassParams {
            lambda: vec![2.0, 2.0, 2.0],
            mu: vec![1.0 / 32.0, 1.0 / 16.0, 1.0 / 8.0],
            gamma: 0.25,
            eta: 1.0,
            s0: 2.0,
            mu_seed: 1.0 / 16.0,
        };
        let halved = mc.with_capacity_share(0.5);
        assert_eq!(halved.mu, vec![1.0 / 64.0, 1.0 / 32.0, 1.0 / 16.0]);
        // Publishers are single-torrent in the universe: unscaled.
        assert_eq!(halved.mu_seed, mc.mu_seed);
        assert_eq!(halved.lambda, mc.lambda);
        // Share 1 is the identity.
        assert_eq!(mc.with_capacity_share(1.0), mc);
        // Splitting capacity strictly lengthens every class's download.
        let full = mc.mean_download_rounds();
        let split = halved.mean_download_rounds();
        for (f, s) in full.iter().zip(&split) {
            assert!(s > f, "full {f}, split {s}");
        }
    }

    #[test]
    #[should_panic(expected = "capacity share must lie in (0, 1]")]
    fn capacity_share_out_of_range_rejected() {
        let mc = BtMultiClassParams {
            lambda: vec![2.0],
            mu: vec![1.0 / 16.0],
            gamma: 0.25,
            eta: 1.0,
            s0: 2.0,
            mu_seed: 1.0 / 16.0,
        };
        let _ = mc.with_capacity_share(0.0);
    }

    #[test]
    #[should_panic(expected = "oversupplies arrivals")]
    fn multiclass_oversupplied_swarm_rejected() {
        let mc = BtMultiClassParams {
            lambda: vec![0.1],
            mu: vec![1.0 / 16.0],
            gamma: 0.25,
            eta: 1.0,
            s0: 100.0,
            mu_seed: 1.0,
        };
        let _ = mc.steady_state();
    }

    #[test]
    fn exact_prelimit_formula() {
        // Pre-limit: D(1, j) = p(1-p)^{j-2} in paper labels; the scaled
        // value at small β must be close to d.
        let n = 2000;
        let d = 20.0;
        let sol = crate::b_matching::solve(n, d / n as f64, 1, &[0]);
        let scaled = n as f64 * sol.choice_row(0, 1).unwrap()[1];
        assert!((scaled - d).abs() < 0.5, "scaled {scaled}");
    }
}
