//! Swarm configuration.

use serde::Serialize;

/// Parameters of a BitTorrent swarm simulation.
///
/// Time is discretized into **rounds**: one round models one rechoke period
/// (10 s in the reference client — "it uploads to the contacts it has most
/// downloaded from in the last 10 seconds", §1). Bandwidths are in kbps and
/// piece sizes in kilobits, so a peer with `u` kbps uploads `10·u` kilobits
/// per round.
///
/// Build with [`SwarmConfig::builder`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SwarmConfig {
    /// Number of leechers.
    pub leechers: usize,
    /// Number of seeds (hold all pieces, never download).
    pub seeds: usize,
    /// Pieces in the shared file.
    pub piece_count: usize,
    /// Size of one piece in kilobits.
    pub piece_size_kbit: f64,
    /// Seconds per round (rechoke period).
    pub round_seconds: f64,
    /// Tit-for-Tat unchoke slots per peer (paper default: 3).
    pub tft_slots: usize,
    /// Optimistic unchoke slots (paper default: 1, the "generous" slot).
    pub optimistic_slots: usize,
    /// Rounds between optimistic-unchoke rotations (30 s / 10 s = 3).
    pub optimistic_period: u32,
    /// Expected number of overlay neighbours per peer (the tracker hands out
    /// random subsets — the paper's `d`).
    pub mean_neighbors: f64,
    /// Fraction of pieces each leecher starts with (post-flash-crowd
    /// initialization, §6: all blocks have roughly the same repartition).
    pub initial_completion: f64,
    /// Whether leechers keep seeding after completing the file.
    pub seed_after_completion: bool,
    /// **Fluid-content mode**: models the paper's §6 steady-state
    /// assumption that content availability is never the bottleneck. Every
    /// peer stays interested in every other forever; transfers accumulate
    /// rates without piece bookkeeping and nobody completes. This is the
    /// setting in which stratification and share ratios are measured.
    pub fluid_content: bool,
    /// RNG seed.
    pub seed: u64,
}

impl SwarmConfig {
    /// Starts a builder pre-loaded with the paper-aligned defaults:
    /// 3 TFT + 1 optimistic slot, 10 s rounds, 30 s optimistic rotation,
    /// `d = 20` neighbours, 40 % initial completion.
    #[must_use]
    pub fn builder() -> SwarmConfigBuilder {
        SwarmConfigBuilder::default()
    }

    /// Checks the constraints the engine relies on — the single source of
    /// truth [`SwarmConfigBuilder::build`] asserts and scenario builders
    /// surface as typed errors.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: fewer than
    /// two peers, no pieces, no unchoke slot, a non-positive piece size or
    /// round length, a zero optimistic period, a negative or non-finite
    /// mean neighbour count, or an initial completion outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        let peers = self.leechers + self.seeds;
        if peers < 2 {
            return Err(format!(
                "need at least two peers (leechers + seeds), got {peers}"
            ));
        }
        if self.piece_count == 0 {
            return Err("need at least one piece".to_string());
        }
        if self.tft_slots + self.optimistic_slots == 0 {
            return Err("need at least one TFT or optimistic slot".to_string());
        }
        for (name, value) in [
            ("piece size", self.piece_size_kbit),
            ("round length", self.round_seconds),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(format!("{name} must be positive, got {value}"));
            }
        }
        if self.optimistic_period == 0 {
            return Err("optimistic period must be at least one round".to_string());
        }
        if !(self.mean_neighbors.is_finite() && self.mean_neighbors >= 0.0) {
            return Err(format!(
                "mean neighbours must be finite and non-negative, got {}",
                self.mean_neighbors
            ));
        }
        if !(0.0..=1.0).contains(&self.initial_completion) {
            return Err(format!(
                "initial completion must be in [0, 1], got {}",
                self.initial_completion
            ));
        }
        Ok(())
    }
}

/// Builder for [`SwarmConfig`].
#[derive(Debug, Clone)]
pub struct SwarmConfigBuilder {
    config: SwarmConfig,
}

impl Default for SwarmConfigBuilder {
    fn default() -> Self {
        Self {
            config: SwarmConfig {
                leechers: 100,
                seeds: 1,
                piece_count: 256,
                piece_size_kbit: 2048.0, // 256 kB pieces
                round_seconds: 10.0,
                tft_slots: 3,
                optimistic_slots: 1,
                optimistic_period: 3,
                mean_neighbors: 20.0,
                initial_completion: 0.4,
                seed_after_completion: true,
                fluid_content: false,
                seed: 0xb17,
            },
        }
    }
}

impl SwarmConfigBuilder {
    /// Sets the number of leechers.
    pub fn leechers(&mut self, n: usize) -> &mut Self {
        self.config.leechers = n;
        self
    }

    /// Sets the number of seeds.
    pub fn seeds(&mut self, n: usize) -> &mut Self {
        self.config.seeds = n;
        self
    }

    /// Sets the number of pieces.
    pub fn piece_count(&mut self, n: usize) -> &mut Self {
        self.config.piece_count = n;
        self
    }

    /// Sets the piece size in kilobits.
    pub fn piece_size_kbit(&mut self, kbit: f64) -> &mut Self {
        self.config.piece_size_kbit = kbit;
        self
    }

    /// Sets the TFT slot count (the paper's `b₀`).
    pub fn tft_slots(&mut self, slots: usize) -> &mut Self {
        self.config.tft_slots = slots;
        self
    }

    /// Sets the optimistic slot count.
    pub fn optimistic_slots(&mut self, slots: usize) -> &mut Self {
        self.config.optimistic_slots = slots;
        self
    }

    /// Sets the optimistic rotation period in rounds.
    pub fn optimistic_period(&mut self, rounds: u32) -> &mut Self {
        self.config.optimistic_period = rounds;
        self
    }

    /// Sets the expected overlay degree (the paper's `d`).
    pub fn mean_neighbors(&mut self, d: f64) -> &mut Self {
        self.config.mean_neighbors = d;
        self
    }

    /// Sets the post-flash-crowd initial completion fraction.
    pub fn initial_completion(&mut self, fraction: f64) -> &mut Self {
        self.config.initial_completion = fraction;
        self
    }

    /// Sets whether completed leechers keep seeding.
    pub fn seed_after_completion(&mut self, keep: bool) -> &mut Self {
        self.config.seed_after_completion = keep;
        self
    }

    /// Enables fluid-content mode (steady-state exchange, no completion —
    /// the paper's §6 "content availability is not a bottleneck" setting).
    pub fn fluid_content(&mut self, fluid: bool) -> &mut Self {
        self.config.fluid_content = fluid;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.config.seed = seed;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`SwarmConfig::validate`] rejects it.
    #[must_use]
    pub fn build(&self) -> SwarmConfig {
        if let Err(reason) = self.config.validate() {
            panic!("invalid swarm configuration: {reason}");
        }
        self.config.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SwarmConfig::builder().build();
        assert_eq!(c.tft_slots, 3);
        assert_eq!(c.optimistic_slots, 1);
        assert_eq!(c.optimistic_period, 3);
        assert_eq!(c.mean_neighbors, 20.0);
    }

    #[test]
    fn builder_chains() {
        let c = SwarmConfig::builder()
            .leechers(50)
            .seeds(2)
            .piece_count(64)
            .tft_slots(4)
            .seed(7)
            .build();
        assert_eq!(c.leechers, 50);
        assert_eq!(c.seeds, 2);
        assert_eq!(c.piece_count, 64);
        assert_eq!(c.tft_slots, 4);
        assert_eq!(c.seed, 7);
    }

    #[test]
    #[should_panic(expected = "initial completion must be in [0, 1]")]
    fn completion_out_of_range_rejected() {
        let _ = SwarmConfig::builder().initial_completion(1.7).build();
    }

    #[test]
    fn round_length_and_period_are_validated_not_clamped() {
        let c = SwarmConfig {
            round_seconds: 5.0,
            ..SwarmConfig::builder().build()
        };
        assert_eq!(c.validate(), Ok(()));
        for bad in [
            SwarmConfig {
                round_seconds: -1.0,
                ..c.clone()
            },
            SwarmConfig {
                round_seconds: f64::NAN,
                ..c.clone()
            },
            SwarmConfig {
                optimistic_period: 0,
                ..c.clone()
            },
            SwarmConfig {
                mean_neighbors: -5.0,
                ..c.clone()
            },
            SwarmConfig {
                mean_neighbors: f64::INFINITY,
                ..c.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least two peers")]
    fn degenerate_rejected() {
        let _ = SwarmConfig::builder().leechers(1).seeds(0).build();
    }
}
