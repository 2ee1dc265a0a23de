//! The serial round: one shared ChaCha stream in slot order,
//! sender-major delivery against live piece and availability state.

use super::kernels::{interested_at, land_pieces, unchoke_targets, uploads_at};
use super::{PeerId, Swarm};
use crate::observer::{NullObserver, RunObserver};

impl Swarm {
    /// Simulates one round (rechoke, then transfer) under the serial
    /// semantics — bit-identical to
    /// [`reference::RefSwarm::round`](crate::reference::RefSwarm::round).
    pub fn round(&mut self) {
        self.round_with(&NullObserver);
    }

    /// [`round`](Self::round) with a [`RunObserver`] tap. The observer is
    /// a pure `&self` tap — attaching one changes no swarm state and
    /// consumes no randomness; a disabled observer (`O::ENABLED = false`,
    /// e.g. [`NullObserver`]) compiles every hook away.
    pub fn round_with<O: RunObserver>(&mut self, obs: &O) {
        self.received_curr.fill(0.0);
        self.rechoke(obs);
        self.transfer(obs);
        if O::ENABLED {
            obs.round_end(self.round);
        }
        self.round += 1;
        std::mem::swap(&mut self.received_prev, &mut self.received_curr);
    }

    /// Runs `rounds` serial rounds.
    ///
    /// # Examples
    ///
    /// ```
    /// use strat_bittorrent::{Swarm, SwarmConfig};
    ///
    /// let config = SwarmConfig::builder()
    ///     .leechers(20)
    ///     .seeds(1)
    ///     .piece_count(32)
    ///     .piece_size_kbit(100.0)
    ///     .seed(7)
    ///     .build();
    /// let mut swarm = Swarm::new(config, &vec![500.0; 21]);
    /// swarm.run_rounds(30);
    /// assert_eq!(swarm.round_count(), 30);
    /// // Same seed, same history: the engine is deterministic.
    /// assert!(swarm.peer(0).total_downloaded() > 0.0);
    /// ```
    pub fn run_rounds(&mut self, rounds: u64) {
        self.run_rounds_with(rounds, &NullObserver);
    }

    /// [`run_rounds`](Self::run_rounds) with a [`RunObserver`] tap.
    pub fn run_rounds_with<O: RunObserver>(&mut self, rounds: u64, obs: &O) {
        for _ in 0..rounds {
            self.round_with(obs);
        }
    }

    /// The serial rechoke phase: [`Swarm::rechoke_peer`] for every live
    /// slot in slot order, drawing from the shared stream and ranking by
    /// last round's receipts.
    fn rechoke<O: RunObserver>(&mut self, obs: &O) {
        // `rechoke_peer` borrows the whole swarm, so the stream and the
        // rate row leave it for the phase.
        let mut rng = self.rng.clone();
        let received_prev = std::mem::take(&mut self.received_prev);
        let rotate_optimistic = self
            .round
            .is_multiple_of(u64::from(self.config.optimistic_period));
        let t = self.round as f64;
        for p in 0..self.live_bound {
            self.rechoke_peer(p, &mut rng, rotate_optimistic, &received_prev, t, obs);
        }
        self.received_prev = received_prev;
        self.rng = rng;
    }

    fn transfer<O: RunObserver>(&mut self, obs: &O) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let stride = self.config.tft_slots;
        let fluid = self.config.fluid_content;
        let round_seconds = self.config.round_seconds;
        for p in 0..self.live_bound {
            // Live checks, unlike the rechoke phase: pieces land during
            // this phase, so a peer that completed earlier in it may stop
            // uploading (when `seed_after_completion` is off) and a target
            // may lose interest, exactly like the reference engine.
            let (pieces, original_seed) = (&self.pieces, &self.original_seed);
            if !uploads_at(
                &self.config,
                &self.present,
                &self.behavior,
                pieces,
                original_seed,
                p,
            ) {
                continue;
            }
            let base = self.row_off[p];
            unchoke_targets(
                &self.tft_store[p * stride..][..self.tft_len[p] as usize],
                self.optimistic[p],
                &mut scratch.targets,
            );
            let nbr = &self.nbr[base..];
            scratch.targets.retain(|&(k, _)| {
                interested_at(fluid, original_seed, pieces, nbr[k as usize] as usize, p)
            });
            if scratch.targets.is_empty() {
                continue;
            }
            let share = self.upload_kbps[p] * round_seconds / scratch.targets.len() as f64;
            for &(k, is_tft) in &scratch.targets {
                self.deliver(p, base + k as usize, share, is_tft, &mut scratch.picks, obs);
            }
        }
        self.scratch = scratch;
    }

    /// Delivers `kbit` from `p` along its edge slot `e`, landing whole
    /// pieces of credit against the live availability.
    fn deliver<O: RunObserver>(
        &mut self,
        p: PeerId,
        e: usize,
        kbit: f64,
        is_tft: bool,
        picks: &mut Vec<u64>,
        obs: &O,
    ) {
        let q = self.nbr[e] as usize;
        let er = self.rev[e] as usize;
        let t = self.round as f64;
        if self.loss_prob > 0.0
            && crate::faults::loss_drawn(self.loss_seed, self.round, er, self.loss_prob)
        {
            // Lost in transit: the sender spends the capacity, the
            // recipient sees nothing (no rate signal, credit or pieces).
            self.total_up[p] += kbit;
            if is_tft {
                self.tft_up[p] += kbit;
            }
            self.lost_deliveries += 1;
            self.lost_kbit_by_peer[q] += kbit;
            if O::ENABLED {
                obs.transfer_lost(t, p, q, kbit);
            }
            return;
        }
        self.total_up[p] += kbit;
        self.total_down[q] += kbit;
        if is_tft {
            self.tft_up[p] += kbit;
            self.tft_down[q] += kbit;
        }
        self.received_curr[er] += kbit;
        if O::ENABLED {
            obs.transfer(t, p, q, kbit, is_tft);
        }
        if self.config.fluid_content {
            return; // rates only; no piece bookkeeping in fluid mode
        }
        self.credit[er] += kbit;
        let Swarm {
            ref config,
            ref mut pieces,
            ref mut completed_round,
            ref mut avail,
            ref mut credit,
            round,
            ..
        } = *self;
        let [recipient, sender] = pieces
            .get_disjoint_mut([q, p])
            .expect("an edge joins two distinct peers");
        let piece_size = config.piece_size_kbit;
        if land_pieces(
            &mut credit[er],
            piece_size,
            piece_size,
            avail,
            recipient,
            sender,
            &mut completed_round[q],
            round + 1,
            picks,
            obs,
            t,
            q,
        ) {
            self.count_completions(1);
            if O::ENABLED {
                obs.completed((round + 1) as f64, q);
            }
        }
    }
}
