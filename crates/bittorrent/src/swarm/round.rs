//! The indexed-stream round: the [`Swarm::run_rounds_parallel`] drivers,
//! their persistent buffers, and the two parallel passes (rechoke and
//! flows over senders, then delivery over recipients).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use strat_par::split_lengths;

use super::kernels::{land_pieces, RechokeView};
use super::{Scratch, Swarm};
use crate::avail::{AvailIndex, AvailShard};
use crate::observer::{NullObserver, RunObserver};
use crate::piece::{PieceArena, PieceChunk};
use crate::streams;

/// Working state of the parallel round driver — the scatter-write flow
/// mailbox, the start-of-round piece/availability snapshots, per-worker
/// scratches, availability shards and completion counters. Persisted on
/// the [`Swarm`] (like [`Scratch`]) so repeated
/// [`Swarm::run_rounds_parallel`] calls — the sampling pattern of the
/// flash-crowd and session kernels — allocate nothing in the steady
/// state.
///
/// `flow` is one edge-arena-aligned slot per edge, holding an `f64` as
/// bits with the sign carrying the TFT flag (`+share` = TFT flow,
/// `-share` = optimistic, `0` = no flow; shares are strictly positive).
/// Pass 1 *scatters* each sender's share into the reverse-edge slot —
/// every slot has exactly one writing owner, so relaxed stores suffice
/// and the scope join publishes them — and pass 2 then reads each
/// recipient's incoming flows **contiguously** and zeroes the slot,
/// replacing the previous gather of `flow[rev[e]]` (two random reads
/// into multi-megabyte arrays per edge, the dominant cost of the
/// delivery pass at n = 10⁵⁺). Invariant: outside a running parallel
/// round every slot is zero — pass 2 zeroes all it reads, slack slots
/// are never written, and the membership primitives only ever move
/// zeroed slots — so no per-round reset sweep is needed.
#[derive(Debug, Default)]
pub(super) struct ParBuffers {
    flow: Vec<AtomicU64>,
    pieces_prev: PieceArena,
    avail_prev: AvailIndex,
    scratches: Vec<Scratch>,
    shards: Vec<AvailShard>,
    completions: Vec<usize>,
    lost: Vec<u64>,
}

/// Scratch state: cloning a [`Swarm`] starts the copy with fresh buffers
/// (rebuilt on first parallel round; the all-zero `flow` invariant holds
/// vacuously).
impl Clone for ParBuffers {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl Swarm {
    /// Runs `rounds` rounds under the **indexed-stream** semantics across
    /// up to `threads` worker threads.
    ///
    /// Per-peer randomness derives from `(seed, round, peer index)` and
    /// every phase writes only peer-owned state, so the outcome is
    /// **bit-identical for any thread count** (including 1) — the
    /// workspace `strat-par` determinism contract. The semantics differ
    /// from [`Swarm::round`] only in the randomness source and in reading
    /// piece/availability state from the start-of-round snapshot (see
    /// [`reference::RefSwarm::round_indexed`](crate::reference::RefSwarm::round_indexed),
    /// the serial oracle this method is differentially tested against).
    ///
    /// Round structure: a parallel rechoke-and-flows pass over senders
    /// (which also refreshes the per-peer flags and piece snapshot
    /// chunk-locally and scatters flows into recipient-row mailboxes),
    /// then a parallel delivery pass over recipients draining those
    /// mailboxes contiguously, then an `O(touched pieces)` sharded
    /// availability merge in worker order.
    pub fn run_rounds_parallel(&mut self, rounds: u64, threads: usize) {
        self.run_rounds_parallel_observed(rounds, threads, &NullObserver);
    }

    /// [`run_rounds_parallel`](Self::run_rounds_parallel) with a
    /// [`RunObserver`] tap shared by all workers. Event *aggregates* are
    /// thread-invariant (see [`crate::observer`] for the ordering
    /// contract); the swarm state itself stays bit-identical for any
    /// thread count and any observer. A disabled observer dispatches to
    /// the crate's own instantiation: compiled inside an out-of-crate
    /// caller instead, the flash-crowd round spends about 10% more CPU.
    pub fn run_rounds_parallel_with<O: RunObserver>(
        &mut self,
        rounds: u64,
        threads: usize,
        obs: &O,
    ) {
        if !O::ENABLED {
            return self.run_rounds_parallel(rounds, threads);
        }
        self.run_rounds_parallel_observed(rounds, threads, obs);
    }

    /// The parallel-round body behind both entry points.
    fn run_rounds_parallel_observed<O: RunObserver>(
        &mut self,
        rounds: u64,
        threads: usize,
        obs: &O,
    ) {
        let n = self.peer_count();
        if rounds == 0 || n == 0 {
            return;
        }
        // Workers partition the live prefix only: dead slots past
        // `live_bound` have no edges, draw nothing and write nothing, so
        // skipping them changes no observable state.
        let lb = self.live_bound;
        let threads = threads.max(1);
        let fluid = self.config.fluid_content;
        let piece_count = self.config.piece_count;
        let ranges: Vec<Range<usize>> = strat_par::chunk_ranges(lb as u64, threads)
            .into_iter()
            .map(|r| r.start as usize..r.end as usize)
            .collect();
        let workers = ranges.len();
        // Persistent buffers: sized on first use, reused by every round of
        // every later call (worker-count changes only resize the per-worker
        // vectors). The flow mailbox is rebuilt whenever the edge arena
        // was re-laid-out — a fresh mailbox is all-zero, which is exactly
        // the between-rounds invariant.
        let mut par = std::mem::take(&mut self.par);
        if par.flow.len() != self.nbr.len() {
            par.flow = zeroed_mailbox(self.nbr.len());
        }
        par.shards.resize_with(workers, AvailShard::default);
        par.completions.resize(workers, 0);
        par.lost.resize(workers, 0);
        if !fluid {
            if par.pieces_prev.len() != n {
                par.pieces_prev = self.pieces.clone();
            }
            for shard in &mut par.shards {
                shard.reset(piece_count);
            }
        }
        par.scratches.resize_with(workers, Scratch::default);

        for _ in 0..rounds {
            if !fluid {
                par.avail_prev.clone_from(&self.avail);
            }
            self.par_rechoke_and_flows(
                &ranges,
                &mut par.scratches,
                (!fluid).then_some(&mut par.pieces_prev),
                &par.flow,
                obs,
            );
            self.par_delivery(
                &ranges,
                &par.flow,
                &par.pieces_prev,
                &par.avail_prev,
                &mut par.shards,
                &mut par.completions,
                &mut par.lost,
                &mut par.scratches,
                obs,
            );
            for l in &mut par.lost {
                self.lost_deliveries += *l;
                *l = 0;
            }
            if !fluid {
                for shard in &mut par.shards {
                    self.avail.merge_shard(shard);
                }
                for c in &mut par.completions {
                    self.count_completions(std::mem::take(c));
                }
            }
            if O::ENABLED {
                obs.round_end(self.round);
            }
            self.round += 1;
            // No reset sweep: slack slots and departed rows are zero in
            // both arrays (membership ops maintain that), and the next
            // round's pass 2 *stores* into every live slot of present
            // rows, so the stale receipts left in the new current array
            // are never read.
            std::mem::swap(&mut self.received_prev, &mut self.received_curr);
        }
        self.par = par;
    }

    /// Parallel pass 1: rechoke decisions plus outgoing flow computation.
    /// Every write lands in sender-owned rows (unchoke arena, upload
    /// totals, the sender's own `pieces_prev` snapshot chunk) or in the
    /// sender's uniquely-owned reverse-edge flow slots, so peers
    /// partition freely across workers. Folds the piece-snapshot copy
    /// into the workers as one block copy of each worker's arena rows
    /// (pieces are frozen for the whole pass, so the copy is exactly the
    /// start-of-round state). Fluid mode passes no snapshot.
    fn par_rechoke_and_flows<O: RunObserver>(
        &mut self,
        ranges: &[Range<usize>],
        scratches: &mut [Scratch],
        pieces_prev: Option<&mut PieceArena>,
        flow: &[AtomicU64],
        obs: &O,
    ) {
        let Swarm {
            ref config,
            ref row_off,
            ref deg,
            ref nbr,
            ref rev,
            ref upload_kbps,
            ref behavior,
            ref pieces,
            ref original_seed,
            ref present,
            ref stream_id,
            ref received_prev,
            ref mut tft_store,
            ref mut tft_len,
            ref mut optimistic,
            ref mut total_up,
            ref mut tft_up,
            round,
            ..
        } = *self;
        let view = RechokeView {
            config,
            row_off,
            deg,
            nbr,
            present,
            behavior,
            pieces,
            original_seed,
        };
        let stride = config.tft_slots;
        let rotate_optimistic = round.is_multiple_of(u64::from(config.optimistic_period));

        let peer_sizes: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
        let tft_sizes: Vec<usize> = peer_sizes.iter().map(|l| l * stride).collect();

        let tft_store_parts = split_lengths(tft_store, &tft_sizes);
        let tft_len_parts = split_lengths(tft_len, &peer_sizes);
        let opt_parts = split_lengths(optimistic, &peer_sizes);
        let up_parts = split_lengths(total_up, &peer_sizes);
        let tftup_parts = split_lengths(tft_up, &peer_sizes);
        // Fluid mode keeps no piece snapshot; hand every worker none.
        let pp_parts: Vec<Option<PieceChunk<'_>>> = match pieces_prev {
            Some(prev) => prev.chunks_mut(&peer_sizes).into_iter().map(Some).collect(),
            None => ranges.iter().map(|_| None).collect(),
        };

        std::thread::scope(|scope| {
            let mut tft_store_parts = tft_store_parts.into_iter();
            let mut tft_len_parts = tft_len_parts.into_iter();
            let mut opt_parts = opt_parts.into_iter();
            let mut up_parts = up_parts.into_iter();
            let mut tftup_parts = tftup_parts.into_iter();
            let mut pp_parts = pp_parts.into_iter();
            let mut scratch_parts = scratches.iter_mut();
            for range in ranges {
                let range = range.clone();
                let tft_store_c = tft_store_parts.next().expect("one part per range");
                let tft_len_c = tft_len_parts.next().expect("one part per range");
                let opt_c = opt_parts.next().expect("one part per range");
                let up_c = up_parts.next().expect("one part per range");
                let tftup_c = tftup_parts.next().expect("one part per range");
                let mut pp_c = pp_parts.next().expect("one part per range");
                let scratch = scratch_parts.next().expect("one scratch per range");
                run_or_spawn(scope, ranges.len() == 1, move || {
                    if let Some(pp_c) = &mut pp_c {
                        pp_c.copy_from(pieces, range.start);
                    }
                    for p in range.clone() {
                        let li = p - range.start;
                        let mut rng = streams::keyed(
                            config.seed,
                            streams::PEER_ROUND,
                            streams::round_stream(round, u64::from(stream_id[p])),
                        );
                        view.rechoke(
                            p,
                            &mut rng,
                            rotate_optimistic,
                            received_prev,
                            scratch,
                            &mut tft_store_c[li * stride..(li + 1) * stride],
                            &mut tft_len_c[li],
                            &mut opt_c[li],
                            obs,
                            round as f64,
                        );
                        if scratch.targets.is_empty() {
                            continue;
                        }
                        let eb = row_off[p];
                        let share =
                            upload_kbps[p] * config.round_seconds / scratch.targets.len() as f64;
                        for &(k, is_tft) in &scratch.targets {
                            // Scatter into the recipient's row: the
                            // reverse-edge slot has exactly one writer (this
                            // sender), so a relaxed store is race-free and
                            // the scope join publishes it to pass 2.
                            let mailbox = rev[eb + k as usize] as usize;
                            let signed = if is_tft { share } else { -share };
                            flow[mailbox].store(signed.to_bits(), Ordering::Relaxed);
                            up_c[li] += share;
                            if is_tft {
                                tftup_c[li] += share;
                            }
                        }
                    }
                });
            }
        });
    }

    /// Parallel pass 2: recipient-major delivery. Each recipient drains
    /// its incoming flows — read **contiguously** out of its own row of
    /// the flow mailbox (pass 1 scattered them there) and zeroed behind
    /// the read, restoring the all-zero invariant — in ascending
    /// neighbour-slot order, converting credit into rarest-first picks
    /// against the start-of-round piece / availability snapshot;
    /// availability increments accumulate into per-worker shards and
    /// completion counts into per-worker counters, merged serially
    /// afterwards.
    #[allow(clippy::too_many_arguments)] // one slot per worker-owned buffer
    fn par_delivery<O: RunObserver>(
        &mut self,
        ranges: &[Range<usize>],
        flow: &[AtomicU64],
        pieces_prev: &PieceArena,
        avail_prev: &AvailIndex,
        shards: &mut [AvailShard],
        completions: &mut [usize],
        lost: &mut [u64],
        scratches: &mut [Scratch],
        obs: &O,
    ) {
        let Swarm {
            ref config,
            ref row_off,
            ref deg,
            ref nbr,
            ref mut pieces,
            ref mut completed_round,
            ref mut total_down,
            ref mut tft_down,
            ref mut received_curr,
            ref mut credit,
            ref mut lost_kbit_by_peer,
            loss_prob,
            loss_seed,
            round,
            ..
        } = *self;
        let fluid = config.fluid_content;
        let piece_size = config.piece_size_kbit;

        let peer_sizes: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
        let edge_sizes: Vec<usize> = ranges
            .iter()
            .map(|r| row_off[r.end] - row_off[r.start])
            .collect();

        let pieces_parts = pieces.chunks_mut(&peer_sizes);
        let completed_parts = split_lengths(completed_round, &peer_sizes);
        let down_parts = split_lengths(total_down, &peer_sizes);
        let tftdown_parts = split_lengths(tft_down, &peer_sizes);
        let rc_parts = split_lengths(received_curr, &edge_sizes);
        let credit_parts = split_lengths(credit, &edge_sizes);
        let lostk_parts = split_lengths(lost_kbit_by_peer, &peer_sizes);

        std::thread::scope(|scope| {
            let mut pieces_parts = pieces_parts.into_iter();
            let mut completed_parts = completed_parts.into_iter();
            let mut down_parts = down_parts.into_iter();
            let mut tftdown_parts = tftdown_parts.into_iter();
            let mut rc_parts = rc_parts.into_iter();
            let mut credit_parts = credit_parts.into_iter();
            let mut lostk_parts = lostk_parts.into_iter();
            let mut shard_parts = shards.iter_mut();
            let mut comp_parts = completions.iter_mut();
            let mut lost_parts = lost.iter_mut();
            let mut scratch_parts = scratches.iter_mut();
            for range in ranges {
                let range = range.clone();
                let mut pieces_c = pieces_parts.next().expect("one part per range");
                let completed_c = completed_parts.next().expect("one part per range");
                let down_c = down_parts.next().expect("one part per range");
                let tftdown_c = tftdown_parts.next().expect("one part per range");
                let rc_c = rc_parts.next().expect("one part per range");
                let credit_c = credit_parts.next().expect("one part per range");
                let lostk_c = lostk_parts.next().expect("one part per range");
                let shard = shard_parts.next().expect("one shard per range");
                let comp = comp_parts.next().expect("one counter per range");
                let lost_n = lost_parts.next().expect("one counter per range");
                let scratch = scratch_parts.next().expect("one scratch per range");
                run_or_spawn(scope, ranges.len() == 1, move || {
                    let edge_base = row_off[range.start];
                    for q in range.clone() {
                        let li = q - range.start;
                        let eb = row_off[q];
                        let ee = eb + deg[q] as usize;
                        for e in eb..ee {
                            let bits = flow[e].load(Ordering::Relaxed);
                            if bits == 0 {
                                // Store semantics: every live slot is
                                // visited exactly once per round, so the
                                // rate window needs no serial reset sweep.
                                rc_c[e - edge_base] = 0.0;
                                continue;
                            }
                            // Restore the all-zero mailbox invariant; the
                            // sign carried the TFT flag, `abs` recovers the
                            // exact share bits pass 1 computed.
                            flow[e].store(0, Ordering::Relaxed);
                            let signed = f64::from_bits(bits);
                            let is_tft = signed > 0.0;
                            let f = signed.abs();
                            if loss_prob > 0.0
                                && crate::faults::loss_drawn(loss_seed, round, e, loss_prob)
                            {
                                // Lost in transit: the sender's pass-1
                                // capacity accounting stands, the
                                // recipient records nothing.
                                *lost_n += 1;
                                lostk_c[li] += f;
                                rc_c[e - edge_base] = 0.0;
                                if O::ENABLED {
                                    obs.transfer_lost(round as f64, nbr[e] as usize, q, f);
                                }
                                continue;
                            }
                            down_c[li] += f;
                            if is_tft {
                                tftdown_c[li] += f;
                            }
                            rc_c[e - edge_base] = f;
                            if O::ENABLED {
                                obs.transfer(round as f64, nbr[e] as usize, q, f, is_tft);
                            }
                            if fluid {
                                continue;
                            }
                            let cr = &mut credit_c[e - edge_base];
                            *cr += f;
                            if land_pieces(
                                cr,
                                piece_size,
                                piece_size,
                                &mut (avail_prev, &mut *shard),
                                pieces_c.row_mut(li),
                                pieces_prev.row(nbr[e] as usize),
                                &mut completed_c[li],
                                round + 1,
                                &mut scratch.picks,
                                obs,
                                round as f64,
                                q,
                            ) {
                                *comp += 1;
                                if O::ENABLED {
                                    obs.completed((round + 1) as f64, q);
                                }
                            }
                        }
                    }
                });
            }
        });
    }
}

/// Runs one parallel-pass job: on the calling thread when the round has a
/// single range, else on its own scoped worker. A round driven at one
/// thread (a universe session whose torrents already share the threads)
/// then spawns nothing, and fresh worker threads cost start-up time and
/// their own allocator arenas.
fn run_or_spawn<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    inline: bool,
    job: impl FnOnce() + Send + 'scope,
) {
    if inline {
        job();
    } else {
        scope.spawn(job);
    }
}

/// A flow mailbox of `len` zero slots, allocated zeroed rather than
/// filled: the pages of slots no round ever writes (row slack) stay
/// untouched and cost no resident memory. A fill loop touches them
/// unless the compiler happens to turn it into a zeroed allocation,
/// which depends on where the round is instantiated; on an open swarm's
/// arena that is about 11 MiB of peak RSS.
fn zeroed_mailbox(len: usize) -> Vec<AtomicU64> {
    let mailbox = Box::<[AtomicU64]>::new_zeroed_slice(len);
    // SAFETY: `AtomicU64` has the same size and bit validity as `u64`, so
    // all-zero bytes are an initialized `AtomicU64::new(0)`.
    unsafe { mailbox.assume_init() }.into_vec()
}
