//! BTMULTI (extension experiment): the multi-swarm universe validated
//! against the Xu multi-class fluid oracle applied per torrent.
//!
//! The single-session experiments treat each torrent as a closed world;
//! real BitTorrent populations are shared — one peer seeds yesterday's
//! torrent while leeching today's, splitting its upload capacity across
//! both. The universe subsystem (`strat_bittorrent::universe`) models
//! exactly that: one member population over `T` swarms, `Fixed { extra }`
//! multi-torrent membership drawn from Zipf popularity weights, and a
//! capacity-split policy applied at every rechoke boundary.
//!
//! This kernel sweeps **torrent count × popularity skew**. Three
//! capacity classes `[1/s, 1, s] · b̄` are assigned to members
//! round-robin; each member joins its home torrent plus one extra drawn
//! ∝ popularity, so every replica runs at half capacity under
//! `EqualShare`. The Xu multi-class fixed point predicts each torrent's
//! per-class download times once two corrections are applied:
//!
//! * **capacity share** — member service rates scale by `1/(1+extra)`
//!   ([`BtMultiClassParams::with_capacity_share`]); the permanent
//!   publishers stay single-torrent at full rate, so `μ_seed` does not;
//! * **effective arrival rates** — torrent `t` receives its own Poisson
//!   flux `λ_t = λ·T·ŵ_t` plus the cross-join inflow
//!   `Σ_{s≠t} λ_s · ŵ_t / (1 − ŵ_s)` from members homed elsewhere
//!   (one extra draw without replacement).
//!
//! Acceptance: pooled per-class download times within 35 % of the
//! arrival-weighted oracle at every cell, per-torrent class ordering
//! (the *stratification position*) stable across every adequately
//! sampled torrent, and same-class tit-for-tat affinity positive in
//! every swarm — the paper's clustering signal survives capacity
//! splitting because a member's per-replica rate is still class-ordered.

use strat_analytic::fluid::BtMultiClassParams;
use strat_bittorrent::observer::{ClusterObserver, UNTRACKED_CLASS};
use strat_scenario::{
    ArrivalProcess, CapacityModel, DepartureRules, MembershipModel, Scenario, ScenarioError,
    SessionConfig, SwarmParams, TopologyModel, UniverseParams,
};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// The sweep cells `(torrents, popularity_skew)`: a two-torrent uniform
/// control, a wider uniform universe, and a Zipf-skewed one.
fn sweep(quick: bool) -> Vec<(usize, f64)> {
    if quick {
        vec![(2, 0.0)]
    } else {
        vec![(2, 0.0), (4, 0.0), (4, 1.2)]
    }
}

/// Simulation horizon in rounds: `(warmup, measurement)`.
fn horizon(quick: bool) -> (u64, u64) {
    if quick {
        (60, 120)
    } else {
        (80, 200)
    }
}

/// Base upload capacity (kbps) of the middle class.
const UPLOAD_KBPS: f64 = 400.0;
/// Capacity-class spread: classes `[1/s, 1, s] · b̄`. Narrower than
/// btevent's moderate 1.5: weakly assortative round-engine matching
/// pulls the extreme classes toward the population mean, and capacity
/// splitting halves every per-replica rate, so the attenuation must fit
/// inside the same 35 % fluid band.
const SPREAD: f64 = 1.35;
/// Capacity classes per cell.
const CLASSES: usize = 3;
/// Permanent publisher seeds per torrent (single-torrent, full rate).
const SEEDS: usize = 3;
/// Per-torrent base Poisson arrival rate (peers per round); the universe
/// scales it by `T · ŵ_t`, so total universe flux is `λ · T`.
const LAMBDA: f64 = 3.0;
/// Promoted-seed departure rate per round.
const GAMMA: f64 = 0.35;
/// Extra torrents every member joins beyond its home swarm. The
/// effective-rate oracle below assumes exactly one extra draw.
const EXTRA: usize = 1;
/// Per-torrent completions (per class) required before a torrent's
/// class ordering counts toward the stability metric.
const MIN_SAMPLES: u64 = 25;

/// Class capacity multipliers `[1/s, 1, s]`.
fn multipliers() -> Vec<f64> {
    vec![1.0 / SPREAD, 1.0, SPREAD]
}

/// Normalized Zipf popularity weights `ŵ_t ∝ (t+1)^−skew` — the same
/// law [`UniverseParams::popularity_weights`] uses.
fn popularity(torrents: usize, skew: f64) -> Vec<f64> {
    let w: Vec<f64> = (0..torrents)
        .map(|t| ((t + 1) as f64).powf(-skew))
        .collect();
    let total: f64 = w.iter().sum();
    w.into_iter().map(|x| x / total).collect()
}

/// Per-torrent *effective* arrival rates: own Poisson flux plus the
/// cross-join inflow from members homed on other torrents (one extra
/// draw without replacement, ∝ popularity).
fn effective_lambdas(torrents: usize, skew: f64) -> Vec<f64> {
    let what = popularity(torrents, skew);
    let own: Vec<f64> = what.iter().map(|&w| LAMBDA * torrents as f64 * w).collect();
    (0..torrents)
        .map(|t| {
            own[t]
                + (0..torrents)
                    .filter(|&s| s != t)
                    .map(|s| own[s] * what[t] / (1.0 - what[s]))
                    .sum::<f64>()
        })
        .collect()
}

/// The capacity-share-adjusted oracle for one torrent: full-rate class
/// service rates scaled by `1/(1+extra)` for members, publishers left
/// at full rate, arrivals set to the torrent's effective flux split
/// evenly over the round-robin classes.
fn fluid_for(scenario: &Scenario, lambda_eff: f64) -> BtMultiClassParams {
    let swarm = scenario
        .swarm
        .as_ref()
        .expect("btmulti has a swarm section");
    let file_kbit = swarm.piece_count as f64 * swarm.piece_size_kbit;
    let mu_base = UPLOAD_KBPS * swarm.round_seconds / file_kbit;
    let mults = multipliers();
    BtMultiClassParams {
        lambda: vec![lambda_eff / CLASSES as f64; CLASSES],
        mu: mults.iter().map(|m| mu_base * m).collect(),
        gamma: GAMMA,
        eta: 1.0,
        s0: SEEDS as f64,
        mu_seed: mu_base * mults.iter().sum::<f64>() / CLASSES as f64,
    }
    .with_capacity_share(1.0 / (1 + EXTRA) as f64)
}

/// One sweep cell derived from the base scenario: the universe section
/// retargeted to `(torrents, skew)` and the initial per-torrent leecher
/// pool set to the mean predicted steady state divided by the
/// membership factor (each initial claim spawns `extra` replicas).
fn cell_scenario(base: &Scenario, torrents: usize, skew: f64) -> Scenario {
    let swarm = base.swarm.clone().expect("btmulti has a swarm section");
    let universe = swarm
        .universe
        .clone()
        .expect("btmulti has a universe section");
    let mean_total: f64 = effective_lambdas(torrents, skew)
        .iter()
        .map(|&l| {
            fluid_for(base, l)
                .steady_state()
                .leechers
                .iter()
                .sum::<f64>()
        })
        .sum::<f64>()
        / torrents as f64;
    let peers = (mean_total / (1 + EXTRA) as f64).round() as usize;
    base.clone()
        .with_peers(peers.max(CLASSES * 3))
        .with_swarm(SwarmParams {
            universe: Some(UniverseParams {
                torrents,
                popularity_skew: skew,
                ..universe
            }),
            ..swarm
        })
}

/// The base scenario: a shared-population universe over uniformly
/// popular torrents — 128 × 250 kbit files (`1/μ = 16` rounds for a
/// half-share middle-class replica), `d = 20` overlays, 3 publisher
/// seeds per torrent at the exact class-mean rate, Poisson arrivals of
/// empty leechers, one extra membership per member, equal capacity
/// split, classes `[1/s, 1, s] · 400` kbps assigned round-robin.
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    let (torrents, skew) = sweep(ctx.quick)[0];
    let mults = multipliers();
    let seed_kbps = UPLOAD_KBPS * mults.iter().sum::<f64>() / CLASSES as f64;
    let base = Scenario::new("btmulti", 9)
        .with_seed(ctx.seed)
        .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 20.0 })
        .with_capacity(CapacityModel::Constant { value: UPLOAD_KBPS })
        .with_swarm(SwarmParams {
            seeds: SEEDS,
            seed_upload_kbps: seed_kbps,
            piece_count: 128,
            piece_size_kbit: 250.0,
            initial_completion: 0.5,
            fluid_content: false,
            seed_after_completion: true,
            swarm_seed: ctx.seed ^ 0x3b17,
            churn: Some(SessionConfig {
                arrival: ArrivalProcess::Poisson { rate: LAMBDA },
                departure: DepartureRules {
                    leave_on_completion: 0.0,
                    seed_leave_prob: GAMMA,
                    seed_exodus_round: None,
                    abort_prob: 0.0,
                },
                arrival_upload_kbps: UPLOAD_KBPS,
                arrival_completion: 0.0,
                target_degree: 20,
                session_seed: ctx.seed ^ 0x3b17,
                peer_list_cap: None,
                compact_threshold: None,
            }),
            universe: Some(UniverseParams {
                torrents: 2,
                popularity_skew: 0.0,
                membership: MembershipModel::Fixed { extra: EXTRA },
                class_upload_kbps: multipliers().iter().map(|m| UPLOAD_KBPS * m).collect(),
                universe_seed: ctx.seed ^ 0x0a11,
                ..UniverseParams::default()
            }),
            ..SwarmParams::default()
        });
    cell_scenario(&base, torrents, skew)
}

/// What one `(torrents, skew)` cell measured.
struct CellRun {
    /// One row per `(torrent, class)`.
    rows: Vec<Vec<f64>>,
    /// Per-class relative errors of the pooled download time against the
    /// arrival-weighted oracle mixture, in class order.
    rel_errs: Vec<f64>,
    /// Whether the pooled download times are ordered slow > mid > fast.
    ordered: bool,
    /// Adequately sampled torrents reproducing the class ordering.
    stable_torrents: u64,
    /// Torrents with at least `MIN_SAMPLES` completions per class.
    sampled_torrents: u64,
    /// Same-class TFT affinity excess of every torrent that has one.
    excesses: Vec<f64>,
    /// Whether cross-joins, departures and completions happened and every
    /// class completed a download.
    turnover: bool,
    /// Rendered membership accounting.
    note: String,
}

/// Builds and runs the universe for one sweep cell.
fn run_cell(
    scenario: &Scenario,
    torrents: usize,
    skew: f64,
    warmup: u64,
    measure: u64,
) -> Result<CellRun, ScenarioError> {
    let cell = cell_scenario(scenario, torrents, skew);
    let mut universe = cell.build_universe(&mut common::rng(cell.seed, 0xb71))?;

    universe.run_rounds(warmup, None);
    // Measurement window: per-torrent cluster observers whose
    // slot→class maps are re-synced from the member registry before
    // every round (arrivals land in recycled arena slots over time).
    let mut observers: Vec<ClusterObserver> = (0..torrents)
        .map(|_| ClusterObserver::with_class_count(CLASSES))
        .collect();
    for _ in 0..measure {
        for (t, obs) in observers.iter_mut().enumerate() {
            for slot in 0..universe.session(t).swarm().peer_count() {
                let class = universe
                    .member_of_slot(t, slot)
                    .map_or(UNTRACKED_CLASS, |m| universe.member_class(m));
                obs.assign_class(slot, class);
            }
        }
        universe.step(None, &observers);
    }

    // Per-(torrent, class) mean download rounds of members that
    // arrived after the transient.
    let lambda_eff = effective_lambdas(torrents, skew);
    let mut sums = vec![[0.0f64; CLASSES]; torrents];
    let mut counts = vec![[0u64; CLASSES]; torrents];
    for rec in &universe.stats().completion_records {
        if rec.arrival_round > 0 && rec.arrival_round >= warmup / 2 {
            sums[rec.torrent as usize][rec.class as usize] +=
                (rec.completed_round - rec.arrival_round) as f64;
            counts[rec.torrent as usize][rec.class as usize] += 1;
        }
    }

    // Pooled per-class comparison: completion-weighted measured mean
    // vs the arrival-weighted mixture of per-torrent oracles.
    let fluid: Vec<Vec<f64>> = lambda_eff
        .iter()
        .map(|&l| fluid_for(&cell, l).mean_download_rounds())
        .collect();
    let lambda_total: f64 = lambda_eff.iter().sum();
    let mut rel_errs = Vec::with_capacity(CLASSES);
    let mut every_class_completes = true;
    for class in 0..CLASSES {
        let total_count: u64 = (0..torrents).map(|t| counts[t][class]).sum();
        let total_sum: f64 = (0..torrents).map(|t| sums[t][class]).sum();
        if total_count == 0 {
            every_class_completes = false;
            continue;
        }
        let measured = total_sum / total_count as f64;
        let predicted: f64 = (0..torrents)
            .map(|t| lambda_eff[t] * fluid[t][class])
            .sum::<f64>()
            / lambda_total;
        rel_errs.push((measured - predicted).abs() / predicted);
    }

    // Rows, per-torrent position stability, and TFT affinity.
    let mut pooled = [f64::NAN; CLASSES];
    for class in 0..CLASSES {
        let n: u64 = (0..torrents).map(|t| counts[t][class]).sum();
        if n > 0 {
            pooled[class] = (0..torrents).map(|t| sums[t][class]).sum::<f64>() / n as f64;
        }
    }
    let mut rows = Vec::with_capacity(torrents * CLASSES);
    let mut excesses = Vec::with_capacity(torrents);
    let mut stable_torrents = 0u64;
    let mut sampled_torrents = 0u64;
    for t in 0..torrents {
        let affinity = observers[t].tft_affinity();
        let excess = affinity.map_or(f64::NAN, |a| a.excess());
        excesses.extend(affinity.map(|a| a.excess()));
        let mut per_torrent = [f64::NAN; CLASSES];
        for class in 0..CLASSES {
            if counts[t][class] > 0 {
                per_torrent[class] = sums[t][class] / counts[t][class] as f64;
            }
            rows.push(vec![
                torrents as f64,
                skew,
                t as f64,
                class as f64,
                per_torrent[class],
                fluid[t][class],
                counts[t][class] as f64,
                excess,
            ]);
        }
        if counts[t].iter().all(|&n| n >= MIN_SAMPLES) {
            sampled_torrents += 1;
            stable_torrents +=
                u64::from(per_torrent[0] > per_torrent[1] && per_torrent[1] > per_torrent[2]);
        }
    }

    let stats = universe.stats();
    Ok(CellRun {
        rows,
        rel_errs,
        ordered: pooled[0] > pooled[1] && pooled[1] > pooled[2],
        stable_torrents,
        sampled_torrents,
        excesses,
        turnover: every_class_completes
            && stats.cross_joins > 0
            && stats.member_departures > 0
            && stats.completions > 0,
        note: format!(
            "Membership accounting (T = {torrents}, skew = {skew}): {} members claimed, \
             {} cross-joins, {} member departures, {} replica departures, {} completions",
            stats.members,
            stats.cross_joins,
            stats.member_departures,
            stats.replica_departures,
            stats.completions,
        ),
    })
}

/// Runs the torrent-count × popularity-skew sweep derived from an
/// arbitrary base scenario (which must carry `swarm.churn` and
/// `swarm.universe`).
///
/// # Errors
///
/// [`ScenarioError::MissingSwarm`] / [`ScenarioError::MissingUniverse`]
/// if the scenario lacks a swarm or universe section, or any cell's
/// build error (a missing churn section, …).
pub fn run_scenario(
    ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let swarm = scenario.swarm.as_ref().ok_or(ScenarioError::MissingSwarm)?;
    swarm
        .universe
        .as_ref()
        .ok_or(ScenarioError::MissingUniverse)?;
    let cells = sweep(ctx.quick);
    let (warmup, measure) = horizon(ctx.quick);

    let mut result = ExperimentResult::new(
        "btmulti",
        "Multi-swarm universe: shared population vs the per-torrent fluid oracle",
        format!(
            "cells {cells:?}, {warmup}+{measure} rounds, classes [1/{SPREAD}, 1, {SPREAD}] x \
             {UPLOAD_KBPS} kbps, lambda = {LAMBDA}/round/torrent, gamma = {GAMMA}, \
             {SEEDS} publishers/torrent, extra = {EXTRA}, EqualShare"
        ),
        vec![
            "torrents".into(),
            "skew".into(),
            "torrent".into(),
            "class".into(),
            "measured_rounds".into(),
            "fluid_rounds".into(),
            "completions".into(),
            "tft_excess".into(),
        ],
    );

    let runs = common::par_cells(&cells, |&(torrents, skew)| {
        run_cell(scenario, torrents, skew, warmup, measure)
    })?;

    let mut max_rel_err = 0.0f64;
    let mut ordered = true;
    let mut stable_torrents = 0u64;
    let mut sampled_torrents = 0u64;
    let mut affinity_positive = 0u64;
    let mut affinity_total = 0u64;
    let mut min_excess = f64::INFINITY;
    let mut turnover_ok = true;
    let mut membership_note = String::new();
    for run in runs {
        for row in run.rows {
            result.push_row(row);
        }
        for rel_err in run.rel_errs {
            max_rel_err = max_rel_err.max(rel_err);
        }
        ordered &= run.ordered;
        stable_torrents += run.stable_torrents;
        sampled_torrents += run.sampled_torrents;
        for excess in run.excesses {
            affinity_total += 1;
            affinity_positive += u64::from(excess > 0.0);
            min_excess = min_excess.min(excess);
        }
        turnover_ok &= run.turnover;
        if membership_note.is_empty() {
            membership_note = run.note;
        }
    }

    result.check(
        "pooled per-class download times within 35% of the capacity-share-adjusted oracle",
        max_rel_err <= 0.35,
        format!("worst relative error {max_rel_err:.3} across all cells and classes"),
    );
    result.check(
        "pooled download times strictly ordered by class capacity at every cell",
        ordered,
        "slow > mid > fast on the completion-weighted means".to_string(),
    );
    result.check(
        "stratification positions stable across swarms",
        sampled_torrents > 0 && stable_torrents == sampled_torrents,
        format!(
            "{stable_torrents}/{sampled_torrents} adequately sampled torrents (>= {MIN_SAMPLES} \
             completions per class) reproduce the slow > mid > fast ordering"
        ),
    );
    result.check(
        "same-class TFT affinity positive in every swarm of every cell",
        affinity_total > 0 && affinity_positive == affinity_total,
        format!("{affinity_positive}/{affinity_total} swarms cluster (min excess {min_excess:.4})"),
    );
    result.check(
        "population turns over: cross-joins, departures and completions in every cell",
        turnover_ok,
        "every class completes downloads in every cell".to_string(),
    );

    result.note(membership_note);
    result.note(
        "Shared peer population across T torrents: every member joins one extra swarm drawn \
         from Zipf popularity, so each replica runs at half capacity under EqualShare. The \
         Xu multi-class fixed point still predicts per-torrent download times once member \
         service rates are scaled by the capacity share 1/(1+extra) and arrivals by the \
         cross-join inflow lambda_t + sum_s lambda_s w_t/(1-w_s); publishers stay \
         single-torrent at full rate. Stratification positions — the per-class download-time \
         ordering — are stable across swarms, and same-class tit-for-tat affinity stays \
         positive in every swarm: capacity splitting rescales the class ladder without \
         reshuffling it, which is the cross-swarm form of the paper's stratification claim."
            .to_string(),
    );
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes_shape_checks() {
        let ctx = ExperimentContext {
            quick: true,
            seed: 23,
        };
        let result = run_scenario(&ctx, &preset(&ctx)).unwrap();
        assert!(result.all_passed(), "failed checks: {:#?}", result.checks);
    }

    #[test]
    fn effective_lambdas_conserve_total_flux() {
        for &(torrents, skew) in &[(2usize, 0.0f64), (4, 0.0), (4, 1.2), (8, 0.7)] {
            let eff = effective_lambdas(torrents, skew);
            let total: f64 = eff.iter().sum();
            let expected = LAMBDA * torrents as f64 * (1 + EXTRA) as f64;
            assert!(
                (total - expected).abs() < 1e-9,
                "T = {torrents}, skew = {skew}: effective flux {total} != {expected}"
            );
        }
    }
}
