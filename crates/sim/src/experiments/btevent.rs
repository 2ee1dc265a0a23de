//! BTEVENT (extension experiment): the continuous-time event engine
//! validated against the multi-class fluid model.
//!
//! The round engine forces every peer onto one synchronous clock, which
//! makes genuine bandwidth heterogeneity untestable: a 2x-faster peer
//! still rechokes, transfers and completes on the same 10 s grid. The
//! event core (`strat_bittorrent::events`) lifts that restriction —
//! rechoke ticks, piece crossings, tracker announces and session churn
//! are timestamped events, and per-class speed multipliers scale both a
//! peer's upload shares and (through TFT reciprocation) its download
//! rate.
//!
//! Xu's heterogeneous extension of the Qiu–Srikant dynamics
//! ([`strat_analytic::fluid::BtMultiClassParams`]) predicts the regime
//! quantitatively: with per-class arrival rates `λ_i`, service rates
//! `μ_i` and a shared promoted-seed pool, the steady-state download
//! times `T_i = x̄_i/λ_i` fall with class speed, and the whole profile
//! follows one scalar fixed point `Σ λ_i/(η μ_i X + S) = 1`.
//!
//! This kernel sweeps the **heterogeneity spread** `s`: three speed
//! classes with multipliers `[1/s, 1, s]`, equal Poisson arrival flux
//! per class (round-robin assignment), run to stationarity on the event
//! clock. Measured per-class mean download times must (a) reproduce the
//! fluid `T_i` within a documented tolerance and (b) be strictly ordered
//! by class speed whenever `s > 1`.
//!
//! **Tolerance.** The fluid model assumes perfect proportional sharing.
//! The simulator attenuates the predicted stratification in two honest
//! ways: the optimistic-unchoke slot donates a quarter of every class's
//! capacity to a common pool (lifting the slow class above its
//! prediction), and fast peers outrun the swarm's piece availability
//! (capping them below theirs). Both effects pull the extreme classes
//! *toward the middle, never past it*. The documented acceptance bands:
//! at moderate spread (`s <= 1.5`) every class within 35 % of its fluid
//! `T_i`; at strong spread the middle class stays in that band while
//! each extreme class must land between its own and the middle class's
//! predictions.

use strat_analytic::fluid::BtMultiClassParams;
use strat_scenario::{
    ArrivalProcess, CapacityModel, DepartureRules, EventTiming, Scenario, ScenarioError,
    SessionConfig, SwarmParams, TopologyModel,
};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// The sweep cells: heterogeneity spread `s` (class multipliers
/// `[1/s, 1, s]`; `s = 1` is the homogeneous control, `s = 2` the
/// strong-heterogeneity cell held to the attenuation band).
fn sweep(quick: bool) -> Vec<f64> {
    if quick {
        vec![1.5]
    } else {
        vec![1.0, 1.5, 2.0]
    }
}

/// Simulation horizon in rounds: `(warmup, measurement)`.
fn horizon(quick: bool) -> (u64, u64) {
    if quick {
        (100, 220)
    } else {
        (140, 300)
    }
}

/// Base upload capacity (kbps) of the middle class; classes scale it by
/// their multiplier.
const UPLOAD_KBPS: f64 = 400.0;
/// Permanent seeds. Exactly one per class: consecutive arena slots take
/// classes round-robin, so a 3-seed squad always covers all three
/// multipliers and the oracle's `mu_seed` is the exact class mean.
const SEEDS: usize = 3;
/// Total Poisson arrival rate (peers per round); round-robin class
/// assignment splits it evenly, `λ_i = λ/3`.
const LAMBDA: f64 = 3.0;
/// Promoted-seed departure rate per round.
const GAMMA: f64 = 0.35;
/// Speed classes per cell.
const CLASSES: usize = 3;

/// Class multipliers `[1/s, 1, s]` for spread `s`.
fn multipliers(spread: f64) -> Vec<f64> {
    vec![1.0 / spread, 1.0, spread]
}

/// The multi-class fluid parameters a spread cell maps to, given the
/// preset's file/round geometry: `μ_i = mult_i · upload_kbit_per_round /
/// file_kbit`, `η = 1`, one permanent seed per class.
fn fluid_params(scenario: &Scenario, spread: f64) -> BtMultiClassParams {
    let swarm = scenario
        .swarm
        .as_ref()
        .expect("btevent has a swarm section");
    let file_kbit = swarm.piece_count as f64 * swarm.piece_size_kbit;
    let mu_base = UPLOAD_KBPS * swarm.round_seconds / file_kbit;
    let mults = multipliers(spread);
    BtMultiClassParams {
        lambda: vec![LAMBDA / CLASSES as f64; CLASSES],
        mu: mults.iter().map(|m| mu_base * m).collect(),
        gamma: GAMMA,
        eta: 1.0,
        s0: SEEDS as f64,
        mu_seed: mu_base * mults.iter().sum::<f64>() / CLASSES as f64,
    }
}

/// One sweep cell derived from the base scenario: the timing section's
/// multipliers set to `[1/s, 1, s]` and the initial leecher pool set to
/// the cell's predicted total steady state (fast stationarity).
fn cell_scenario(base: &Scenario, spread: f64) -> Scenario {
    let params = fluid_params(base, spread);
    let steady = params.steady_state();
    let total: f64 = steady.leechers.iter().sum();
    let swarm = base.swarm.clone().expect("btevent has a swarm section");
    let timing = swarm.timing.clone().expect("btevent has a timing section");
    base.clone()
        .with_peers((total.round() as usize).max(CLASSES * 3))
        .with_swarm(SwarmParams {
            timing: Some(EventTiming {
                speed_multipliers: multipliers(spread),
                ..timing
            }),
            ..swarm
        })
}

/// The base scenario: constant 400 kbps capacities scaled per class,
/// `d = 20` overlay, a 512 × 250 kbit file (`1/μ = 32` rounds for the
/// middle class), 3 permanent seeds (one per class), Poisson arrivals of
/// empty leechers on the event clock, continuous piece crossings,
/// tracker announces every 3 rounds.
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    let spread = sweep(ctx.quick)[0];
    let base = Scenario::new("btevent", 9)
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
            swarm_seed: ctx.seed ^ 0xe7e4,
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
                session_seed: ctx.seed ^ 0xe7e4,
                peer_list_cap: None,
                compact_threshold: None,
            }),
            timing: Some(EventTiming {
                rechoke_interval: 10.0,
                transfer_quantum: None,
                announce_interval: Some(30.0),
                speed_multipliers: multipliers(spread),
            }),
            ..SwarmParams::default()
        });
    cell_scenario(&base, spread)
}

/// What one speed-spread cell measured.
struct CellRun {
    /// One row per class.
    rows: Vec<Vec<f64>>,
    /// Per-class mean download rounds (NaN for a class with no sample).
    measured: [f64; CLASSES],
    /// Per-class fluid-model download rounds.
    fluid_rounds: Vec<f64>,
    /// Whether arrivals and departures happened and every class
    /// completed a download.
    turnover: bool,
    /// Whether the event counters account for every dispatched event.
    accounting: bool,
    /// Rendered event accounting.
    note: String,
}

/// Builds and runs the event engine for one speed spread.
fn run_cell(
    scenario: &Scenario,
    spread: f64,
    warmup: u64,
    measure: u64,
) -> Result<CellRun, ScenarioError> {
    let cell = cell_scenario(scenario, spread);
    let params = fluid_params(&cell, spread);
    let fluid_rounds = params.mean_download_rounds();
    let round_seconds = cell
        .swarm
        .as_ref()
        .expect("btevent has a swarm section")
        .round_seconds;
    let mut engine = cell.build_event_engine(&mut common::rng(cell.seed, 0xe7))?;
    engine.run_for((warmup + measure) as f64 * round_seconds);

    // Per-class mean download time of peers that arrived after the
    // warmup horizon (initial peers and early arrivals see the
    // transient, not the steady state).
    let warmup_seconds = warmup as f64 * round_seconds;
    let mut sums = [0.0f64; CLASSES];
    let mut counts = [0u64; CLASSES];
    for rec in engine.completions() {
        if rec.arrival_time >= warmup_seconds / 2.0 && rec.arrival_time > 0.0 {
            sums[rec.class as usize] += rec.completion_time - rec.arrival_time;
            counts[rec.class as usize] += 1;
        }
    }
    let mults = multipliers(spread);
    let mut measured = [f64::NAN; CLASSES];
    let mut rows = Vec::with_capacity(CLASSES);
    for class in 0..CLASSES {
        if counts[class] > 0 {
            measured[class] = sums[class] / counts[class] as f64 / round_seconds;
        }
        rows.push(vec![
            spread,
            class as f64,
            mults[class],
            measured[class],
            fluid_rounds[class],
            counts[class] as f64,
        ]);
    }

    let stats = engine.stats();
    Ok(CellRun {
        rows,
        measured,
        fluid_rounds,
        turnover: counts.iter().all(|&n| n > 0) && stats.arrivals > 0 && stats.departures > 0,
        // Stale-generation timers dispatch without firing their
        // per-kind counter, so the total dominates the sum; every kind
        // must actually occur.
        accounting: stats.events
            >= stats.arrivals
                + stats.departures
                + stats.transfers
                + stats.rechokes
                + stats.announces
            && stats.transfers > 0
            && stats.rechokes > 0
            && stats.announces > 0,
        note: format!(
            "Event accounting (spread = {spread}): {} events = {} transfers + {} rechokes \
             + {} announces + {} arrivals + {} departures; {} present at the horizon",
            stats.events,
            stats.transfers,
            stats.rechokes,
            stats.announces,
            stats.arrivals,
            stats.departures,
            engine.present_count(),
        ),
    })
}

/// Runs the speed-spread sweep derived from an arbitrary base scenario
/// (which must carry `swarm.churn` and `swarm.timing`).
///
/// # Errors
///
/// [`ScenarioError::MissingSwarm`] / [`ScenarioError::MissingTiming`] if
/// the scenario lacks a swarm or timing section, or any cell's build
/// error (a missing churn section, a fault plan the event engine does
/// not run, …).
pub fn run_scenario(
    ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let swarm = scenario.swarm.as_ref().ok_or(ScenarioError::MissingSwarm)?;
    swarm.timing.as_ref().ok_or(ScenarioError::MissingTiming)?;
    let cells = sweep(ctx.quick);
    let (warmup, measure) = horizon(ctx.quick);

    let mut result = ExperimentResult::new(
        "btevent",
        "Event engine: speed-heterogeneity sweep vs the multi-class fluid model",
        format!(
            "spreads {cells:?}, {warmup}+{measure} rounds, {UPLOAD_KBPS} kbps base uploads, \
             lambda = {LAMBDA}/round over {CLASSES} classes, gamma = {GAMMA}, {SEEDS} seeds"
        ),
        vec![
            "spread".into(),
            "class".into(),
            "multiplier".into(),
            "measured_rounds".into(),
            "fluid_rounds".into(),
            "completions".into(),
        ],
    );

    // Worst relative error at moderate heterogeneity (spread <= 1.5).
    let mut max_rel_err = 0.0f64;
    // Attenuation band at strong heterogeneity (spread > 1.5): each
    // extreme class must land between its own fluid prediction and the
    // middle class's (redistribution pulls toward the middle, never
    // past it), the middle class within the moderate band.
    let mut attenuation_ok = true;
    let mut ordered = true;
    let mut turnover_ok = true;
    let mut accounting_ok = true;
    let mut counter_note = String::new();

    let runs = common::par_cells(&cells, |&spread| {
        run_cell(scenario, spread, warmup, measure)
    })?;
    for (&spread, run) in cells.iter().zip(runs) {
        for row in run.rows {
            result.push_row(row);
        }
        let (measured, fluid_rounds) = (run.measured, run.fluid_rounds);
        turnover_ok &= run.turnover;
        if spread <= 1.5 {
            for class in 0..CLASSES {
                let rel = (measured[class] - fluid_rounds[class]).abs() / fluid_rounds[class];
                max_rel_err = max_rel_err.max(rel);
            }
        } else {
            // Slow class: attenuated from above, never faster than the
            // middle class's prediction. Fast class: mirrored. 5% slack
            // on the own-class side absorbs sampling noise.
            attenuation_ok &= measured[0] <= fluid_rounds[0] * 1.05
                && measured[0] >= fluid_rounds[1] * 0.95
                && measured[2] >= fluid_rounds[2] * 0.95
                && measured[2] <= fluid_rounds[1] * 1.05;
            let rel = (measured[1] - fluid_rounds[1]).abs() / fluid_rounds[1];
            max_rel_err = max_rel_err.max(rel);
        }
        if spread > 1.0 {
            ordered &= measured[0] > measured[1] && measured[1] > measured[2];
        }
        accounting_ok &= run.accounting;
        if counter_note.is_empty() {
            counter_note = run.note;
        }
    }

    result.check(
        "per-class download times within 35% of the fluid prediction at moderate spread",
        max_rel_err <= 0.35,
        format!("worst relative error {max_rel_err:.3} (spread <= 1.5 plus the middle class)"),
    );
    result.check(
        "extreme classes attenuate toward (never past) the middle at strong spread",
        attenuation_ok,
        "measured T between the own-class and middle-class fluid predictions".to_string(),
    );
    result.check(
        "download times strictly ordered by class speed at every heterogeneous cell",
        ordered,
        "slow > mid > fast wherever spread > 1".to_string(),
    );
    result.check(
        "population turns over and every class completes downloads",
        turnover_ok,
        "checked at every cell".to_string(),
    );
    result.check(
        "event counters account for every dispatched event",
        accounting_ok,
        "events >= transfers + rechokes + announces + arrivals + departures, all kinds fire"
            .to_string(),
    );

    result.note(counter_note);
    result.note(
        "Heterogeneous-speed regime on the continuous event clock: classes [1/s, 1, s] \
         with equal arrival flux. At moderate spread the per-class mean download times \
         reproduce the multi-class fixed point sum(lambda_i / (eta mu_i X + S)) = 1 within \
         35%; at strong spread the simulator redistributes capacity toward the middle — \
         optimistic unchokes donate slow-class downloads, fast peers outrun the swarm's \
         piece availability — so the extreme classes land between their own and the \
         middle class's predictions. Stratification by bandwidth emerges from TFT on the \
         event timeline, in the direction and order Xu's heterogeneous model predicts."
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
}
