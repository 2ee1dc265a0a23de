//! BTFAULT (extension experiment): graceful degradation and recovery of
//! an open swarm under injected faults.
//!
//! The fault plane (`strat_bittorrent::faults`) perturbs the session
//! regime that BTCHURN validated against the fluid oracle: peer
//! **crashes** (abrupt departures with no lifecycle cleanup), per-edge
//! **transfer loss**, tracker **outages** (announces deferred and retried
//! with exponential backoff), and overlay **partitions** that cut the
//! swarm in half for a round window and then heal. This kernel sweeps
//! crash rate × loss rate × outage length (plus a pure partition cell)
//! and reports, per cell:
//!
//! * population trajectories with overlay-degradation metrics sampled
//!   alongside (largest connected component, component count, BFS
//!   diameter, stalled peers — `strat_bittorrent::overlay`);
//! * a steady-state summary row (`round = −1`) against the
//!   **abort-augmented** fluid prediction: crashes enter the oracle as
//!   the mid-download abort rate `θ = crash`, the lingering-seed
//!   departure rate compounds to `1 − (1−γ)(1−crash)`, and transfer loss
//!   scales the service rate to `μ(1 − loss)`;
//! * for the partition cell, the **recovery time**: rounds from the heal
//!   until the largest component spans the full population again —
//!   deterministic (the repair pass draws from `(seed, round, event)`
//!   streams), which a second independent run verifies.

use strat_analytic::fluid::BtFluidParams;
use strat_bittorrent::overlay;
use strat_scenario::{
    ArrivalProcess, CapacityModel, DepartureRules, FaultPlan, FaultWindow, Scenario, ScenarioError,
    SessionConfig, SwarmParams, TopologyModel,
};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// One sweep cell: `(crash rate, loss rate, outage rounds, partition rounds)`.
type Cell = (f64, f64, u64, u64);

/// The sweep: a no-fault baseline, single-fault cells, a combined cell,
/// and a pure partition cell (the recovery measurement).
fn sweep(quick: bool) -> Vec<Cell> {
    if quick {
        vec![(0.0, 0.0, 0, 0), (0.01, 0.15, 4, 0), (0.0, 0.0, 0, 4)]
    } else {
        vec![
            (0.0, 0.0, 0, 0),
            (0.01, 0.0, 0, 0),
            (0.0, 0.15, 0, 0),
            (0.0, 0.0, 6, 0),
            (0.01, 0.15, 6, 0),
            (0.0, 0.0, 0, 6),
        ]
    }
}

/// Simulation horizon: `(warmup rounds, measurement rounds)`.
fn horizon(quick: bool) -> (u64, u64) {
    if quick {
        (80, 140)
    } else {
        (100, 200)
    }
}

/// Rounds into the measurement window at which fault windows open.
const WINDOW_OFFSET: u64 = 20;
/// Upload capacity of every peer (kbps).
const UPLOAD_KBPS: f64 = 400.0;
/// Original (permanent, crash-exempt) seeds.
const SEEDS: usize = 2;
/// Arrivals per round.
const LAMBDA: f64 = 4.0;
/// Lingering-seed departure probability per round.
const GAMMA: f64 = 0.3;

/// The abort-augmented fluid parameters of a cell: crashes are aborts
/// (`θ = crash`) for leechers and compound the seed departure rate;
/// transfer loss scales the service rate.
fn fluid_params(scenario: &Scenario, cell: Cell) -> BtFluidParams {
    let (crash, loss, _, _) = cell;
    let swarm = scenario
        .swarm
        .as_ref()
        .expect("btfault has a swarm section");
    let file_kbit = swarm.piece_count as f64 * swarm.piece_size_kbit;
    let mu = UPLOAD_KBPS * swarm.round_seconds / file_kbit;
    BtFluidParams {
        lambda: LAMBDA,
        mu: mu * (1.0 - loss),
        gamma: 1.0 - (1.0 - GAMMA) * (1.0 - crash),
        theta: crash,
        eta: 1.0,
        s0: SEEDS as f64,
    }
}

/// The cell's scenario: the base preset with its `swarm.faults` section
/// replaced by the cell's plan (windows open `WINDOW_OFFSET` rounds into
/// the measurement window).
fn cell_scenario(base: &Scenario, cell: Cell, quick: bool) -> Scenario {
    let (crash, loss, outage, partition) = cell;
    let (warmup, _) = horizon(quick);
    let start = warmup + WINDOW_OFFSET;
    let window = |rounds: u64| {
        if rounds == 0 {
            vec![]
        } else {
            vec![FaultWindow { start, rounds }]
        }
    };
    let swarm = base.swarm.clone().expect("btfault has a swarm section");
    base.clone().with_swarm(SwarmParams {
        faults: Some(FaultPlan {
            crash_prob: crash,
            loss_prob: loss,
            outages: window(outage),
            partitions: window(partition),
            fault_seed: base.seed ^ 0xfa17,
        }),
        ..swarm
    })
}

/// The base scenario: the BTCHURN regime at a smaller scale — constant
/// 400 kbps capacities, a 256 × 250 kbit file (`1/μ = 16` rounds), λ = 4
/// empty-leecher arrivals per round, γ = 0.3 lingering seeds (x̄ ≈ 49) —
/// with the combined-fault plan attached (the dumped preset exercises the
/// full `swarm.faults` schema).
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    let base = Scenario::new("btfault", 49)
        .with_seed(ctx.seed)
        .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 16.0 })
        .with_capacity(CapacityModel::Constant { value: UPLOAD_KBPS })
        .with_swarm(SwarmParams {
            seeds: SEEDS,
            seed_upload_kbps: UPLOAD_KBPS,
            piece_count: 256,
            piece_size_kbit: 250.0,
            initial_completion: 0.5,
            fluid_content: false,
            seed_after_completion: true,
            swarm_seed: ctx.seed ^ 0xfa07,
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
                target_degree: 16,
                session_seed: ctx.seed ^ 0xfa07,
                peer_list_cap: None,
                compact_threshold: None,
            }),
            ..SwarmParams::default()
        });
    let combined = if ctx.quick {
        (0.01, 0.15, 4, 0)
    } else {
        (0.01, 0.15, 6, 0)
    };
    cell_scenario(&base, combined, ctx.quick)
}

/// Runs the fault sweep on its preset.
#[must_use]
pub fn run(ctx: &ExperimentContext) -> ExperimentResult {
    run_scenario(ctx, &preset(ctx)).expect("the preset is a valid scenario")
}

/// What one cell's simulation measured: its rows and the handful of
/// scalars the sweep's checks read (never the finished session, so cells
/// that finish together do not keep whole swarms alive).
struct CellOutcome {
    /// Sampled trajectory rows, then the steady-state summary row.
    rows: Vec<Vec<f64>>,
    /// Relative error of the tail-mean leecher population against the
    /// abort-augmented fluid prediction.
    rel_err: f64,
    /// Rounds from partition heal to full connectivity; `None` without a
    /// partition (or if connectivity never returned).
    recovery: Option<u64>,
    /// Components observed in the last partition round.
    split_components: usize,
    /// Mean download rounds of steady-state completions.
    mean_download: f64,
    /// Peers crashed by the fault plane.
    crashes: u64,
    /// Deliveries dropped by transfer loss.
    lost_deliveries: u64,
    /// Announces deferred by a tracker outage, and their retry attempts.
    announces: (u64, u64),
    /// Announces still queued at the horizon.
    pending_announces: usize,
}

/// Builds and simulates one cell of the sweep derived from `base`.
#[allow(clippy::too_many_lines)]
fn simulate_cell(base: &Scenario, cell: Cell, quick: bool) -> Result<CellOutcome, ScenarioError> {
    let (crash, loss, outage, partition) = cell;
    let (warmup, measure) = horizon(quick);
    let sample_every = 10u64;
    let heal_end = warmup + WINDOW_OFFSET + partition;

    let scenario = cell_scenario(base, cell, quick);
    let fluid_leechers = fluid_params(&scenario, cell).steady_state().leechers;
    let mut session = scenario.build_session(&mut common::rng(scenario.seed, 0xfa))?;

    let mut rows = Vec::new();
    let mut tail_leechers = 0.0f64;
    let mut tail_seeds = 0.0f64;
    let mut recovery = None;
    let mut split_components = 0usize;
    for round in 0..warmup + measure {
        session.run_rounds(1);
        let pop = session.population();
        let promoted = pop.seeding.saturating_sub(SEEDS) as f64;
        if round >= warmup {
            tail_leechers += pop.downloading as f64;
            tail_seeds += promoted;
        }
        if partition > 0 && round + 1 == heal_end {
            // Last partitioned round: the overlay must actually be split.
            split_components = overlay::snapshot(session.swarm()).components;
        }
        if partition > 0 && recovery.is_none() && round + 1 >= heal_end {
            // First fully-connected round after the heal.
            if overlay::fully_connected(session.swarm()) {
                recovery = Some(round + 1 - heal_end);
            }
        }
        if (round + 1).is_multiple_of(sample_every) {
            let snap = overlay::snapshot(session.swarm());
            rows.push(vec![
                crash,
                loss,
                outage as f64,
                partition as f64,
                (round + 1) as f64,
                pop.downloading as f64,
                promoted,
                snap.largest_component as f64,
                snap.components as f64,
                snap.diameter as f64,
                snap.stalled as f64,
                fluid_leechers,
                recovery.map_or(-1.0, |r| r as f64),
            ]);
        }
    }
    let leechers = tail_leechers / measure as f64;
    rows.push(vec![
        crash,
        loss,
        outage as f64,
        partition as f64,
        -1.0,
        leechers,
        tail_seeds / measure as f64,
        0.0,
        0.0,
        0.0,
        0.0,
        fluid_leechers,
        recovery.map_or(-1.0, |r| r as f64),
    ]);

    let stats = session.stats();
    let records: Vec<f64> = stats
        .completion_records
        .iter()
        .filter(|&&(arrived, _)| arrived >= warmup / 2)
        .map(|&(arrived, completed)| (completed - arrived) as f64)
        .collect();
    let mean_download = if records.is_empty() {
        0.0
    } else {
        records.iter().sum::<f64>() / records.len() as f64
    };

    Ok(CellOutcome {
        rows,
        rel_err: (leechers - fluid_leechers).abs() / fluid_leechers,
        recovery,
        split_components,
        mean_download,
        crashes: stats.crashes,
        lost_deliveries: session.swarm().lost_deliveries(),
        announces: (stats.deferred_announces, stats.announce_retries),
        pending_announces: session.pending_announces(),
    })
}

/// Runs the crash × loss × outage sweep (plus the partition-recovery
/// cell) derived from an arbitrary base scenario, which must carry
/// `swarm.churn` (its `swarm.faults` section is replaced per cell).
///
/// # Errors
///
/// [`ScenarioError::MissingSwarm`] if the scenario lacks a swarm
/// section, or any cell's build error (a missing churn section, …).
#[allow(clippy::too_many_lines)]
pub fn run_scenario(
    ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    scenario.swarm.as_ref().ok_or(ScenarioError::MissingSwarm)?;
    let cells = sweep(ctx.quick);
    let (warmup, measure) = horizon(ctx.quick);

    let mut result = ExperimentResult::new(
        "btfault",
        "Fault plane: crash/loss/outage/partition degradation and recovery",
        format!(
            "cells (crash, loss, outage, partition) = {cells:?}, {warmup}+{measure} rounds, \
             400 kbps peers, 1/mu = 16 rounds, lambda = {LAMBDA}, gamma = {GAMMA}, \
             {SEEDS} permanent seeds"
        ),
        vec![
            "crash".into(),
            "loss".into(),
            "outage_len".into(),
            "partition_len".into(),
            "round".into(), // -1 marks the cell's steady-state summary row
            "leechers".into(),
            "seeds".into(),
            "largest_cc".into(),
            "components".into(),
            "diameter".into(),
            "stalled".into(),
            "fluid_leechers".into(),
            "recovery_rounds".into(),
        ],
    );

    // The partition cell runs twice, as independent rebuilds: the rerun
    // backs the "recovery is deterministic" check below.
    let partition_cell = *cells
        .iter()
        .find(|&&(_, _, _, partition)| partition > 0)
        .expect("sweep has a partition cell");
    let items: Vec<Cell> = cells.iter().copied().chain([partition_cell]).collect();
    let mut outcomes = common::par_cells(&items, |&cell| simulate_cell(scenario, cell, ctx.quick))?;
    let rerun = outcomes.pop().expect("the rerun item");

    let mut max_rel_err = 0.0f64;
    let mut baseline_download = 0.0f64;
    let mut lossy_download = 0.0f64;
    let mut crash_seen = false;
    let mut loss_seen = false;
    let mut outage_ok = true;
    let mut outage_present = false;
    let mut partition_run: Option<CellOutcome> = None;

    for (&cell, mut outcome) in cells.iter().zip(outcomes) {
        let (crash, loss, outage, partition) = cell;
        for row in std::mem::take(&mut outcome.rows) {
            result.push_row(row);
        }

        max_rel_err = max_rel_err.max(outcome.rel_err);
        if crash > 0.0 {
            crash_seen |= outcome.crashes > 0;
        }
        if loss > 0.0 {
            loss_seen |= outcome.lost_deliveries > 0;
            if lossy_download == 0.0 {
                lossy_download = outcome.mean_download;
            }
        }
        if cell == (0.0, 0.0, 0, 0) {
            baseline_download = outcome.mean_download;
            // The baseline cell must be genuinely fault-free.
            assert_eq!(outcome.crashes, 0, "baseline crashed");
            assert_eq!(outcome.lost_deliveries, 0, "baseline lost");
        }
        if outage > 0 {
            let (deferred, retries) = outcome.announces;
            outage_present = true;
            outage_ok &= deferred > 0 && retries >= deferred && outcome.pending_announces == 0;
        }
        if partition > 0 {
            partition_run = Some(outcome);
        }
    }

    // Looser than BTCHURN's 10%: the fault-scale swarm downloads in
    // 1/mu = 16 rounds (vs 32 there), so the geometric-vs-exponential
    // holding-time discretization error is proportionally larger, and the
    // faulted cells add crash/loss interaction terms the mean-field
    // closed forms ignore.
    result.check(
        "steady-state leecher populations within 25% of the abort-augmented fluid oracle",
        max_rel_err <= 0.25,
        format!("worst relative error {max_rel_err:.3}"),
    );
    result.check(
        "fault injection bites: crash cells crash, loss cells drop deliveries",
        crash_seen && loss_seen,
        format!("crash_seen {crash_seen}, loss_seen {loss_seen}"),
    );
    result.check(
        "tracker outage defers announces and retry-backoff admits every one (queue drains)",
        outage_present && outage_ok,
        "deferred > 0, retries >= deferred, pending == 0 at horizon".to_string(),
    );
    result.check(
        "transfer loss lengthens downloads relative to the no-fault baseline",
        baseline_download > 0.0 && lossy_download > baseline_download,
        format!("baseline {baseline_download:.1} rounds, lossy {lossy_download:.1} rounds"),
    );

    let partition_run = partition_run.expect("sweep has a partition cell");
    let recovery = partition_run.recovery;
    result.check(
        "partition splits the overlay and the heal restores full connectivity",
        partition_run.split_components >= 2 && recovery.is_some(),
        format!(
            "components during window {}, recovery {recovery:?}",
            partition_run.split_components
        ),
    );
    let bound = 30u64;
    result.check(
        "largest component returns to the full population within 30 rounds of the heal",
        recovery.is_some_and(|r| r <= bound),
        format!("recovery_rounds {recovery:?} (bound {bound})"),
    );
    // Recovery is a *deterministic* number: an independent rebuild of the
    // same cell must measure it exactly.
    result.check(
        "partition recovery time is deterministic across independent runs",
        rerun.recovery == recovery,
        format!("first {recovery:?}, rerun {:?}", rerun.recovery),
    );

    result.note(format!(
        "Partition-heal recovery: the overlay splits into {} components while the \
         partition window is open (repair is half-restricted and the tracker's candidate \
         list is half-usable, so survivors run under-degree), then re-bridges to one \
         component {} rounds after the heal — a deterministic figure reproduced exactly \
         by an independent run.",
        partition_run.split_components,
        recovery.map_or(-1, |r| r as i64),
    ));
    result.note(
        "Fluid-oracle mapping for faulted cells: crashes are mid-download aborts \
         (theta = crash) that also compound the lingering-seed departure rate to \
         1 - (1-gamma)(1-crash); transfer loss scales the service rate to mu(1-loss). \
         The measured stationary populations track these abort-augmented closed forms, \
         so the fault plane degrades the swarm the way the population model predicts \
         rather than destabilizing it."
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

    #[test]
    fn preset_carries_a_live_fault_plan() {
        let ctx = ExperimentContext {
            quick: false,
            seed: 7,
        };
        let scenario = preset(&ctx);
        let faults = scenario.swarm.as_ref().unwrap().faults.as_ref().unwrap();
        assert!(!faults.is_inert());
        assert!(faults.validate().is_ok());
        // And it round-trips through JSON (the dumped preset is loadable).
        let parsed = Scenario::from_json(&scenario.to_json()).unwrap();
        assert_eq!(parsed, scenario);
    }
}
