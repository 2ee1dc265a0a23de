//! BTOVERLAY (validation experiment): the tracker's peer-list cap shapes
//! the live overlay — Al-Hamra, Legout & Barakat's *Understanding the
//! Properties of the BitTorrent Overlay* (INRIA RR-6199, 2007).
//!
//! Al-Hamra et al. showed that the overlay a BitTorrent tracker grows is
//! governed by one knob: the number of peers handed back per announce.
//! Small peer lists starve arrivals of attachment points, thinning the
//! overlay (lower degree, larger diameter, weaker robustness); once the
//! cap clears the client's connection target the overlay saturates and
//! further list length changes nothing.
//!
//! This kernel sweeps the `tracker.peer_list_cap` scenario axis over an
//! open-membership swarm (Poisson arrivals, completion-linger-depart
//! churn) and measures the resulting overlay with
//! [`strat_bittorrent::overlay::snapshot`]: degree, components, BFS
//! diameter, seed reachability and stalled peers. A counting
//! [`RunObserver`] rides along and its arrival/departure/crash hooks must
//! replay the session's own counters exactly — the live-overlay metrics
//! come off the unmodified engine.
//!
//! Rows: sampled overlay trajectories per cap (`round > 0`) plus one
//! final-state summary row per cap (`round = −1`); `cap = 0` encodes the
//! uncapped (full peer list) control.

use std::sync::atomic::{AtomicU64, Ordering};

use strat_bittorrent::overlay::{self, OverlaySnapshot};
use strat_bittorrent::RunObserver;
use strat_scenario::{
    ArrivalProcess, CapacityModel, DepartureRules, Scenario, ScenarioError, SessionConfig,
    SwarmParams, TopologyModel,
};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// The peer-list caps swept (`None` = uncapped full-list control).
fn caps(quick: bool) -> Vec<Option<usize>> {
    if quick {
        vec![Some(3), Some(8), None]
    } else {
        vec![Some(3), Some(5), Some(8), Some(16), None]
    }
}

/// Simulation horizon in rounds.
fn horizon(quick: bool) -> u64 {
    if quick {
        120
    } else {
        200
    }
}

/// Upload capacity of every peer (kbps).
const UPLOAD_KBPS: f64 = 400.0;
/// Permanent seeds.
const SEEDS: usize = 2;
/// Per-peer connection target the wiring pass aims for.
const TARGET_DEGREE: usize = 8;

/// One sweep cell: the base scenario with the churn section's
/// `peer_list_cap` swapped for the cell's cap.
fn cell_scenario(base: &Scenario, cap: Option<usize>) -> Scenario {
    let swarm = base.swarm.clone().expect("btoverlay has a swarm section");
    let churn = swarm.churn.clone().expect("btoverlay has a churn section");
    base.clone().with_swarm(SwarmParams {
        churn: Some(SessionConfig {
            peer_list_cap: cap,
            compact_threshold: None,
            ..churn
        }),
        ..swarm
    })
}

/// The base scenario: an open swarm bootstrapped sparse (`d = 2`) so the
/// wiring pass — and therefore the peer-list cap — builds the overlay;
/// Poisson arrivals of empty leechers, lingering promoted seeds.
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    let base = Scenario::new("btoverlay", 40)
        .with_seed(ctx.seed)
        .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 2.0 })
        .with_capacity(CapacityModel::Constant { value: UPLOAD_KBPS })
        .with_swarm(SwarmParams {
            seeds: SEEDS,
            seed_upload_kbps: UPLOAD_KBPS,
            piece_count: 256,
            piece_size_kbit: 500.0,
            initial_completion: 0.3,
            fluid_content: false,
            seed_after_completion: true,
            swarm_seed: ctx.seed ^ 0x0b7a,
            churn: Some(SessionConfig {
                arrival: ArrivalProcess::Poisson { rate: 4.0 },
                departure: DepartureRules {
                    leave_on_completion: 0.0,
                    seed_leave_prob: 0.3,
                    seed_exodus_round: None,
                    abort_prob: 0.0,
                },
                arrival_upload_kbps: UPLOAD_KBPS,
                arrival_completion: 0.0,
                target_degree: TARGET_DEGREE,
                session_seed: ctx.seed ^ 0x0b7a,
                peer_list_cap: None,
                compact_threshold: None,
            }),
            ..SwarmParams::default()
        });
    cell_scenario(&base, caps(ctx.quick)[0])
}

/// Runs the peer-list-cap sweep on its preset.
#[must_use]
pub fn run(ctx: &ExperimentContext) -> ExperimentResult {
    run_scenario(ctx, &preset(ctx)).expect("the preset is a valid scenario")
}

/// Counts the membership hooks a session fires: all the replay check
/// reads, without buffering the run's unchoke and transfer events.
#[derive(Default)]
struct MembershipCounts {
    arrivals: AtomicU64,
    /// Departures and crashes (the session counts both as departures).
    departures: AtomicU64,
}

impl RunObserver for MembershipCounts {
    fn arrival(&self, _time: f64, _peer: usize) {
        self.arrivals.fetch_add(1, Ordering::Relaxed);
    }
    fn departure(&self, _time: f64, _peer: usize) {
        self.departures.fetch_add(1, Ordering::Relaxed);
    }
    fn crash(&self, _time: f64, _peer: usize) {
        self.departures.fetch_add(1, Ordering::Relaxed);
    }
}

/// What one cap's run measured.
struct CapRun {
    /// Sampled overlay rows, then the final-state summary row.
    rows: Vec<Vec<f64>>,
    /// The overlay at the horizon.
    last: OverlaySnapshot,
    /// Whether the observer's membership hooks replay the session
    /// counters.
    replay_ok: bool,
}

/// Builds and runs the session for one peer-list cap.
fn run_cap(scenario: &Scenario, cap: Option<usize>, rounds: u64) -> Result<CapRun, ScenarioError> {
    let sample_every = 20u64;
    let cell = cell_scenario(scenario, cap);
    let cap_col = cap.map_or(0.0, |c| c as f64);
    let row = |round: f64, snap: &OverlaySnapshot| {
        vec![
            cap_col,
            round,
            snap.present as f64,
            snap.mean_degree,
            snap.components as f64,
            snap.largest_component as f64,
            snap.diameter as f64,
            snap.seed_reachable as f64,
            snap.stalled as f64,
        ]
    };
    let mut session = cell.build_session(&mut common::rng(cell.seed, 0xee))?;
    let obs = MembershipCounts::default();

    let mut rows = Vec::new();
    for round in 0..rounds {
        session.run_rounds_with(1, &obs);
        if (round + 1).is_multiple_of(sample_every) {
            rows.push(row((round + 1) as f64, &overlay::snapshot(session.swarm())));
        }
    }
    let last = overlay::snapshot(session.swarm());
    rows.push(row(-1.0, &last));

    // The observer's membership hooks must replay the session's own
    // bookkeeping: the overlay metrics come off an unmodified engine.
    let stats = session.stats();
    Ok(CapRun {
        rows,
        last,
        replay_ok: obs.arrivals.into_inner() == stats.arrivals
            && obs.departures.into_inner() == stats.departures,
    })
}

/// Runs the cap sweep derived from an arbitrary base scenario (which
/// must carry `swarm.churn`).
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
    let sweep = caps(ctx.quick);
    let rounds = horizon(ctx.quick);

    let mut result = ExperimentResult::new(
        "btoverlay",
        "Peer-list cap shapes the live overlay (Al-Hamra et al.)",
        format!(
            "caps {sweep:?}, target degree {TARGET_DEGREE}, {rounds} rounds, \
             Poisson(4) arrivals, sparse d = 2 bootstrap"
        ),
        vec![
            "cap".into(),   // 0 = uncapped control
            "round".into(), // -1 marks the cap's final-state summary row
            "present".into(),
            "mean_degree".into(),
            "components".into(),
            "largest_component".into(),
            "diameter".into(),
            "seed_reachable".into(),
            "stalled".into(),
        ],
    );

    let runs = common::par_cells(&sweep, |&cap| run_cap(scenario, cap, rounds))?;

    let mut degrees: Vec<f64> = Vec::new();
    let mut diameters: Vec<f64> = Vec::new();
    let mut connectivity_ok = true;
    let mut replay_ok = true;
    for run in runs {
        for row in run.rows {
            result.push_row(row);
        }
        let snap = run.last;
        degrees.push(snap.mean_degree);
        diameters.push(snap.diameter as f64);
        connectivity_ok &= snap.largest_component as f64 >= 0.9 * snap.present as f64;
        replay_ok &= run.replay_ok;
    }

    // The sweep lists caps in increasing tightness order ending with the
    // uncapped control, so `degrees`/`diameters` are ordered by cap.
    let last = sweep.len() - 1;
    result.check(
        "mean overlay degree grows monotonically with the peer-list cap",
        degrees.windows(2).all(|w| w[1] >= w[0] - 0.3),
        format!("final mean degrees {degrees:?}"),
    );
    result.check(
        "the tightest cap thins the overlay well below the uncapped control",
        degrees[0] + 1.0 <= degrees[last],
        format!(
            "mean degree {:.2} capped at {:?} vs {:.2} uncapped",
            degrees[0], sweep[0], degrees[last]
        ),
    );
    result.check(
        "the tightest cap stretches the overlay diameter (Al-Hamra's effect)",
        diameters[0] >= diameters[last],
        format!("final diameters {diameters:?}"),
    );
    result.check(
        "the swarm stays effectively connected at every cap (largest component >= 90%)",
        connectivity_ok,
        "checked at every cap".to_string(),
    );
    result.check(
        "observer arrival/departure streams replay the session counters exactly",
        replay_ok,
        "checked at every cap".to_string(),
    );

    result.note(
        "Al-Hamra et al.'s peer-list-cap effect, on the session engine: starving \
         announces of candidates (cap below the connection target) thins the \
         overlay and stretches its diameter, while caps at or above the target \
         reproduce the uncapped overlay. Measured through the RunObserver tap \
         and the overlay module on unmodified engine state."
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
