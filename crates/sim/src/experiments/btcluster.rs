//! BTCLUSTER (validation experiment): Tit-for-Tat unchokes cluster by
//! bandwidth class — Legout, Liogkas, Lian & Zhang's *Clustering and
//! Sharing Incentives in BitTorrent Systems* (SIGMETRICS 2007).
//!
//! Legout et al. instrumented live swarms with two or three upload
//! classes and found that TFT's rate-ranked unchokes sort peers into
//! same-class cliques: the fraction of regular (TFT) unchokes landing on
//! a same-class partner rises far above the class-blind expectation, and
//! the effect disappears when the choking algorithm is replaced by
//! uniformly random unchokes. That observation is the microscopic face of
//! the paper's stratification theorem (§6): rate-ranked b-matching pairs
//! peers of adjacent bandwidth rank, so coarse bandwidth classes become
//! clusters.
//!
//! This kernel sweeps the **class-speed spread** `u_fast / u_slow` over a
//! two-class fluid swarm and measures, with a [`ClusterObserver`] tap on
//! the unmodified round engine, the same-class fraction of TFT unchokes
//! against the class-blind baseline. A twin swarm per spread runs with
//! choking disabled (`tft_slots = 0`, one optimistic slot — uniformly
//! random unchokes) as the control: its same-class fraction must collapse
//! back to the baseline.
//!
//! Rows: one per spread with the choked affinity, the baseline, the
//! excess, and the random-unchoke control affinity.

use strat_bittorrent::observer::{ClusterObserver, UNTRACKED_CLASS};
use strat_scenario::{CapacityModel, Scenario, ScenarioError, SwarmParams, TopologyModel};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// The class-speed spreads `u_fast / u_slow` swept.
fn spreads(quick: bool) -> Vec<f64> {
    if quick {
        vec![2.0, 8.0]
    } else {
        vec![1.0, 2.0, 4.0, 8.0]
    }
}

/// Simulation horizon: `(warmup rounds, measured rounds)`. The warmup
/// runs unobserved (TFT partnerships need a few rechoke periods to lock
/// in); only the measured tail feeds the affinity estimate.
fn horizon(quick: bool) -> (u64, u64) {
    if quick {
        (40, 80)
    } else {
        (60, 160)
    }
}

/// Leechers per swarm (split evenly into the two classes).
fn leechers(quick: bool) -> usize {
    if quick {
        60
    } else {
        120
    }
}

/// Slow-class upload capacity (kbps); the fast class uploads
/// `spread × SLOW_KBPS`.
const SLOW_KBPS: f64 = 400.0;
/// Permanent seeds (untracked by the affinity metric).
const SEEDS: usize = 2;

/// Per-slot class labels for a swarm built from [`cell_scenario`]: slow
/// leechers are class 0, fast leechers class 1, seeds untracked.
fn class_labels(n: usize) -> Vec<u32> {
    let half = n / 2;
    let mut classes = vec![0u32; half];
    classes.extend(vec![1u32; n - half]);
    classes.extend(vec![UNTRACKED_CLASS; SEEDS]);
    classes
}

/// One sweep cell: the base scenario with explicit two-class capacities
/// (first half slow, second half `spread ×` faster).
fn cell_scenario(base: &Scenario, spread: f64) -> Scenario {
    let n = base.peers;
    let half = n / 2;
    let mut values = vec![SLOW_KBPS; half];
    values.extend(vec![SLOW_KBPS * spread; n - half]);
    base.clone()
        .with_capacity(CapacityModel::Explicit { values })
}

/// The random-unchoke twin of a cell: choking disabled, every unchoke an
/// optimistic (uniformly random) one. Same capacities, topology and
/// seeds — only the slot policy differs.
fn random_twin(cell: &Scenario) -> Scenario {
    let swarm = cell.swarm.clone().expect("btcluster has a swarm section");
    cell.clone().with_swarm(SwarmParams {
        tft_slots: 0,
        optimistic_slots: 1,
        ..swarm
    })
}

/// The base scenario: a closed two-class fluid swarm (steady-state §6
/// setting — no completions, pure rate dynamics), `d = 20` overlay,
/// standard 3 TFT + 1 optimistic slots.
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    let base = Scenario::new("btcluster", leechers(ctx.quick))
        .with_seed(ctx.seed)
        .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 20.0 })
        .with_swarm(SwarmParams {
            seeds: SEEDS,
            seed_upload_kbps: 2.0 * SLOW_KBPS,
            fluid_content: true,
            swarm_seed: ctx.seed ^ 0xc15e,
            ..SwarmParams::default()
        });
    cell_scenario(&base, spreads(ctx.quick)[0])
}

/// Runs the clustering sweep on its preset.
#[must_use]
pub fn run(ctx: &ExperimentContext) -> ExperimentResult {
    run_scenario(ctx, &preset(ctx)).expect("the preset is a valid scenario")
}

/// Runs the class-spread sweep derived from an arbitrary base scenario
/// (which must carry a swarm section).
///
/// # Errors
///
/// [`ScenarioError::MissingSwarm`] if the scenario lacks a swarm section,
/// a cell's build error, or [`ScenarioError::InvalidParameter`] when a
/// cell yields no affinity estimate (no unchokes observed).
pub fn run_scenario(
    ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    scenario.swarm.as_ref().ok_or(ScenarioError::MissingSwarm)?;
    let sweep = spreads(ctx.quick);
    let (warmup, measure) = horizon(ctx.quick);

    let mut result = ExperimentResult::new(
        "btcluster",
        "TFT unchokes cluster by bandwidth class (Legout et al.)",
        format!(
            "spreads {sweep:?}, {} leechers in 2 classes, slow {SLOW_KBPS} kbps, \
             {warmup}+{measure} rounds, random-unchoke control twin",
            scenario.peers
        ),
        vec![
            "spread".into(),
            "affinity".into(),
            "baseline".into(),
            "excess".into(),
            "random_affinity".into(),
            "random_baseline".into(),
        ],
    );

    let mut affinities: Vec<f64> = Vec::new();
    let mut baselines: Vec<f64> = Vec::new();
    let mut random_gaps: Vec<f64> = Vec::new();
    let mut control_gap = f64::NAN;

    for &spread in &sweep {
        let cell = cell_scenario(scenario, spread);
        let classes = class_labels(cell.peers);

        // Choked swarm: warm up unobserved, then measure with the tap.
        let mut swarm = cell.build_swarm(&mut common::rng(cell.seed, 0xc1))?;
        swarm.run_rounds(warmup);
        let obs = ClusterObserver::new(classes.clone());
        swarm.run_rounds_with(measure, &obs);
        let affinity = obs
            .tft_affinity()
            .ok_or_else(|| ScenarioError::InvalidParameter {
                what: "swarm",
                reason: "the swarm issued no TFT unchokes to measure".to_string(),
            })?;

        // Random-unchoke twin: same capacities, choking disabled.
        let twin = random_twin(&cell);
        let mut rand_swarm = twin.build_swarm(&mut common::rng(twin.seed, 0xc1))?;
        rand_swarm.run_rounds(warmup);
        let rand_obs = ClusterObserver::new(classes);
        rand_swarm.run_rounds_with(measure, &rand_obs);
        let random = rand_obs
            .optimistic_affinity()
            .expect("random twin issues optimistic unchokes");

        result.push_row(vec![
            spread,
            affinity.same_fraction,
            affinity.baseline,
            affinity.excess(),
            random.same_fraction,
            random.baseline,
        ]);

        affinities.push(affinity.same_fraction);
        baselines.push(affinity.baseline);
        random_gaps.push((random.same_fraction - random.baseline).abs());
        if spread == 1.0 {
            control_gap = (affinity.same_fraction - affinity.baseline).abs();
        }
    }

    let monotone = affinities.windows(2).all(|w| w[1] >= w[0] - 0.03);
    result.check(
        "same-class TFT affinity is monotone non-decreasing in the class spread",
        monotone,
        format!("affinities {affinities:?}"),
    );
    let last = affinities.len() - 1;
    result.check(
        "at the widest spread, TFT affinity clears the class-blind baseline",
        affinities[last] > baselines[last] + 0.10,
        format!(
            "affinity {:.3} vs baseline {:.3} at spread {}",
            affinities[last], baselines[last], sweep[last]
        ),
    );
    result.check(
        "random unchoking collapses the affinity to the baseline at every spread",
        random_gaps.iter().all(|&g| g <= 0.06),
        format!("|affinity - baseline| gaps {random_gaps:?}"),
    );
    if control_gap.is_finite() {
        result.check(
            "at spread 1 (identical classes) the choked affinity sits at the baseline",
            control_gap <= 0.06,
            format!("gap {control_gap:.3}"),
        );
    }

    result.note(
        "Legout et al.'s clustering effect, in vivo: rate-ranked TFT unchokes \
         concentrate on same-bandwidth-class partners as the class spread grows, \
         while the uniformly random (optimistic-only) control stays at the \
         class-blind expectation. Clustering is the coarse-grained signature of \
         the paper's stratification theorem."
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
