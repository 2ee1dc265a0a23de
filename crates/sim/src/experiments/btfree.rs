//! BTFREE (extension experiment): a free-rider-share sweep over the
//! swarm's [`BehaviorMix`].
//!
//! Legout et al.'s *Clustering and Sharing Incentives in BitTorrent
//! Systems* (arXiv cs/0703107) studies how Tit-for-Tat's incentive
//! structure punishes non-contributors. This kernel sweeps the fraction of
//! free-riding leechers from 0 % to 50 % in a fluid-content swarm and
//! measures what each population earns: free riders live exclusively off
//! the optimistic ("generous") slots, so their download stays well below
//! the compliant population's at every level, while total swarm throughput
//! shrinks with the withdrawn capacity.

use strat_scenario::{
    BehaviorMix, CapacityModel, Scenario, ScenarioError, SwarmParams, TopologyModel,
};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// Free-rider fractions swept, in percent of the leecher population.
const LEVELS: [usize; 6] = [0, 10, 20, 30, 40, 50];

/// The sweep's base scenario: a fluid-content swarm with Figure 10
/// bandwidths in shuffled order and an all-compliant baseline mix (the
/// kernel derives the sweep levels from it).
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    let leechers = if ctx.quick { 150 } else { 600 };
    Scenario::new("btfree", leechers)
        .with_seed(ctx.seed)
        .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 20.0 })
        .with_capacity(CapacityModel::SaroiuShuffled {
            shuffle_seed: ctx.seed ^ 0xf4ee,
        })
        .with_swarm(SwarmParams {
            seeds: 2,
            seed_upload_kbps: 1000.0,
            fluid_content: true,
            swarm_seed: ctx.seed ^ 0xf4ee,
            behavior: BehaviorMix::compliant(),
            ..SwarmParams::default()
        })
}

/// Runs the free-rider sweep derived from an arbitrary base scenario: each
/// level rebuilds the scenario with `free_riders = level % · leechers`
/// (riders occupy the top leecher indices — bandwidth-representative under
/// shuffled capacities).
///
/// # Errors
///
/// [`ScenarioError::MissingSwarm`] if the scenario lacks a swarm section,
/// or a level's build error.
pub fn run_scenario(
    ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let leechers = scenario.peers;
    let rounds = if ctx.quick { 60u64 } else { 150 };
    let base_params = scenario.swarm.clone().ok_or(ScenarioError::MissingSwarm)?;

    let mut result = ExperimentResult::new(
        "btfree",
        "Free-rider share sweep: TFT punishes non-contributors",
        format!(
            "{leechers} leechers + {} seeds, fluid content, {rounds} rounds, riders at {LEVELS:?} %",
            base_params.seeds
        ),
        vec![
            "free_rider_pct".into(),
            "riders".into(),
            "compliant_mean_down".into(),
            "rider_mean_down".into(),
            "rider_to_compliant".into(),
            "total_up_kbit".into(),
        ],
    );

    let mut totals: Vec<f64> = Vec::new();
    let mut ratios: Vec<Option<f64>> = Vec::new();
    let mut riders_clean = true;
    for pct in LEVELS {
        let riders = leechers * pct / 100;
        let level_scenario = scenario.clone().with_swarm(SwarmParams {
            behavior: BehaviorMix {
                free_riders: riders,
                altruists: base_params.behavior.altruists,
            },
            ..base_params.clone()
        });
        let mut swarm = level_scenario.build_swarm(&mut common::rng(scenario.seed, 0xf4))?;
        swarm.run_rounds(rounds);

        // Riders occupy the top leecher indices (the BehaviorMix layout).
        let compliant_down: Vec<f64> = (0..leechers - riders)
            .map(|p| swarm.peer(p).total_downloaded())
            .collect();
        let rider_down: Vec<f64> = (leechers - riders..leechers)
            .map(|p| swarm.peer(p).total_downloaded())
            .collect();
        riders_clean &= (leechers - riders..leechers)
            .all(|p| swarm.peer(p).total_uploaded() == 0.0 && swarm.tft_unchoked(p).is_empty());
        let total_up: f64 = (0..swarm.peer_count())
            .map(|p| swarm.peer(p).total_uploaded())
            .sum();
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let compliant_mean = mean(&compliant_down);
        let rider_mean = if riders > 0 { mean(&rider_down) } else { 0.0 };
        let ratio = (riders > 0 && compliant_mean > 0.0).then(|| rider_mean / compliant_mean);
        totals.push(total_up);
        ratios.push(ratio);
        result.push_row(vec![
            pct as f64,
            riders as f64,
            compliant_mean,
            rider_mean,
            // 0.0 stands in for "no riders" (NaN would break row
            // comparisons downstream).
            ratio.unwrap_or(0.0),
            total_up,
        ]);
    }

    result.check(
        "free riders never upload and hold no TFT slots",
        riders_clean,
        "checked at every sweep level".to_string(),
    );
    let rider_ratios: Vec<f64> = ratios.iter().copied().flatten().collect();
    result.check(
        "free riders earn well below the compliant mean at every level",
        !rider_ratios.is_empty() && rider_ratios.iter().all(|&r| r < 0.8),
        format!("rider/compliant ratios: {rider_ratios:?}"),
    );
    result.check(
        "total swarm throughput shrinks with the withdrawn capacity",
        totals.windows(2).all(|w| w[1] < w[0]),
        format!("total upload per level: {totals:?}"),
    );

    result.note(
        "Free riders subsist on the optimistic economy alone — the paper's \
         'generous connections' bound their intake, which is exactly the \
         incentive mechanism the §6 b-matching model attributes to TFT."
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
