//! BT1 (extension experiment): the paper's §6 claims observed in the
//! protocol simulator rather than the abstract model.
//!
//! A fluid-content swarm (content never bottlenecks — §6's post-flash-crowd
//! assumption) with upload capacities drawn from the Figure 10 bandwidth
//! distribution. We track:
//!
//! * stratification: the mean upload-rank offset of reciprocated TFT pairs
//!   shrinking over time;
//! * the share-ratio structure of Figure 11: fastest peers below 1, slowest
//!   peers above 1.

use strat_bittorrent::metrics;
use strat_scenario::{
    BehaviorMix, CapacityModel, Scenario, ScenarioError, SwarmParams, TopologyModel,
};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// The BT1 scenario: a fluid-content swarm with Figure 10 upload
/// capacities in shuffled order (peer index carries no rank info), the
/// reference client's 3 TFT + 1 optimistic slots, and 2 fast seeds.
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    let leechers = if ctx.quick { 120 } else { 400 };
    Scenario::new("bt1", leechers)
        .with_seed(ctx.seed)
        .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 20.0 })
        .with_capacity(CapacityModel::SaroiuShuffled {
            shuffle_seed: ctx.seed ^ 0x5455,
        })
        .with_swarm(SwarmParams {
            seeds: 2,
            seed_upload_kbps: 1000.0,
            tft_slots: 3,
            optimistic_slots: 1,
            fluid_content: true,
            swarm_seed: ctx.seed ^ 0xb7,
            behavior: BehaviorMix::compliant(),
            ..SwarmParams::default()
        })
}

/// Runs the BT swarm validation on its preset.
#[must_use]
pub fn run(ctx: &ExperimentContext) -> ExperimentResult {
    run_scenario(ctx, &preset(ctx)).expect("the preset is a valid scenario")
}

/// Runs the BT swarm validation kernel on an arbitrary base scenario.
pub fn run_scenario(
    ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let leechers = scenario.peers;
    let rounds = if ctx.quick { 80u64 } else { 240 };
    let seeds = scenario.swarm.as_ref().map_or(2, |s| s.seeds);

    let mut swarm = scenario.build_swarm(&mut common::rng(scenario.seed, 0xb1))?;
    let mut result = ExperimentResult::new(
        "bt1",
        "BT swarm: TFT stratification and share ratios (section 6 in vivo)",
        format!("{leechers} leechers + {seeds} seeds, fluid content, {rounds} rounds"),
        vec![
            "round".into(),
            "reciprocal_pairs".into(),
            "mean_rank_offset".into(),
            "normalized_offset".into(),
        ],
    );

    let mut early_offset = None;
    for r in 0..rounds {
        swarm.round();
        if r % 5 == 4 || r == 1 {
            let snap = metrics::stratification_snapshot(&swarm);
            if let (Some(off), Some(norm)) = (snap.mean_rank_offset, snap.normalized_offset) {
                if early_offset.is_none() {
                    early_offset = Some(off);
                }
                result.push_row(vec![
                    snap.round as f64,
                    snap.reciprocal_pairs as f64,
                    off,
                    norm,
                ]);
            }
        }
    }

    let late = metrics::stratification_snapshot(&swarm);
    let early = early_offset.expect("early snapshot captured");
    let late_off = late.mean_rank_offset.expect("pairs persist in fluid mode");
    result.check(
        "TFT partners stratify (rank offset shrinks)",
        late_off < 0.6 * early,
        format!("early offset {early:.1} -> late {late_off:.1}"),
    );
    result.check(
        "reciprocated pairs persist",
        late.reciprocal_pairs * 3 > leechers,
        format!(
            "{} reciprocated pairs for {leechers} leechers",
            late.reciprocal_pairs
        ),
    );

    // Share-ratio structure over bandwidth deciles.
    let perf = metrics::leecher_performance(&swarm);
    let mut by_bw: Vec<&metrics::PeerPerformance> = perf.iter().collect();
    by_bw.sort_by(|a, b| a.upload_kbps.total_cmp(&b.upload_kbps));
    let decile = leechers / 10;
    let mean_ratio = |slice: &[&metrics::PeerPerformance]| {
        let rs: Vec<f64> = slice.iter().filter_map(|p| p.share_ratio).collect();
        rs.iter().sum::<f64>() / rs.len() as f64
    };
    let slowest = mean_ratio(&by_bw[..decile]);
    let fastest = mean_ratio(&by_bw[leechers - decile..]);
    result.check(
        "fastest decile has share ratio below 1",
        fastest < 1.0,
        format!("mean D/U {fastest:.3}"),
    );
    result.check(
        "slowest decile has share ratio above 1",
        slowest > 1.0,
        format!("mean D/U {slowest:.3}"),
    );
    result.check(
        "slow peers beat fast peers in D/U",
        slowest > fastest,
        format!("slowest {slowest:.3} > fastest {fastest:.3}"),
    );
    result.note(format!(
        "Share ratios by decile (slow to fast): {}",
        (0..10)
            .map(|k| {
                let lo = k * decile;
                let hi = if k == 9 { leechers } else { (k + 1) * decile };
                format!("{:.2}", mean_ratio(&by_bw[lo..hi]))
            })
            .collect::<Vec<_>>()
            .join(", ")
    ));
    result.note(
        "This experiment exercises the actual protocol loop (TFT rechoke + optimistic \
         probe), i.e. the random-initiative dynamics of section 3 — the offsets shrink \
         exactly as Theorem 1's convergence predicts."
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
