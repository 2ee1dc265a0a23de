//! BTFLASH (extension experiment): a flash-crowd swarm at a scale the
//! reference engine could not afford.
//!
//! The paper's §6 analysis assumes the post-flash-crowd steady state; this
//! kernel simulates the flash crowd itself — a large leecher population
//! arriving almost empty (2 % initial completion) against a small seed
//! squad — and tracks the completion wave. Xu's *Performance Modeling of
//! BitTorrent P2P File Sharing Networks* (arXiv 1311.1195) motivates the
//! regime; the data-oriented engine's parallel rounds
//! ([`Swarm::run_rounds_parallel`](strat_bittorrent::Swarm::run_rounds_parallel),
//! bit-reproducible for any thread count) make the ≥10⁴-peer population
//! tractable.
//!
//! Shape checks: the swarm starts cold, the completion curve is monotone,
//! a substantial fraction completes within the horizon, and fast peers
//! ride the wave earlier than slow peers (the bandwidth stratification of
//! §6 showing up in completion times).

use strat_scenario::{
    BehaviorMix, CapacityModel, Scenario, ScenarioError, SwarmParams, TopologyModel,
};

use crate::experiments::common;
use crate::runner::{ExperimentContext, ExperimentResult};

/// The flash-crowd scenario: 10 000 leechers (300 quick) at 2 % initial
/// completion, 20 strong seeds, Figure 10 bandwidths in shuffled order,
/// piece-level content (no fluid shortcut).
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    let leechers = if ctx.quick { 300 } else { 10_000 };
    Scenario::new("btflash", leechers)
        .with_seed(ctx.seed)
        .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 20.0 })
        .with_capacity(CapacityModel::SaroiuShuffled {
            shuffle_seed: ctx.seed ^ 0xf1a5,
        })
        .with_swarm(SwarmParams {
            seeds: 20,
            seed_upload_kbps: 5000.0,
            piece_count: 128,
            piece_size_kbit: 1024.0,
            initial_completion: 0.02,
            fluid_content: false,
            seed_after_completion: true,
            swarm_seed: ctx.seed ^ 0xf1a5,
            behavior: BehaviorMix::compliant(),
            ..SwarmParams::default()
        })
}

/// Runs the flash-crowd kernel on an arbitrary base scenario.
///
/// Rounds execute through the parallel engine on all available workers;
/// the determinism contract keeps the rows identical for any thread
/// count.
pub fn run_scenario(
    ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    run_scenario_with_threads(ctx, scenario, strat_par::default_threads())
}

/// The kernel with an explicit worker count (the thread-independence test
/// drives this directly; results must not depend on `threads`).
fn run_scenario_with_threads(
    ctx: &ExperimentContext,
    scenario: &Scenario,
    threads: usize,
) -> Result<ExperimentResult, ScenarioError> {
    let leechers = scenario.peers;
    let rounds = if ctx.quick { 60u64 } else { 160 };
    let sample_every = 5u64;
    let seeds = scenario.swarm.as_ref().map_or(0, |s| s.seeds);

    let mut swarm = scenario.build_swarm(&mut common::rng(scenario.seed, 0xf1))?;
    let piece_count = swarm.config().piece_count;

    let mut result = ExperimentResult::new(
        "btflash",
        "Flash crowd: completion wave of a cold large swarm",
        format!(
            "{leechers} leechers + {seeds} seeds, {:.0} % initial completion, {rounds} rounds (parallel rounds)",
            100.0 * scenario.swarm.as_ref().map_or(0.0, |s| s.initial_completion)
        ),
        vec![
            "round".into(),
            "completed".into(),
            "completed_frac".into(),
            "mean_progress".into(),
        ],
    );

    let mut completions: Vec<usize> = Vec::new();
    let mut simulated = 0u64;
    while simulated < rounds {
        let step = sample_every.min(rounds - simulated);
        swarm.run_rounds_parallel(step, threads);
        simulated += step;
        let completed = swarm.completed_count();
        let mean_progress = (0..leechers)
            .map(|p| swarm.peer(p).pieces().count() as f64 / piece_count as f64)
            .sum::<f64>()
            / leechers as f64;
        completions.push(completed);
        result.push_row(vec![
            simulated as f64,
            completed as f64,
            completed as f64 / leechers as f64,
            mean_progress,
        ]);
    }

    let first = completions[0];
    let last = *completions.last().expect("at least one sample");
    result.check(
        "swarm starts cold (few early completions)",
        (first as f64) < 0.10 * leechers as f64,
        format!("{first} of {leechers} complete at round {sample_every}"),
    );
    result.check(
        "completion curve is monotone",
        completions.windows(2).all(|w| w[1] >= w[0]),
        format!("samples: {completions:?}"),
    );
    result.check(
        "a substantial fraction completes within the horizon",
        (last as f64) > 0.30 * leechers as f64,
        format!(
            "{last} of {leechers} ({:.1} %) complete at round {rounds}",
            100.0 * last as f64 / leechers as f64
        ),
    );

    // Fast peers complete earlier than slow peers: compare the mean
    // completion round of the fastest vs slowest completer quartiles.
    let mut by_bw: Vec<(f64, Option<u64>)> = (0..leechers)
        .map(|p| (swarm.peer(p).upload_kbps(), swarm.peer(p).completed_round()))
        .collect();
    by_bw.sort_by(|a, b| a.0.total_cmp(&b.0));
    let quartile = leechers / 4;
    let mean_completion = |slice: &[(f64, Option<u64>)]| -> Option<f64> {
        let rounds: Vec<f64> = slice.iter().filter_map(|x| x.1).map(|r| r as f64).collect();
        (!rounds.is_empty()).then(|| rounds.iter().sum::<f64>() / rounds.len() as f64)
    };
    let slow = mean_completion(&by_bw[..quartile]);
    let fast = mean_completion(&by_bw[leechers - quartile..]);
    let (verdict, detail) = match (fast, slow) {
        (Some(f), Some(s)) => (
            f < s,
            format!("fast quartile {f:.1} vs slow quartile {s:.1}"),
        ),
        (Some(f), None) => (
            true,
            format!("fast quartile {f:.1}; no slow-quartile completions yet"),
        ),
        (None, _) => (false, "no fast-quartile completions".to_string()),
    };
    result.check("fast peers ride the completion wave first", verdict, detail);

    result.note(format!(
        "Flash-crowd regime: {leechers} nearly-empty leechers against {seeds} seeds. \
         The completion wave sweeps the swarm by bandwidth rank — the §6 \
         stratification expressed in completion times rather than share ratios."
    ));
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
    fn results_are_thread_count_independent() {
        // The kernel runs through the parallel engine; the results must
        // not depend on how many workers the host machine offers.
        let ctx = ExperimentContext {
            quick: true,
            seed: 5,
        };
        let scenario = preset(&ctx);
        let serial = run_scenario_with_threads(&ctx, &scenario, 1);
        for threads in [2, 7] {
            assert_eq!(
                run_scenario_with_threads(&ctx, &scenario, threads),
                serial,
                "threads = {threads}"
            );
        }
    }
}
