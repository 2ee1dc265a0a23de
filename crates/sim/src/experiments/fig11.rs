//! Figure 11: expected download/upload ratio as a function of the upload
//! bandwidth per slot (`b₀ = 3`, `d = 20`).
//!
//! The paper's four observations, each encoded as a shape check:
//!
//! 1. best peers suffer low sharing ratios;
//! 2. peers at bandwidth density peaks trade at ratio ≈ 1;
//! 3. efficiency peaks appear just above density peaks;
//! 4. the lowest peers see high efficiency (while risking unmatchedness).

use strat_bandwidth::{efficiency_curve, mean_ratio_in_band, EfficiencyModel};
use strat_scenario::{CapacityModel, Scenario, ScenarioError, SwarmParams, TopologyModel};

use crate::runner::{ExperimentContext, ExperimentResult};

/// The Figure 11 scenario: Saroiu-marked peers, `d = 20` overlay, and the
/// reference client's `b₀ = 3` TFT slots (carried by the swarm section).
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    Scenario::new("fig11", if ctx.quick { 800 } else { 4000 })
        .with_seed(ctx.seed)
        .with_capacity(CapacityModel::SaroiuByRank)
        .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 20.0 })
        .with_swarm(SwarmParams::default())
}

/// Runs the Figure 11 kernel on an arbitrary base scenario (Saroiu
/// capacities; `b₀` read from the swarm section's TFT slots).
pub fn run_scenario(
    _ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let b0 = scenario.swarm.as_ref().map_or(3, |s| s.tft_slots as u32);
    let model = EfficiencyModel {
        b0,
        d: scenario.topology.mean_degree(scenario.peers),
        n: scenario.peers,
    };
    let cdf = scenario
        .capacity
        .bandwidth_cdf()
        .ok_or_else(|| ScenarioError::CapacityUnit {
            model: format!("{:?}", scenario.capacity),
            wanted: "a bandwidth distribution",
        })?;
    let curve = efficiency_curve(&model, &cdf);

    let mut result = ExperimentResult::new(
        "fig11",
        "Figure 11: expected D/U ratio vs upload bandwidth per slot",
        format!("b0={}, d={}, n={}", model.b0, model.d, model.n),
        vec![
            "slot_bandwidth_kbps".into(),
            "du_ratio".into(),
            "du_ratio_offered".into(),
            "expected_mates".into(),
        ],
    );
    // Emit worst-to-best so the x axis is increasing like the paper's.
    for pt in curve.iter().rev() {
        result.push_row(vec![
            pt.slot_bandwidth,
            pt.ratio,
            pt.ratio_offered,
            pt.expected_mates,
        ]);
    }

    let top_mean: f64 = curve[..curve.len() / 100]
        .iter()
        .map(|p| p.ratio)
        .sum::<f64>()
        / (curve.len() / 100) as f64;
    result.check(
        "best peers suffer low sharing ratios",
        top_mean < 1.0,
        format!("top-1% mean ratio {top_mean:.3}"),
    );
    let modem = mean_ratio_in_band(&curve, 13.0, 14.0).expect("modem band populated");
    result.check(
        "density-peak peers have ratio close to 1 (56k class)",
        (modem - 1.0).abs() < 0.25,
        format!("mean ratio {modem:.3}"),
    );
    let above_modem = mean_ratio_in_band(&curve, 14.5, 22.0).expect("band populated");
    result.check(
        "efficiency peak just above the 56k density peak",
        above_modem > modem,
        format!("above-peak {above_modem:.3} > in-peak {modem:.3}"),
    );
    let dsl = mean_ratio_in_band(&curve, 62.0, 66.0); // 256k DSL class slots
    if let Some(dsl) = dsl {
        let above_dsl = mean_ratio_in_band(&curve, 68.0, 95.0).expect("band populated");
        result.check(
            "efficiency peak just above the 256k density peak",
            above_dsl > dsl,
            format!("above-peak {above_dsl:.3} > in-peak {dsl:.3}"),
        );
    }
    let worst = &curve[curve.len() - 1];
    result.check(
        "lowest peers have high efficiency",
        worst.ratio > 1.3,
        format!("worst-peer ratio {:.3}", worst.ratio),
    );
    result.check(
        "lowest peers risk unmatched slots",
        worst.expected_mates < f64::from(model.b0) - 0.05,
        format!("expected mates {:.3} of {}", worst.expected_mates, model.b0),
    );
    result.note(
        "ratio = E[download] / (E[matched slots] x slot bandwidth); ratio_offered \
         divides by all b0 slots instead, discounting unmatched risk (see \
         strat-bandwidth docs). The paper's y axis corresponds to the former."
            .to_string(),
    );
    result.note(
        "Paper: 'it is tempting for an average peer to tweak its number of connections... \
         this leads to a Nash equilibrium where all peers have just one TFT slot' — the \
         argument for BitTorrent's 4-slot default."
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
            seed: 19,
        };
        let result = run_scenario(&ctx, &preset(&ctx)).unwrap();
        assert!(result.all_passed(), "failed checks: {:#?}", result.checks);
        // x axis increasing.
        for w in result.rows.windows(2) {
            assert!(w[1][0] >= w[0][0]);
        }
    }
}
