//! Figure 10: the upstream-bandwidth CDF (Saroiu-style synthetic preset).
//!
//! Prints the control points and a percentile table of the synthetic
//! distribution substituted for the Saroiu et al. Gnutella measurement
//! (substitution rationale in DESIGN.md).

use strat_scenario::{CapacityModel, Scenario, ScenarioError};

use crate::runner::{ExperimentContext, ExperimentResult};

/// The Figure 10 scenario: any population marked by the Saroiu CDF (the
/// kernel reports the distribution itself).
#[must_use]
pub fn preset(ctx: &ExperimentContext) -> Scenario {
    Scenario::new("fig10", 4000)
        .with_seed(ctx.seed)
        .with_capacity(CapacityModel::SaroiuByRank)
}

/// Runs the Figure 10 kernel on an arbitrary base scenario (which must
/// use a Saroiu capacity model).
pub fn run_scenario(
    _ctx: &ExperimentContext,
    scenario: &Scenario,
) -> Result<ExperimentResult, ScenarioError> {
    let cdf = scenario
        .capacity
        .bandwidth_cdf()
        .ok_or_else(|| ScenarioError::CapacityUnit {
            model: format!("{:?}", scenario.capacity),
            wanted: "a bandwidth distribution",
        })?;

    let mut result = ExperimentResult::new(
        "fig10",
        "Figure 10: upstream bandwidth CDF (synthetic Saroiu et al. stand-in)",
        "piecewise log-linear, 10 kbps - 100 Mbps".to_string(),
        vec!["upstream_kbps".into(), "percent_of_hosts".into()],
    );
    for pct in 1..=100 {
        let u = pct as f64 / 100.0;
        result.push_row(vec![cdf.quantile(u), pct as f64]);
    }

    result.check(
        "wide distribution spanning nearly four decades",
        cdf.quantile(0.99) / cdf.quantile(0.01) > 1000.0,
        format!(
            "1% at {:.0} kbps, 99% at {:.0} kbps",
            cdf.quantile(0.01),
            cdf.quantile(0.99)
        ),
    );
    let modem_share = cdf.cdf(64.0) - cdf.cdf(40.0);
    result.check(
        "a large host share concentrates at the modem class",
        modem_share > 0.1,
        format!(
            "{:.1}% of hosts between 40 and 64 kbps",
            100.0 * modem_share
        ),
    );
    let dsl_share = cdf.cdf(600.0) - cdf.cdf(100.0);
    result.check(
        "DSL classes hold the central mass",
        dsl_share > 0.3,
        format!(
            "{:.1}% of hosts between 100 and 600 kbps",
            100.0 * dsl_share
        ),
    );
    result.note(
        "Paper: 'One can observe a wide distribution of bandwidths (just like in \
         Orwell's Animal Farm, all peers are equal but some peers are more equal than \
         others).'"
            .to_string(),
    );
    for (bw, frac) in cdf.control_points() {
        result.note(format!(
            "control point: {bw:.0} kbps -> {:.0}%",
            frac * 100.0
        ));
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_monotone() {
        let ctx = ExperimentContext::default();
        let result = run_scenario(&ctx, &preset(&ctx)).unwrap();
        assert!(result.all_passed(), "failed checks: {:#?}", result.checks);
        for w in result.rows.windows(2) {
            assert!(w[1][0] >= w[0][0]);
        }
    }
}
