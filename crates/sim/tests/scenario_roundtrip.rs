//! The Scenario contract, end to end:
//!
//! 1. every registered experiment's preset survives
//!    `to_json -> from_json` unchanged;
//! 2. the parsed preset *builds* bit-identical simulation state
//!    (dynamics / swarm fingerprints match the in-memory preset's);
//! 3. the parsed preset *measures* identically: `run_scenario` on it
//!    reproduces the exact rows of `run` (the `--scenario` CLI path's
//!    guarantee);
//! 4. a scenario that parses but that its kernel cannot build is a typed
//!    error, not a panic.

use strat_scenario::{stream_rng, FaultPlan, Scenario, ScenarioError, TopologyModel};
use strat_sim::runner::{self, ExperimentContext};

fn ctx() -> ExperimentContext {
    ExperimentContext {
        quick: true,
        seed: 2007,
    }
}

#[test]
fn every_preset_round_trips_through_json() {
    for entry in runner::registry() {
        let preset = (entry.preset)(&ctx());
        assert_eq!(preset.name, entry.id, "preset name matches registry id");
        assert_eq!(
            preset.experiment, entry.id,
            "preset binds to its own experiment"
        );
        let parsed =
            Scenario::from_json(&preset.to_json()).unwrap_or_else(|e| panic!("{}: {e}", entry.id));
        assert_eq!(parsed, preset, "{} JSON round trip", entry.id);
        let parsed_pretty = Scenario::from_json(&preset.to_json_pretty())
            .unwrap_or_else(|e| panic!("{}: {e}", entry.id));
        assert_eq!(parsed_pretty, preset, "{} pretty round trip", entry.id);
    }
}

/// A cheap structural fingerprint of built simulation state.
fn build_fingerprint(scenario: &Scenario) -> Vec<f64> {
    if scenario.swarm.is_some() {
        // Swarm path: run a few rounds, fingerprint the transfer totals.
        let mut swarm = scenario
            .build_swarm(&mut stream_rng(scenario.seed, 0xf1))
            .expect("valid swarm scenario");
        swarm.run_rounds(5);
        (0..swarm.peer_count())
            .map(|p| swarm.peer(p).total_downloaded() + swarm.peer(p).upload_kbps())
            .collect()
    } else if scenario.capacity.bandwidth_cdf().is_some() {
        // Bandwidth-only scenarios (fig10): the capacity assignment is the
        // observable.
        scenario
            .capacity
            .upload_bandwidths(scenario.peers, &mut stream_rng(scenario.seed, 0xf1))
            .expect("valid scenario")
    } else if matches!(scenario.topology, TopologyModel::Complete) {
        // Complete topologies never materialize the quadratic graph; the
        // stable configuration is the observable.
        let stable = scenario
            .stable_matching(&mut stream_rng(scenario.seed, 0xf1))
            .expect("valid scenario");
        (0..stable.node_count())
            .map(|v| stable.degree(strat_graph::NodeId::new(v)) as f64)
            .collect()
    } else {
        // Dynamics path: converge a little and fingerprint the matching.
        let mut dynamics = scenario
            .build_dynamics(&mut stream_rng(scenario.seed, 0xf1))
            .expect("valid scenario");
        let mut rng = stream_rng(scenario.seed, 0xf2);
        for _ in 0..3 {
            dynamics.run_base_unit(&mut rng);
        }
        let matching = dynamics.matching();
        (0..dynamics.node_count())
            .map(|v| {
                let v = strat_graph::NodeId::new(v);
                matching
                    .mates(v)
                    .iter()
                    .map(|m| m.index() as f64)
                    .sum::<f64>()
            })
            .collect()
    }
}

#[test]
fn parsed_presets_build_bit_identical_state() {
    for entry in runner::registry() {
        let preset = (entry.preset)(&ctx());
        // table1's headline instance is full-profile sized; its kernel
        // path is covered by the row-equality test below.
        if entry.id == "table1" {
            continue;
        }
        let parsed = Scenario::from_json(&preset.to_json()).expect("parses");
        assert_eq!(
            build_fingerprint(&preset),
            build_fingerprint(&parsed),
            "{}: parsed preset builds different state",
            entry.id
        );
    }
}

#[test]
fn run_scenario_on_parsed_preset_reproduces_run() {
    let ctx = ctx();
    for entry in runner::registry() {
        let preset = (entry.preset)(&ctx);
        let parsed = Scenario::from_json(&preset.to_json()).expect("parses");
        let direct = (entry.run)(&ctx);
        let via_json = (entry.run_scenario)(&ctx, &parsed);
        assert_eq!(direct.columns, via_json.columns, "{} columns", entry.id);
        assert_eq!(direct.rows, via_json.rows, "{} rows", entry.id);
        assert_eq!(direct.checks, via_json.checks, "{} checks", entry.id);
    }
}

/// The event engine does not run fault plans, so the `btevent` preset
/// with a `swarm.faults` section is refused at build time, and
/// `try_run_scenario` returns that error (the `--scenario` CLI prints it
/// and exits 2).
#[test]
fn btevent_with_faults_is_a_typed_error() {
    let ctx = ctx();
    let entry = runner::find("btevent").expect("btevent is registered");
    let mut scenario = (entry.preset)(&ctx);
    scenario
        .swarm
        .as_mut()
        .expect("btevent has a swarm section")
        .faults = Some(FaultPlan::none());
    let parsed = Scenario::from_json(&scenario.to_json()).expect("parses");
    match (entry.try_run_scenario)(&ctx, &parsed) {
        Err(ScenarioError::InvalidParameter { what, reason }) => {
            assert_eq!(what, "swarm timing");
            assert!(reason.contains("round-engine construct"), "{reason}");
        }
        other => panic!(
            "expected a typed build error, got {:?}",
            other.map(|r| r.id)
        ),
    }
}

/// Kernels refuse scenarios they cannot measure before simulating
/// anything: every swarm kernel one without a swarm section, `bt1` one
/// with fewer than 10 leechers (empty share-ratio deciles) or piece-mode
/// content, and the sweeps that scale the peer count down one with too
/// few peers.
#[test]
fn scenarios_a_kernel_cannot_measure_are_typed_errors() {
    let ctx = ctx();
    for entry in runner::registry() {
        let preset = (entry.preset)(&ctx);
        let run = |scenario: &Scenario| (entry.try_run_scenario)(&ctx, scenario).map(|r| r.id);
        if entry.id.starts_with("bt") {
            let scenario = Scenario {
                swarm: None,
                ..preset.clone()
            };
            assert_eq!(
                run(&scenario),
                Err(ScenarioError::MissingSwarm),
                "{}",
                entry.id
            );
        }
        if entry.id == "bt1" {
            let mut piece_mode = preset.clone();
            piece_mode
                .swarm
                .as_mut()
                .expect("bt1 preset has a swarm")
                .fluid_content = false;
            for (scenario, what) in [
                (preset.clone().with_peers(5), "peers"),
                (preset.clone().with_peers(0), "peers"),
                (piece_mode, "swarm.fluid_content"),
            ] {
                match run(&scenario) {
                    Err(ScenarioError::InvalidParameter { what: got, .. }) if got == what => {}
                    other => panic!("bt1: expected a `{what}` error, got {other:?}"),
                }
            }
        } else if ["fig1", "fig2", "fig8", "fig9"].contains(&entry.id) {
            match run(&preset.with_peers(0)) {
                Err(ScenarioError::InvalidParameter { what: "peers", .. }) => {}
                other => panic!("{}: expected a peers error, got {other:?}", entry.id),
            }
        }
    }
}

/// The checked-in full-profile presets in `results/scenarios/` parse, and
/// re-encode (pretty, plus the trailing newline the files carry) to their
/// own bytes: a schema change that reads any of them differently fails
/// here.
#[test]
fn checked_in_presets_reencode_to_their_own_bytes() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("results/scenarios exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 25, "one preset file per registry entry");
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable preset");
        let scenario =
            Scenario::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            scenario.to_json_pretty() + "\n",
            text,
            "{} does not re-encode to its own bytes",
            path.display()
        );
    }
}
