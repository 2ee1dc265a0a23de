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
//!    error, not a panic;
//! 5. `Scenario::validate` decides every build: a fuzzer over typed
//!    fields checks that a validated scenario builds and runs, and that a
//!    refused one is refused by every builder alike.

use proptest::prelude::*;
use strat_scenario::{
    stream_rng, ArrivalProcess, CapacityModel, EventTiming, FaultPlan, Scenario, ScenarioError,
    SessionConfig, SwarmParams, TopologyModel, UniverseParams,
};
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
            match run(&preset.clone().with_peers(0)) {
                Err(ScenarioError::InvalidParameter { what: "peers", .. }) => {}
                other => panic!("{}: expected a peers error, got {other:?}", entry.id),
            }
        }
        // Undersized populations: a kernel either refuses the scenario
        // with a typed error or measures finite rows; it never panics.
        for peers in [0, 5] {
            match (entry.try_run_scenario)(&ctx, &preset.clone().with_peers(peers)) {
                Err(_) => {}
                Ok(result) => assert!(
                    result.rows.iter().flatten().all(|v| v.is_finite()),
                    "{} at {peers} peers wrote non-finite rows",
                    entry.id
                ),
            }
        }
    }
}

/// Every kernel refuses a topology outside the model with exactly the
/// error `Scenario::validate` gives, whether or not the kernel calls a
/// builder (the registry validates before the kernel runs); the
/// `--scenario` CLI prints it and exits 2.
#[test]
fn every_kernel_refuses_what_validate_refuses() {
    let ctx = ctx();
    for entry in runner::registry() {
        let scenario =
            (entry.preset)(&ctx).with_topology(TopologyModel::ErdosRenyiMeanDegree { d: -5.0 });
        let parsed = Scenario::from_json(&scenario.to_json()).expect("parses");
        let refused = parsed.validate().expect_err("d = -5 is outside the model");
        assert!(
            matches!(
                &refused,
                ScenarioError::InvalidParameter {
                    what: "mean degree",
                    ..
                }
            ),
            "{}: {refused:?}",
            entry.id
        );
        assert_eq!(
            (entry.try_run_scenario)(&ctx, &parsed).map(|r| r.id),
            Err(refused),
            "{}",
            entry.id
        );
    }
}

/// A swarm draws its own tracker overlay from the topology's mean degree,
/// so an explicit edge list would be replaced by an overlay nobody asked
/// for: every kernel of a swarm scenario refuses it instead.
#[test]
fn swarm_scenarios_refuse_an_explicit_topology() {
    let ctx = ctx();
    for entry in runner::registry() {
        let preset = (entry.preset)(&ctx);
        if preset.swarm.is_none() {
            continue;
        }
        let scenario = preset.with_topology(TopologyModel::Explicit {
            edges: vec![(0, 1), (1, 2)],
        });
        match (entry.try_run_scenario)(&ctx, &scenario) {
            Err(ScenarioError::InvalidParameter {
                what: "topology", ..
            }) => {}
            other => panic!(
                "{}: expected a topology error, got {:?}",
                entry.id,
                other.map(|r| r.id)
            ),
        }
    }
}

/// Floats the fuzzer writes into typed fields; 1.5 doubles as an
/// out-of-range probability. Huge finite values are left out: they are
/// valid, just expensive.
const FUZZ_VALUES: [f64; 6] = [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5];

/// One typed-field mutation of a swarm scenario; a mutation of an absent
/// section leaves the scenario as it is.
type Mutation = fn(&mut Scenario, f64);

fn swarm(s: &mut Scenario) -> Option<&mut SwarmParams> {
    s.swarm.as_mut()
}

fn churn(s: &mut Scenario) -> Option<&mut SessionConfig> {
    swarm(s).and_then(|p| p.churn.as_mut())
}

const MUTATIONS: &[Mutation] = &[
    |s, _| s.peers = 0,
    |s, v| s.capacity = CapacityModel::Constant { value: v },
    |s, v| s.topology = TopologyModel::ErdosRenyiMeanDegree { d: v },
    |s, v| s.topology = TopologyModel::ErdosRenyiEdgeProbability { p: v },
    |s, _| s.swarm = None,
    |s, _| swarm(s).into_iter().for_each(|p| p.seeds = 0),
    |s, v| swarm(s).into_iter().for_each(|p| p.seed_upload_kbps = v),
    |s, _| swarm(s).into_iter().for_each(|p| p.tft_slots = 0),
    |s, _| swarm(s).into_iter().for_each(|p| p.optimistic_slots = 0),
    |s, _| swarm(s).into_iter().for_each(|p| p.optimistic_period = 0),
    |s, _| swarm(s).into_iter().for_each(|p| p.piece_count = 0),
    |s, v| swarm(s).into_iter().for_each(|p| p.piece_size_kbit = v),
    |s, v| swarm(s).into_iter().for_each(|p| p.round_seconds = v),
    |s, v| swarm(s).into_iter().for_each(|p| p.initial_completion = v),
    |s, _| {
        swarm(s)
            .into_iter()
            .for_each(|p| p.fluid_content = !p.fluid_content)
    },
    |s, _| swarm(s).into_iter().for_each(|p| p.churn = None),
    |s, _| swarm(s).into_iter().for_each(|p| p.faults = None),
    |s, _| swarm(s).into_iter().for_each(|p| p.timing = None),
    |s, _| swarm(s).into_iter().for_each(|p| p.universe = None),
    |s, _| {
        swarm(s).into_iter().for_each(|p| {
            p.churn.get_or_insert_with(SessionConfig::default);
        });
    },
    |s, _| {
        swarm(s).into_iter().for_each(|p| {
            p.faults.get_or_insert(FaultPlan {
                crash_prob: 0.05,
                ..FaultPlan::none()
            });
        });
    },
    |s, _| {
        swarm(s).into_iter().for_each(|p| {
            p.timing.get_or_insert_with(EventTiming::default);
        });
    },
    |s, _| {
        swarm(s).into_iter().for_each(|p| {
            p.universe.get_or_insert_with(UniverseParams::default);
        });
    },
    |s, v| {
        churn(s)
            .into_iter()
            .for_each(|c| c.arrival = ArrivalProcess::Poisson { rate: v })
    },
    |s, v| {
        churn(s)
            .into_iter()
            .for_each(|c| c.departure.seed_leave_prob = v)
    },
    |s, v| {
        churn(s)
            .into_iter()
            .for_each(|c| c.departure.abort_prob = v)
    },
    |s, v| churn(s).into_iter().for_each(|c| c.arrival_upload_kbps = v),
    |s, v| churn(s).into_iter().for_each(|c| c.arrival_completion = v),
    |s, _| churn(s).into_iter().for_each(|c| c.target_degree = 0),
    |s, _| churn(s).into_iter().for_each(|c| c.peer_list_cap = Some(0)),
    |s, v| {
        churn(s)
            .into_iter()
            .for_each(|c| c.compact_threshold = Some(v))
    },
    |s, v| {
        let faults = swarm(s).and_then(|p| p.faults.as_mut());
        faults.into_iter().for_each(|f| f.crash_prob = v);
    },
    |s, v| {
        let faults = swarm(s).and_then(|p| p.faults.as_mut());
        faults.into_iter().for_each(|f| f.loss_prob = v);
    },
    |s, v| {
        let timing = swarm(s).and_then(|p| p.timing.as_mut());
        timing.into_iter().for_each(|t| t.rechoke_interval = v);
    },
    |s, v| {
        let timing = swarm(s).and_then(|p| p.timing.as_mut());
        timing
            .into_iter()
            .for_each(|t| t.transfer_quantum = Some(v));
    },
    |s, v| {
        let timing = swarm(s).and_then(|p| p.timing.as_mut());
        timing
            .into_iter()
            .for_each(|t| t.announce_interval = Some(v));
    },
    |s, v| {
        let timing = swarm(s).and_then(|p| p.timing.as_mut());
        timing.into_iter().for_each(|t| t.speed_multipliers[0] = v);
    },
    |s, _| {
        let universe = swarm(s).and_then(|p| p.universe.as_mut());
        universe.into_iter().for_each(|u| u.torrents = 0);
    },
    |s, v| {
        let universe = swarm(s).and_then(|p| p.universe.as_mut());
        universe.into_iter().for_each(|u| u.popularity_skew = v);
    },
    |s, v| {
        let universe = swarm(s).and_then(|p| p.universe.as_mut());
        universe
            .into_iter()
            .for_each(|u| u.class_upload_kbps = vec![v]);
    },
];

/// The builder a swarm scenario's sections select, run for 20 rounds
/// (20 s of events on the event engine).
fn build_and_run(s: &Scenario) -> Result<(), ScenarioError> {
    let mut rng = stream_rng(s.seed, 0xf0);
    let params = s.swarm.as_ref().ok_or(ScenarioError::MissingSwarm)?;
    if params.universe.is_some() {
        s.build_universe(&mut rng)?.run_rounds(20, Some(1));
    } else if params.timing.is_some() {
        s.build_event_engine(&mut rng)?.run_for(20.0);
    } else if params.churn.is_some() {
        s.build_session(&mut rng)?.run_rounds(20);
    } else {
        s.build_swarm(&mut rng)?.run_rounds(20);
    }
    Ok(())
}

/// What every builder returns on `s`, by name.
fn every_build(s: &Scenario) -> Vec<(&'static str, Option<ScenarioError>)> {
    let rng = || stream_rng(s.seed, 0xf0);
    vec![
        ("build_graph", s.build_graph(&mut rng()).err()),
        ("build_ranking", s.build_ranking(&mut rng()).err()),
        ("build_capacities", s.build_capacities(&mut rng()).err()),
        ("build_acceptance", s.build_acceptance(&mut rng()).err()),
        ("build_preferences", s.build_preferences(&mut rng()).err()),
        ("build_dynamics", s.build_dynamics(&mut rng()).err()),
        (
            "build_dynamics_at_stable",
            s.build_dynamics_at_stable(&mut rng()).err(),
        ),
        ("build_churn", s.build_churn(&mut rng()).err()),
        ("stable_matching", s.stable_matching(&mut rng()).err()),
        (
            "stable_matching_masked",
            s.stable_matching_masked(&mut rng(), |_| true).err(),
        ),
        ("build_swarm", s.build_swarm(&mut rng()).err()),
        ("build_session", s.build_session(&mut rng()).err()),
        ("build_event_engine", s.build_event_engine(&mut rng()).err()),
        ("build_universe", s.build_universe(&mut rng()).err()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One typed-field mutation of a quick swarm preset at 40 leechers:
    /// a scenario that validates builds and runs without panicking (a
    /// builder may only still miss a section it needs), and one that does
    /// not is refused by every builder with the same error.
    #[test]
    fn validate_decides_every_build(
        preset in 0usize..1000,
        mutation in 0..MUTATIONS.len(),
        value in 0..FUZZ_VALUES.len(),
    ) {
        let presets: Vec<Scenario> = runner::registry()
            .into_iter()
            .map(|entry| (entry.preset)(&ctx()))
            .filter(|s| s.swarm.is_some())
            .collect();
        let mut scenario = presets[preset % presets.len()].clone().with_peers(40);
        MUTATIONS[mutation](&mut scenario, FUZZ_VALUES[value]);
        let what = format!("{} / mutation {mutation} / {}", scenario.name, FUZZ_VALUES[value]);
        match scenario.validate() {
            Ok(()) => {
                let built = build_and_run(&scenario);
                prop_assert!(
                    matches!(
                        built,
                        Ok(())
                            | Err(ScenarioError::MissingSwarm
                                | ScenarioError::MissingChurn
                                | ScenarioError::MissingTiming
                                | ScenarioError::MissingUniverse)
                    ),
                    "{what}: validated, then {built:?}"
                );
            }
            Err(refused) => {
                for (builder, got) in every_build(&scenario) {
                    prop_assert_eq!(got.as_ref(), Some(&refused), "{}: {}", what, builder);
                }
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
