//! Fuzz the scenario JSON ingestion path: [`Scenario::from_json`] must
//! **never panic**, whatever bytes it is handed — malformed input must
//! surface as [`ScenarioError`], the typed-error contract of the parsing
//! layer. Three generators:
//!
//! * random byte soup (overwhelmingly not JSON at all);
//! * random *mutations* of real preset encodings (truncations, splices,
//!   byte flips) — structurally close to valid, the regime where sloppy
//!   `unwrap`s hide;
//! * structure-aware token swaps (renaming keys/variants, number →
//!   string, deleting fields), which exercise the derived reader's
//!   missing-field, type-check and unknown-variant paths.
//!
//! Valid inputs must keep round-tripping, so the fuzzing can't pass by
//! rejecting everything.

use proptest::prelude::*;
use strat_scenario::{
    ArrivalProcess, BehaviorMix, CapacityModel, ChurnModel, DepartureRules, FaultPlan, FaultWindow,
    PreferenceModel, Scenario, SessionConfig, SwarmParams, TopologyModel,
};

/// A corpus of realistic encodings to mutate — one per structural shape
/// (minimal, swarm-bearing, churn-bearing, fault-bearing, explicit axes).
fn corpus() -> Vec<String> {
    let minimal = Scenario::new("fuzz-min", 12);
    let swarm = Scenario::new("fuzz-swarm", 40)
        .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 9.0 })
        .with_capacity(CapacityModel::SaroiuShuffled { shuffle_seed: 5 })
        .with_swarm(SwarmParams {
            seeds: 2,
            behavior: BehaviorMix {
                free_riders: 3,
                altruists: 1,
            },
            ..SwarmParams::default()
        });
    let churny = Scenario::new("fuzz-churn", 30).with_swarm(SwarmParams {
        churn: Some(SessionConfig {
            arrival: ArrivalProcess::Trace {
                arrivals: vec![(2, 4), (7, 1)],
            },
            departure: DepartureRules {
                leave_on_completion: 0.4,
                seed_leave_prob: 0.2,
                seed_exodus_round: Some(50),
                abort_prob: 0.02,
            },
            ..SessionConfig::default()
        }),
        ..SwarmParams::default()
    });
    let faulty = Scenario::new("fuzz-faults", 25).with_swarm(SwarmParams {
        churn: Some(SessionConfig::default()),
        faults: Some(FaultPlan {
            crash_prob: 0.01,
            loss_prob: 0.1,
            outages: vec![FaultWindow {
                start: 3,
                rounds: 2,
            }],
            partitions: vec![FaultWindow {
                start: 9,
                rounds: 5,
            }],
            fault_seed: 77,
        }),
        ..SwarmParams::default()
    });
    let explicit = Scenario::new("fuzz-explicit", 3)
        .with_topology(TopologyModel::Explicit {
            edges: vec![(0, 1), (1, 2)],
        })
        .with_capacity(CapacityModel::Explicit {
            values: vec![2.0, 1.0, 1.0],
        })
        .with_preference(PreferenceModel::BandedRankLatency {
            class_width: 5,
            span: 200.0,
        })
        .with_churn(ChurnModel::PoissonPerBaseUnit {
            events_per_base_unit: 1.5,
        });
    [minimal, swarm, churny, faulty, explicit]
        .iter()
        .flat_map(|s| [s.to_json(), s.to_json_pretty()])
        .collect()
}

/// The property under test: parsing either fails with a typed error or
/// yields a scenario whose re-encoding parses back to the same value.
fn never_panics(input: &str) {
    if let Ok(scenario) = Scenario::from_json(input) {
        let reparsed = Scenario::from_json(&scenario.to_json()).expect("re-encoding parses");
        assert_eq!(reparsed, scenario);
    }
}

/// Structure-aware token rewrites keyed off a selector byte.
fn token_mutate(json: &str, selector: u8) -> String {
    match selector % 10 {
        0 => json.replacen("\"name\"", "\"nom\"", 1),
        1 => json.replacen("Constant", "Konstant", 1),
        2 => json.replacen(':', ";", 1),
        3 => json.replacen("null", "nul", 2),
        4 => json.replacen('{', "[", 1),
        5 => json.replacen('}', "", 1),
        6 => json.replace("\"seed\"", "\"seed\":true,\"x\""),
        7 => json.replacen("\"crash_prob\"", "\"crash\"", 1),
        8 => json.replacen("\"start\"", "\"stard\"", 1),
        _ => json.replace(',', ",,"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        never_panics(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_presets_never_panic(
        which in 0usize..10,
        cut_start in 0usize..2000,
        cut_len in 0usize..200,
        splice in proptest::collection::vec(any::<u8>(), 0..32),
        flips in proptest::collection::vec((0usize..2000, any::<u8>()), 0..6),
    ) {
        let corpus = corpus();
        let mut bytes = corpus[which % corpus.len()].clone().into_bytes();
        // Byte flips.
        for &(pos, val) in &flips {
            if !bytes.is_empty() {
                let pos = pos % bytes.len();
                bytes[pos] = val;
            }
        }
        // Cut a window and splice random bytes in its place.
        if !bytes.is_empty() {
            let start = cut_start % bytes.len();
            let end = (start + cut_len).min(bytes.len());
            bytes.splice(start..end, splice.iter().copied());
        }
        never_panics(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn token_mutations_never_panic(
        which in 0usize..10,
        selectors in proptest::collection::vec(any::<u8>(), 1..4),
    ) {
        let corpus = corpus();
        let mut json = corpus[which % corpus.len()].clone();
        for &s in &selectors {
            json = token_mutate(&json, s);
        }
        never_panics(&json);
    }
}

#[test]
fn corpus_itself_round_trips() {
    for json in corpus() {
        let parsed = Scenario::from_json(&json).expect("corpus entries parse");
        assert_eq!(Scenario::from_json(&parsed.to_json()).unwrap(), parsed);
    }
}

#[test]
fn hostile_literals_are_typed_errors() {
    for input in [
        "",
        "{",
        "[]",
        "true",
        "\"scenario\"",
        "{\"name\": 3}",
        "{\"name\": \"x\", \"experiment\": \"x\", \"seed\": -1}",
        // Deeply nested arrays probe parser recursion.
        &("[".repeat(400) + &"]".repeat(400)),
        // A swarm section of the wrong shape.
        r#"{"name":"x","experiment":"x","seed":1,"peers":2,
            "capacity":{"Constant":{"value":1}},"topology":"Complete",
            "preference":"GlobalRank","churn":"None","strategy":"BestMate",
            "swarm":{"seeds":"many"}}"#,
        // A faults section of the wrong shape.
        r#"{"name":"x","experiment":"x","seed":1,"peers":2,
            "capacity":{"Constant":{"value":1}},"topology":"Complete",
            "preference":"GlobalRank","churn":"None","strategy":"BestMate",
            "swarm":{"seeds":1,"seed_upload_kbps":1000.0,"tft_slots":3,
              "optimistic_slots":1,"optimistic_period":3,"piece_count":8,
              "piece_size_kbit":100.0,"round_seconds":10.0,
              "initial_completion":0.4,"seed_after_completion":true,
              "fluid_content":false,"swarm_seed":1,
              "behavior":{"free_riders":0,"altruists":0},
              "faults":{"crash_prob":[]}}}"#,
    ] {
        assert!(Scenario::from_json(input).is_err(), "accepted: {input}");
    }
}
