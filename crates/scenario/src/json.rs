//! JSON round-trip for [`Scenario`]: serialization comes from the serde
//! derives (externally tagged enums, exactly like upstream serde's
//! defaults), and so does deserialization, from the `serde_json::Value`
//! tree produced by the shim parser.

use serde::Deserialize;
use serde_json::Value;

use crate::{Scenario, ScenarioError};

impl Scenario {
    /// Compact JSON encoding of this scenario.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::Serialize::to_json(self)
    }

    /// Pretty-printed JSON encoding (what preset files ship as).
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("in-memory serialization cannot fail")
    }

    /// Parses a scenario from its JSON encoding.
    ///
    /// # Examples
    ///
    /// ```
    /// use strat_scenario::{Scenario, TopologyModel};
    ///
    /// let json = r#"{
    ///   "name": "demo", "experiment": "fig3", "seed": 7, "peers": 100,
    ///   "capacity": { "Constant": { "value": 1 } },
    ///   "topology": { "ErdosRenyiMeanDegree": { "d": 10.0 } },
    ///   "preference": "GlobalRank",
    ///   "churn": { "Rate": { "rate": 0.03 } },
    ///   "strategy": "BestMate",
    ///   "swarm": null
    /// }"#;
    /// let scenario = Scenario::from_json(json)?;
    /// assert_eq!(scenario.peers, 100);
    /// assert_eq!(scenario.topology, TopologyModel::ErdosRenyiMeanDegree { d: 10.0 });
    /// // The encoding round-trips losslessly.
    /// assert_eq!(Scenario::from_json(&scenario.to_json())?, scenario);
    /// # Ok::<(), strat_scenario::ScenarioError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] on malformed JSON, unknown
    /// variants, or missing/ill-typed fields (the message names the
    /// field's path), and [`ScenarioError::InvalidParameter`] for the
    /// removed `swarm.churn.batched_wiring: true`.
    pub fn from_json(input: &str) -> Result<Self, ScenarioError> {
        let value = serde_json::from_str_value(input)?;
        reject_batched_wiring(&value)?;
        Ok(Self::from_value(&value)?)
    }
}

/// `swarm.churn.batched_wiring` is a removed key. Older preset files carry
/// it as `false` or null, which is how every session wires, so they load
/// (the derived reader ignores unknown keys); a file asking for `true`
/// asks for wiring that no longer exists, so it is refused rather than
/// silently ignored.
fn reject_batched_wiring(value: &Value) -> Result<(), ScenarioError> {
    let Some(key) = value
        .get("swarm")
        .and_then(|swarm| swarm.get("churn"))
        .and_then(|churn| churn.get("batched_wiring"))
    else {
        return Ok(());
    };
    match Option::<bool>::from_value(key) {
        Ok(Some(true)) => Err(ScenarioError::InvalidParameter {
            what: "batched_wiring",
            reason: "batched tracker wiring was removed; every request uses the one \
                     tracker path (drop the key or set it to false)"
                .to_string(),
        }),
        Ok(_) => Ok(()),
        Err(e) => Err(e.at("swarm.churn.batched_wiring").into()),
    }
}

#[cfg(test)]
mod tests {
    use strat_bittorrent::universe::{CapacitySplit, MembershipModel};
    use strat_core::InitiativeStrategy;

    use super::*;
    use crate::{
        ArrivalProcess, BehaviorMix, CapacityModel, ChurnModel, DepartureRules, EventTiming,
        FaultPlan, FaultWindow, PreferenceModel, SessionConfig, SwarmParams, TopologyModel,
        UniverseParams,
    };

    fn full_scenario() -> Scenario {
        Scenario::new("full", 321)
            .with_seed(u64::MAX - 1)
            .with_experiment("bt1")
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 12.5 })
            .with_capacity(CapacityModel::SaroiuShuffled {
                shuffle_seed: 0x5455,
            })
            .with_preference(PreferenceModel::BandedRankLatency {
                class_width: 10,
                span: 1000.0,
            })
            .with_churn(ChurnModel::Rate { rate: 0.003 })
            .with_strategy(InitiativeStrategy::Random)
            .with_swarm(SwarmParams {
                seeds: 2,
                fluid_content: true,
                behavior: BehaviorMix {
                    free_riders: 4,
                    altruists: 2,
                },
                ..SwarmParams::default()
            })
    }

    #[test]
    fn round_trip_identity() {
        for scenario in [
            Scenario::new("minimal", 10),
            full_scenario(),
            Scenario::new("explicit", 3)
                .with_topology(TopologyModel::Explicit {
                    edges: vec![(0, 1), (1, 2)],
                })
                .with_capacity(CapacityModel::Explicit {
                    values: vec![3.0, 2.0, 2.0],
                })
                .with_preference(PreferenceModel::GossipEstimated { sample_size: 30 })
                .with_churn(ChurnModel::PoissonPerBaseUnit {
                    events_per_base_unit: 2.5,
                }),
        ] {
            let json = scenario.to_json();
            let parsed = Scenario::from_json(&json).expect("round trip parses");
            assert_eq!(parsed, scenario, "round trip for {}", scenario.name);
            // Pretty form parses to the same value.
            assert_eq!(
                Scenario::from_json(&scenario.to_json_pretty()).unwrap(),
                scenario
            );
        }
    }

    #[test]
    fn json_shape_is_externally_tagged() {
        let json = full_scenario().to_json();
        assert!(json.contains("\"capacity\":{\"SaroiuShuffled\":{\"shuffle_seed\":21589}}"));
        assert!(json.contains("\"strategy\":\"Random\""));
        assert!(json.contains("\"churn\":{\"Rate\":{\"rate\":0.003}}"));
    }

    #[test]
    fn missing_and_unknown_fields_error() {
        assert!(matches!(
            Scenario::from_json("{}"),
            Err(ScenarioError::Parse(_))
        ));
        let mut json = full_scenario().to_json();
        json = json.replace("SaroiuShuffled", "Saroiuu");
        assert!(matches!(
            Scenario::from_json(&json),
            Err(ScenarioError::Parse(_))
        ));
        assert!(Scenario::from_json("not json at all").is_err());

        // Errors name the path to the offending value...
        let scenario = Scenario::new("churny", 10).with_swarm(SwarmParams {
            churn: Some(SessionConfig {
                departure: DepartureRules {
                    abort_prob: 0.01,
                    ..DepartureRules::none()
                },
                ..SessionConfig::default()
            }),
            ..SwarmParams::default()
        });
        let json = scenario.to_json();
        let parse_error = |json: &str| match Scenario::from_json(json) {
            Err(ScenarioError::Parse(message)) => message,
            other => panic!("expected a parse error, got {other:?}"),
        };
        let ill_typed = json.replacen("\"abort_prob\":0.01", "\"abort_prob\":\"x\"", 1);
        assert_ne!(ill_typed, json, "field not rewritten");
        let message = parse_error(&ill_typed);
        assert!(
            message.contains("`swarm.churn.departure.abort_prob`"),
            "{message}"
        );
        assert!(message.contains("expected a number"), "{message}");
        // ...and a missing required field is named under its parent's path.
        let missing = json.replacen(",\"abort_prob\":0.01", "", 1);
        assert_ne!(missing, json, "field not removed");
        let message = parse_error(&missing);
        assert!(message.contains("`swarm.churn.departure`"), "{message}");
        assert!(message.contains("missing field `abort_prob`"), "{message}");
    }

    #[test]
    fn absent_optional_fields_parse_to_none() {
        // Every `Option` field reads an absent key as `None`, like `null`.
        let scenario = Scenario::new("dyn-only", 5);
        let json = scenario.to_json().replace(",\"swarm\":null", "");
        assert!(!json.contains("swarm"), "not stripped: {json}");
        assert_eq!(Scenario::from_json(&json).unwrap(), scenario);

        let scenario = Scenario::new("sparse", 8).with_swarm(SwarmParams {
            churn: Some(SessionConfig::default()),
            timing: Some(EventTiming::default()),
            ..SwarmParams::default()
        });
        let mut json = scenario.to_json();
        for key in ["seed_exodus_round", "transfer_quantum", "announce_interval"] {
            let stripped = json.replacen(&format!("\"{key}\":null,"), "", 1);
            assert_ne!(stripped, json, "{key} not stripped");
            json = stripped;
        }
        assert_eq!(Scenario::from_json(&json).unwrap(), scenario);
    }

    #[test]
    fn churn_section_round_trips() {
        for arrival in [
            ArrivalProcess::None,
            ArrivalProcess::Poisson { rate: 4.5 },
            ArrivalProcess::Trace {
                arrivals: vec![(12, 300)],
            },
            ArrivalProcess::Trace {
                arrivals: vec![(1, 2), (9, 40)],
            },
        ] {
            let scenario = Scenario::new("churny", 40).with_swarm(SwarmParams {
                churn: Some(SessionConfig {
                    arrival,
                    departure: DepartureRules {
                        leave_on_completion: 0.1,
                        seed_leave_prob: 0.25,
                        seed_exodus_round: Some(40),
                        abort_prob: 0.01,
                    },
                    arrival_upload_kbps: 400.0,
                    arrival_completion: 0.05,
                    target_degree: 12,
                    session_seed: 99,
                    peer_list_cap: Some(16),
                    compact_threshold: Some(0.5),
                }),
                ..SwarmParams::default()
            });
            let parsed = Scenario::from_json(&scenario.to_json()).expect("round trip parses");
            assert_eq!(parsed, scenario);
        }
        // `seed_exodus_round: null` round-trips too.
        let scenario = Scenario::new("churny", 10).with_swarm(SwarmParams {
            churn: Some(SessionConfig::default()),
            ..SwarmParams::default()
        });
        assert_eq!(Scenario::from_json(&scenario.to_json()).unwrap(), scenario);
    }

    #[test]
    fn faults_section_round_trips() {
        let scenario = Scenario::new("faulty", 30).with_swarm(SwarmParams {
            churn: Some(SessionConfig::default()),
            faults: Some(FaultPlan {
                crash_prob: 0.01,
                loss_prob: 0.05,
                outages: vec![FaultWindow {
                    start: 5,
                    rounds: 3,
                }],
                partitions: vec![
                    FaultWindow {
                        start: 10,
                        rounds: 4,
                    },
                    FaultWindow {
                        start: 30,
                        rounds: 2,
                    },
                ],
                fault_seed: 0xfa17,
            }),
            ..SwarmParams::default()
        });
        let json = scenario.to_json();
        assert!(json.contains("\"faults\":{\"crash_prob\":0.01"));
        let parsed = Scenario::from_json(&json).expect("faults round trip parses");
        assert_eq!(parsed, scenario);
        // Pretty form too.
        assert_eq!(
            Scenario::from_json(&scenario.to_json_pretty()).unwrap(),
            scenario
        );
    }

    #[test]
    fn timing_section_round_trips() {
        for timing in [
            EventTiming::default(),
            EventTiming {
                rechoke_interval: 10.0,
                transfer_quantum: Some(10.0),
                announce_interval: Some(120.0),
                speed_multipliers: vec![0.5, 1.0, 2.0],
            },
        ] {
            let scenario = Scenario::new("timed", 20).with_swarm(SwarmParams {
                timing: Some(timing),
                ..SwarmParams::default()
            });
            let json = scenario.to_json();
            assert!(json.contains("\"timing\":{\"rechoke_interval\":10"));
            let parsed = Scenario::from_json(&json).expect("timing round trip parses");
            assert_eq!(parsed, scenario);
            // Pretty form too.
            assert_eq!(
                Scenario::from_json(&scenario.to_json_pretty()).unwrap(),
                scenario
            );
        }
    }

    #[test]
    fn legacy_swarm_sections_without_timing_parse_to_none() {
        // Pre-event-core preset files carry no `timing` key at all.
        let scenario = Scenario::new("legacy", 8).with_swarm(SwarmParams::default());
        let json = scenario.to_json().replace(",\"timing\":null", "");
        assert!(!json.contains("timing"), "not stripped: {json}");
        let parsed = Scenario::from_json(&json).expect("legacy JSON parses");
        assert_eq!(parsed.swarm.unwrap().timing, None);
    }

    #[test]
    fn removed_batched_wiring_key_is_rejected_only_when_true() {
        let scenario = Scenario::new("legacy", 8).with_swarm(SwarmParams {
            churn: Some(SessionConfig::default()),
            ..SwarmParams::default()
        });
        let json = scenario.to_json();
        assert!(!json.contains("batched_wiring"), "still emitted: {json}");
        // Older preset files carry the key after `session_seed`.
        let with_key = |value: &str| {
            let patched = json.replacen(
                "\"session_seed\":24149,",
                &format!("\"session_seed\":24149,\"batched_wiring\":{value},"),
                1,
            );
            assert_ne!(patched, json, "key not spliced in");
            Scenario::from_json(&patched)
        };
        for legacy in ["false", "null"] {
            assert_eq!(with_key(legacy).expect("legacy JSON parses"), scenario);
        }
        assert_eq!(
            Scenario::from_json(&json).expect("absent key parses"),
            scenario
        );
        match with_key("true") {
            Err(ScenarioError::InvalidParameter { what, reason }) => {
                assert_eq!(what, "batched_wiring");
                assert!(reason.contains("removed"), "{reason}");
            }
            other => panic!("batched_wiring: true must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn legacy_churn_sections_without_peer_list_cap_parse_to_none() {
        // Pre-tracker-cap preset files carry no `peer_list_cap` key.
        let scenario = Scenario::new("legacy", 8).with_swarm(SwarmParams {
            churn: Some(SessionConfig::default()),
            ..SwarmParams::default()
        });
        let json = scenario.to_json().replace(",\"peer_list_cap\":null", "");
        assert!(!json.contains("peer_list_cap"), "not stripped: {json}");
        let parsed = Scenario::from_json(&json).expect("legacy JSON parses");
        assert_eq!(parsed.swarm.unwrap().churn.unwrap().peer_list_cap, None);
        // And the explicit capped form round-trips.
        let scenario = Scenario::new("capped", 8).with_swarm(SwarmParams {
            churn: Some(SessionConfig {
                peer_list_cap: Some(8),
                ..SessionConfig::default()
            }),
            ..SwarmParams::default()
        });
        let parsed = Scenario::from_json(&scenario.to_json()).expect("round trip parses");
        assert_eq!(parsed.swarm.unwrap().churn.unwrap().peer_list_cap, Some(8));
    }

    #[test]
    fn legacy_churn_sections_without_compact_threshold_parse_to_none() {
        // Pre-compaction preset files carry no `compact_threshold` key.
        let scenario = Scenario::new("legacy", 8).with_swarm(SwarmParams {
            churn: Some(SessionConfig::default()),
            ..SwarmParams::default()
        });
        let json = scenario
            .to_json()
            .replace(",\"compact_threshold\":null", "");
        assert!(!json.contains("compact_threshold"), "not stripped: {json}");
        let parsed = Scenario::from_json(&json).expect("legacy JSON parses");
        assert_eq!(parsed.swarm.unwrap().churn.unwrap().compact_threshold, None);
        // And the explicit compacting form round-trips.
        let scenario = Scenario::new("compacting", 8).with_swarm(SwarmParams {
            churn: Some(SessionConfig {
                compact_threshold: Some(0.25),
                ..SessionConfig::default()
            }),
            ..SwarmParams::default()
        });
        let parsed = Scenario::from_json(&scenario.to_json()).expect("round trip parses");
        assert_eq!(
            parsed.swarm.unwrap().churn.unwrap().compact_threshold,
            Some(0.25)
        );
    }

    #[test]
    fn universe_section_round_trips() {
        for (membership, split) in [
            (
                MembershipModel::Fixed { extra: 0 },
                CapacitySplit::EqualShare,
            ),
            (
                MembershipModel::Fixed { extra: 2 },
                CapacitySplit::DemandWeighted,
            ),
        ] {
            let scenario = Scenario::new("multi", 25).with_swarm(SwarmParams {
                churn: Some(SessionConfig::default()),
                universe: Some(UniverseParams {
                    torrents: 8,
                    popularity_skew: 1.2,
                    membership,
                    split,
                    class_upload_kbps: vec![150.0, 400.0, 950.0],
                    universe_seed: 0xbead,
                }),
                ..SwarmParams::default()
            });
            let json = scenario.to_json();
            assert!(json.contains("\"universe\":{\"torrents\":8"));
            let parsed = Scenario::from_json(&json).expect("universe round trip parses");
            assert_eq!(parsed, scenario);
            // Pretty form too.
            assert_eq!(
                Scenario::from_json(&scenario.to_json_pretty()).unwrap(),
                scenario
            );
        }
    }

    #[test]
    fn legacy_swarm_sections_without_universe_parse_to_none() {
        // Pre-universe preset files carry no `universe` key at all.
        let scenario = Scenario::new("legacy", 8).with_swarm(SwarmParams::default());
        let json = scenario.to_json().replace(",\"universe\":null", "");
        assert!(!json.contains("universe"), "not stripped: {json}");
        let parsed = Scenario::from_json(&json).expect("legacy JSON parses");
        assert_eq!(parsed.swarm.unwrap().universe, None);
    }

    #[test]
    fn legacy_swarm_sections_without_faults_parse_to_none() {
        // Pre-fault preset files carry no `faults` key at all.
        let scenario = Scenario::new("legacy", 8).with_swarm(SwarmParams::default());
        let json = scenario.to_json().replace(",\"faults\":null", "");
        assert!(!json.contains("faults"), "not stripped: {json}");
        let parsed = Scenario::from_json(&json).expect("legacy JSON parses");
        assert_eq!(parsed.swarm.unwrap().faults, None);
    }

    #[test]
    fn legacy_swarm_sections_without_churn_parse_to_none() {
        // Pre-churn preset files carry no `churn` key at all.
        let scenario = Scenario::new("legacy", 8).with_swarm(SwarmParams::default());
        let json = scenario.to_json().replace(",\"churn\":null", "");
        // Only the scenario-level ChurnModel axis key remains.
        assert_eq!(json.matches("churn").count(), 1, "not stripped: {json}");
        let parsed = Scenario::from_json(&json).expect("legacy JSON parses");
        assert_eq!(parsed.swarm.unwrap().churn, None);
    }

    #[test]
    fn null_swarm_round_trips_to_none() {
        let scenario = Scenario::new("dyn-only", 5);
        let json = scenario.to_json();
        assert!(json.contains("\"swarm\":null"));
        assert_eq!(Scenario::from_json(&json).unwrap().swarm, None);
    }

    #[test]
    fn to_json_matches_trait_serialization() {
        use serde::Serialize as _;
        let s = Scenario::new("x", 1);
        let mut out = String::new();
        s.serialize_json_into(&mut out);
        assert_eq!(out, s.to_json());
    }
}
