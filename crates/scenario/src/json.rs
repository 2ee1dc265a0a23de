//! JSON round-trip for [`Scenario`]: serialization comes from the serde
//! derives (externally tagged enums, exactly like upstream serde's
//! defaults); deserialization walks the `serde_json::Value` tree produced
//! by the shim parser.

use serde_json::Value;
use strat_core::InitiativeStrategy;

use strat_bittorrent::universe::{CapacitySplit, MembershipModel};

use crate::{
    ArrivalProcess, BehaviorMix, CapacityModel, ChurnModel, DepartureRules, EventTiming, FaultPlan,
    FaultWindow, PreferenceModel, Scenario, ScenarioError, SessionConfig, SwarmParams,
    TopologyModel, UniverseParams,
};

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
    /// variants, or missing/ill-typed fields.
    pub fn from_json(input: &str) -> Result<Self, ScenarioError> {
        let value = serde_json::from_str_value(input)?;
        Self::from_value(&value)
    }

    fn from_value(value: &Value) -> Result<Self, ScenarioError> {
        Ok(Self {
            name: string_field(value, "name")?,
            experiment: string_field(value, "experiment")?,
            seed: u64_field(value, "seed")?,
            peers: usize_field(value, "peers")?,
            capacity: CapacityModel::from_value(require(value, "capacity")?)?,
            topology: TopologyModel::from_value(require(value, "topology")?)?,
            preference: PreferenceModel::from_value(require(value, "preference")?)?,
            churn: ChurnModel::from_value(require(value, "churn")?)?,
            strategy: strategy_from_value(require(value, "strategy")?)?,
            swarm: match require(value, "swarm")? {
                Value::Null => None,
                v => Some(SwarmParams::from_value(v)?),
            },
        })
    }
}

impl CapacityModel {
    fn from_value(value: &Value) -> Result<Self, ScenarioError> {
        let (tag, body) = variant(value, "capacity model")?;
        match tag {
            "Constant" => Ok(CapacityModel::Constant {
                value: f64_field(body, "value")?,
            }),
            "RoundedNormal" => Ok(CapacityModel::RoundedNormal {
                mean: f64_field(body, "mean")?,
                sigma: f64_field(body, "sigma")?,
            }),
            "Uniform" => Ok(CapacityModel::Uniform {
                lo: f64_field(body, "lo")?,
                hi: f64_field(body, "hi")?,
            }),
            "SaroiuByRank" => Ok(CapacityModel::SaroiuByRank),
            "SaroiuShuffled" => Ok(CapacityModel::SaroiuShuffled {
                shuffle_seed: u64_field(body, "shuffle_seed")?,
            }),
            "Explicit" => Ok(CapacityModel::Explicit {
                values: f64_array_field(body, "values")?,
            }),
            other => Err(unknown_variant("capacity model", other)),
        }
    }
}

impl TopologyModel {
    fn from_value(value: &Value) -> Result<Self, ScenarioError> {
        let (tag, body) = variant(value, "topology model")?;
        match tag {
            "Complete" => Ok(TopologyModel::Complete),
            "ErdosRenyiMeanDegree" => Ok(TopologyModel::ErdosRenyiMeanDegree {
                d: f64_field(body, "d")?,
            }),
            "ErdosRenyiEdgeProbability" => Ok(TopologyModel::ErdosRenyiEdgeProbability {
                p: f64_field(body, "p")?,
            }),
            "Explicit" => {
                let raw = require(body, "edges")?
                    .as_array()
                    .ok_or_else(|| type_error("edges", "array"))?;
                let mut edges = Vec::with_capacity(raw.len());
                for pair in raw {
                    let pair = pair
                        .as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| type_error("edge", "[u, v] pair"))?;
                    edges.push((
                        pair[0]
                            .as_usize()
                            .ok_or_else(|| type_error("edge endpoint", "index"))?,
                        pair[1]
                            .as_usize()
                            .ok_or_else(|| type_error("edge endpoint", "index"))?,
                    ));
                }
                Ok(TopologyModel::Explicit { edges })
            }
            other => Err(unknown_variant("topology model", other)),
        }
    }
}

impl PreferenceModel {
    fn from_value(value: &Value) -> Result<Self, ScenarioError> {
        let (tag, body) = variant(value, "preference model")?;
        match tag {
            "GlobalRank" => Ok(PreferenceModel::GlobalRank),
            "GossipEstimated" => Ok(PreferenceModel::GossipEstimated {
                sample_size: usize_field(body, "sample_size")?,
            }),
            "Latency" => Ok(PreferenceModel::Latency {
                span: f64_field(body, "span")?,
            }),
            "BandedRankLatency" => Ok(PreferenceModel::BandedRankLatency {
                class_width: usize_field(body, "class_width")?,
                span: f64_field(body, "span")?,
            }),
            other => Err(unknown_variant("preference model", other)),
        }
    }
}

impl ChurnModel {
    fn from_value(value: &Value) -> Result<Self, ScenarioError> {
        let (tag, body) = variant(value, "churn model")?;
        match tag {
            "None" => Ok(ChurnModel::None),
            "Rate" => Ok(ChurnModel::Rate {
                rate: f64_field(body, "rate")?,
            }),
            "PoissonPerBaseUnit" => Ok(ChurnModel::PoissonPerBaseUnit {
                events_per_base_unit: f64_field(body, "events_per_base_unit")?,
            }),
            other => Err(unknown_variant("churn model", other)),
        }
    }
}

impl SwarmParams {
    fn from_value(value: &Value) -> Result<Self, ScenarioError> {
        let behavior = require(value, "behavior")?;
        Ok(Self {
            seeds: usize_field(value, "seeds")?,
            seed_upload_kbps: f64_field(value, "seed_upload_kbps")?,
            tft_slots: usize_field(value, "tft_slots")?,
            optimistic_slots: usize_field(value, "optimistic_slots")?,
            optimistic_period: u32::try_from(u64_field(value, "optimistic_period")?)
                .map_err(|_| type_error("optimistic_period", "u32"))?,
            piece_count: usize_field(value, "piece_count")?,
            piece_size_kbit: f64_field(value, "piece_size_kbit")?,
            round_seconds: f64_field(value, "round_seconds")?,
            initial_completion: f64_field(value, "initial_completion")?,
            seed_after_completion: bool_field(value, "seed_after_completion")?,
            fluid_content: bool_field(value, "fluid_content")?,
            swarm_seed: u64_field(value, "swarm_seed")?,
            behavior: BehaviorMix {
                free_riders: usize_field(behavior, "free_riders")?,
                altruists: usize_field(behavior, "altruists")?,
            },
            churn: optional_section(value, "churn", session_config_from_value)?,
            faults: optional_section(value, "faults", fault_plan_from_value)?,
            timing: optional_section(value, "timing", event_timing_from_value)?,
            universe: optional_section(value, "universe", universe_params_from_value)?,
        })
    }
}

/// Legacy-tolerant optional swarm sub-section: preset files written
/// before a section existed carry no key at all, and absence — like an
/// explicit `null` — means the section is disabled (closed swarm, no
/// faults, synchronous rounds, single torrent).
fn optional_section<T>(
    value: &Value,
    field: &str,
    parse: impl FnOnce(&Value) -> Result<T, ScenarioError>,
) -> Result<Option<T>, ScenarioError> {
    match value.get(field) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => parse(v).map(Some),
    }
}

fn universe_params_from_value(value: &Value) -> Result<UniverseParams, ScenarioError> {
    Ok(UniverseParams {
        torrents: usize_field(value, "torrents")?,
        popularity_skew: f64_field(value, "popularity_skew")?,
        membership: membership_from_value(require(value, "membership")?)?,
        split: split_from_value(require(value, "split")?)?,
        class_upload_kbps: f64_array_field(value, "class_upload_kbps")?,
        universe_seed: u64_field(value, "universe_seed")?,
    })
}

fn membership_from_value(value: &Value) -> Result<MembershipModel, ScenarioError> {
    let (tag, body) = variant(value, "membership model")?;
    match tag {
        "Single" => Ok(MembershipModel::Single),
        "Fixed" => Ok(MembershipModel::Fixed {
            extra: usize_field(body, "extra")?,
        }),
        other => Err(unknown_variant("membership model", other)),
    }
}

fn split_from_value(value: &Value) -> Result<CapacitySplit, ScenarioError> {
    let (tag, _) = variant(value, "capacity split")?;
    match tag {
        "EqualShare" => Ok(CapacitySplit::EqualShare),
        "DemandWeighted" => Ok(CapacitySplit::DemandWeighted),
        other => Err(unknown_variant("capacity split", other)),
    }
}

fn event_timing_from_value(value: &Value) -> Result<EventTiming, ScenarioError> {
    let multipliers = require(value, "speed_multipliers")?
        .as_array()
        .ok_or_else(|| type_error("speed_multipliers", "array"))?
        .iter()
        .map(|m| {
            m.as_f64()
                .ok_or_else(|| type_error("speed multiplier", "number"))
        })
        .collect::<Result<Vec<f64>, _>>()?;
    Ok(EventTiming {
        rechoke_interval: f64_field(value, "rechoke_interval")?,
        transfer_quantum: optional_f64_field(value, "transfer_quantum")?,
        announce_interval: optional_f64_field(value, "announce_interval")?,
        speed_multipliers: multipliers,
    })
}

fn optional_f64_field(value: &Value, field: &str) -> Result<Option<f64>, ScenarioError> {
    match require(value, field)? {
        Value::Null => Ok(None),
        v => Ok(Some(
            v.as_f64()
                .ok_or_else(|| type_error(field, "number or null"))?,
        )),
    }
}

fn fault_plan_from_value(value: &Value) -> Result<FaultPlan, ScenarioError> {
    Ok(FaultPlan {
        crash_prob: f64_field(value, "crash_prob")?,
        loss_prob: f64_field(value, "loss_prob")?,
        outages: fault_windows_field(value, "outages")?,
        partitions: fault_windows_field(value, "partitions")?,
        fault_seed: u64_field(value, "fault_seed")?,
    })
}

fn fault_windows_field(value: &Value, field: &str) -> Result<Vec<FaultWindow>, ScenarioError> {
    require(value, field)?
        .as_array()
        .ok_or_else(|| type_error(field, "array"))?
        .iter()
        .map(|w| {
            Ok(FaultWindow {
                start: u64_field(w, "start")?,
                rounds: u64_field(w, "rounds")?,
            })
        })
        .collect()
}

fn session_config_from_value(value: &Value) -> Result<SessionConfig, ScenarioError> {
    // `batched_wiring` is a removed key. Older preset files carry it as
    // `false` or null, which is how every session wires, so they load; a
    // file asking for `true` asks for wiring that no longer exists, so it
    // is refused rather than silently ignored.
    match value.get("batched_wiring") {
        None | Some(Value::Null | Value::Bool(false)) => {}
        Some(Value::Bool(true)) => {
            return Err(ScenarioError::InvalidParameter {
                what: "batched_wiring",
                reason: "batched tracker wiring was removed; every request uses the one \
                         tracker path (drop the key or set it to false)"
                    .to_string(),
            })
        }
        Some(_) => return Err(type_error("batched_wiring", "bool")),
    }
    let departure = require(value, "departure")?;
    Ok(SessionConfig {
        arrival: arrival_from_value(require(value, "arrival")?)?,
        departure: DepartureRules {
            leave_on_completion: f64_field(departure, "leave_on_completion")?,
            seed_leave_prob: f64_field(departure, "seed_leave_prob")?,
            seed_exodus_round: match require(departure, "seed_exodus_round")? {
                Value::Null => None,
                v => {
                    Some(v.as_u64().ok_or_else(|| {
                        type_error("seed_exodus_round", "unsigned integer or null")
                    })?)
                }
            },
            abort_prob: f64_field(departure, "abort_prob")?,
        },
        arrival_upload_kbps: f64_field(value, "arrival_upload_kbps")?,
        arrival_completion: f64_field(value, "arrival_completion")?,
        target_degree: usize_field(value, "target_degree")?,
        session_seed: u64_field(value, "session_seed")?,
        // Legacy tolerance again: pre-tracker-cap preset files carry no
        // `peer_list_cap` key; absence (like null) means uncapped.
        peer_list_cap: match value.get("peer_list_cap") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .and_then(|c| usize::try_from(c).ok())
                    .ok_or_else(|| type_error("peer_list_cap", "unsigned integer or null"))?,
            ),
        },
        // Legacy tolerance once more: pre-compaction preset files carry
        // no `compact_threshold` key; absence (like null) never compacts.
        compact_threshold: match value.get("compact_threshold") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_f64()
                    .ok_or_else(|| type_error("compact_threshold", "number or null"))?,
            ),
        },
    })
}

fn arrival_from_value(value: &Value) -> Result<ArrivalProcess, ScenarioError> {
    let (tag, body) = variant(value, "arrival process")?;
    match tag {
        "None" => Ok(ArrivalProcess::None),
        "Poisson" => Ok(ArrivalProcess::Poisson {
            rate: f64_field(body, "rate")?,
        }),
        "Burst" => Ok(ArrivalProcess::Burst {
            round: u64_field(body, "round")?,
            count: u32::try_from(u64_field(body, "count")?)
                .map_err(|_| type_error("count", "u32"))?,
        }),
        "Trace" => {
            let raw = require(body, "arrivals")?
                .as_array()
                .ok_or_else(|| type_error("arrivals", "array"))?;
            let mut arrivals = Vec::with_capacity(raw.len());
            for pair in raw {
                let pair = pair
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| type_error("arrival entry", "[round, count] pair"))?;
                arrivals.push((
                    pair[0]
                        .as_u64()
                        .ok_or_else(|| type_error("arrival round", "unsigned integer"))?,
                    u32::try_from(
                        pair[1]
                            .as_u64()
                            .ok_or_else(|| type_error("arrival count", "unsigned integer"))?,
                    )
                    .map_err(|_| type_error("arrival count", "u32"))?,
                ));
            }
            Ok(ArrivalProcess::Trace { arrivals })
        }
        other => Err(unknown_variant("arrival process", other)),
    }
}

fn strategy_from_value(value: &Value) -> Result<InitiativeStrategy, ScenarioError> {
    match value.as_str() {
        Some("BestMate") => Ok(InitiativeStrategy::BestMate),
        Some("Decremental") => Ok(InitiativeStrategy::Decremental),
        Some("Random") => Ok(InitiativeStrategy::Random),
        Some(other) => Err(unknown_variant("initiative strategy", other)),
        None => Err(type_error("strategy", "string")),
    }
}

/// Splits an externally tagged enum value into `(variant, body)`; unit
/// variants are bare strings with a null body.
fn variant<'v>(value: &'v Value, what: &str) -> Result<(&'v str, &'v Value), ScenarioError> {
    static NULL: Value = Value::Null;
    if let Some(tag) = value.as_str() {
        return Ok((tag, &NULL));
    }
    if let Some(map) = value.as_object() {
        if map.len() == 1 {
            let (tag, body) = map.iter().next().expect("len checked");
            return Ok((tag.as_str(), body));
        }
    }
    Err(ScenarioError::Parse(format!(
        "expected an externally tagged {what}, found {value:?}"
    )))
}

fn require<'v>(value: &'v Value, field: &str) -> Result<&'v Value, ScenarioError> {
    value
        .get(field)
        .ok_or_else(|| ScenarioError::Parse(format!("missing field `{field}`")))
}

fn type_error(field: &str, wanted: &str) -> ScenarioError {
    ScenarioError::Parse(format!("field `{field}` must be a {wanted}"))
}

fn string_field(value: &Value, field: &str) -> Result<String, ScenarioError> {
    require(value, field)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| type_error(field, "string"))
}

fn f64_field(value: &Value, field: &str) -> Result<f64, ScenarioError> {
    require(value, field)?
        .as_f64()
        .ok_or_else(|| type_error(field, "number"))
}

fn u64_field(value: &Value, field: &str) -> Result<u64, ScenarioError> {
    require(value, field)?
        .as_u64()
        .ok_or_else(|| type_error(field, "unsigned integer"))
}

fn usize_field(value: &Value, field: &str) -> Result<usize, ScenarioError> {
    require(value, field)?
        .as_usize()
        .ok_or_else(|| type_error(field, "unsigned integer"))
}

fn bool_field(value: &Value, field: &str) -> Result<bool, ScenarioError> {
    require(value, field)?
        .as_bool()
        .ok_or_else(|| type_error(field, "bool"))
}

fn f64_array_field(value: &Value, field: &str) -> Result<Vec<f64>, ScenarioError> {
    require(value, field)?
        .as_array()
        .ok_or_else(|| type_error(field, "array"))?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| type_error(field, "number array")))
        .collect()
}

fn unknown_variant(what: &str, tag: &str) -> ScenarioError {
    ScenarioError::Parse(format!("unknown {what} variant `{tag}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SwarmParams;

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
    }

    #[test]
    fn churn_section_round_trips() {
        for arrival in [
            ArrivalProcess::None,
            ArrivalProcess::Poisson { rate: 4.5 },
            ArrivalProcess::Burst {
                round: 12,
                count: 300,
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
            (MembershipModel::Single, CapacitySplit::EqualShare),
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
