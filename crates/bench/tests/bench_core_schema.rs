//! Schema and row-presence gate for the checked-in `BENCH_core.json`:
//! the exporter's output must parse, every measurement must be a finite
//! positive median with non-empty names, every speedup row must be a
//! median ratio inside its quartiles with both of its pair's sides among
//! the measurements, the fifteen pairs must all be there, and the
//! scale-path rows
//! (n = 10⁵ and n = 10⁶ flash rounds, the million-peer churn round) must
//! be present — a refresh that silently drops them fails here instead of
//! during the next perf comparison.

use serde_json::Value;

fn load() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_core.json");
    let raw = std::fs::read_to_string(path).expect("BENCH_core.json is checked in at repo root");
    serde_json::from_str_value(&raw).expect("BENCH_core.json parses")
}

fn section<'a>(report: &'a Value, key: &str) -> &'a [Value] {
    report
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("`{key}` is an array"))
}

fn text(row: &Value, key: &str) -> String {
    row.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("row has string `{key}`: {row:?}"))
        .to_string()
}

fn num(row: &Value, key: &str) -> f64 {
    row.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("row has numeric `{key}`: {row:?}"))
}

/// The `groups` rows as `(group, bench, median_ns)`.
fn rows(report: &Value) -> Vec<(String, String, f64)> {
    section(report, "groups")
        .iter()
        .map(|row| {
            (
                text(row, "group"),
                text(row, "bench"),
                num(row, "median_ns"),
            )
        })
        .collect()
}

#[test]
fn report_schema_is_well_formed() {
    let report = load();
    for key in ["generated_by", "command"] {
        let s = report
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("`{key}` is a string"));
        assert!(!s.is_empty(), "`{key}` is non-empty");
    }
    let time_scale = report
        .get("time_scale")
        .and_then(Value::as_f64)
        .expect("`time_scale` is a number");
    assert!(time_scale.is_finite() && time_scale > 0.0);

    let groups = rows(&report);
    assert!(!groups.is_empty(), "at least one measurement");
    for (group, bench, median_ns) in &groups {
        assert!(!group.is_empty() && !bench.is_empty());
        assert!(
            median_ns.is_finite() && *median_ns > 0.0,
            "{group}/{bench}: median {median_ns} ns"
        );
    }
    let mut keys: Vec<_> = groups.iter().map(|(g, b, _)| (g, b)).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), groups.len(), "duplicate measurement rows");
}

#[test]
fn speedup_rows_are_consistent_with_their_pairs() {
    let report = load();
    let groups = rows(&report);
    let measured =
        |group: &str, bench: &str| groups.iter().any(|(g, b, _)| g == group && b == bench);
    let mut pairs = Vec::new();
    for row in section(&report, "speedups") {
        let (speedup, q1, q3) = (
            num(row, "speedup"),
            num(row, "speedup_q1"),
            num(row, "speedup_q3"),
        );
        for x in [
            speedup,
            q1,
            q3,
            num(row, "reference_ns"),
            num(row, "optimized_ns"),
        ] {
            assert!(x.is_finite() && x > 0.0, "non-positive figure: {row:?}");
        }
        assert!(
            q1 <= speedup && speedup <= q3,
            "median outside its quartiles: {row:?}"
        );
        let group = text(row, "group");
        for side in ["bench", "reference_bench"] {
            assert!(
                measured(&group, &text(row, side)),
                "pair side `{side}` has no `groups` row: {row:?}"
            );
        }
        pairs.push(format!("{group}/{}", text(row, "bench")));
    }
    pairs.sort();
    let mut expected = [
        "stable_configuration/erdos_renyi_d20_b3/1000",
        "stable_configuration/erdos_renyi_d20_b3/10000",
        "stable_configuration/erdos_renyi_d20_b3/100000",
        "dynamics/BestMate_base_unit_n1000_d10",
        "dynamics/Decremental_base_unit_n1000_d10",
        "dynamics/Random_base_unit_n1000_d10",
        "prefs/converge_latency_d20_b3/500",
        "prefs/converge_latency_d20_b3/2000",
        "prefs/settled_sweep_latency_d20_b3/2000",
        "swarm/round_n500_fluid",
        "swarm/rounds8_n500_pieces",
        "swarm/rounds_indexed_n2000_fluid",
        "events/sync_rounds8_n500_pieces",
        "monte_carlo/per_realization_n5000_p0.01_b2",
        "observer/round_n2000_fluid",
    ];
    expected.sort_unstable();
    // Equal sorted lists: unique names, and exactly these fifteen pairs.
    assert_eq!(
        pairs, expected,
        "speedup pairs differ from the fifteen expected"
    );
}

#[test]
fn scale_path_rows_are_present() {
    let report = load();
    let groups = rows(&report);
    for (group, bench) in [
        ("swarm", "flash_round_indexed_n100000_pieces"),
        ("swarm", "flash_round_indexed_n1000000_pieces"),
        ("session", "round_churn_n1000"),
        ("session", "round_churn_indexed_n1000000"),
        ("universe", "round_shared_n1000_t8"),
        ("universe", "membership_join_leave_d20"),
    ] {
        assert!(
            groups.iter().any(|(g, b, _)| g == group && b == bench),
            "scale-path row {group}/{bench} missing from BENCH_core.json"
        );
    }
}
