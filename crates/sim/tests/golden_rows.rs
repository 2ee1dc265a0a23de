//! Differential guard for the Scenario migration: every experiment's data
//! rows, at the quick profile with seed 2007, must stay **bit-identical**
//! to the pre-migration harness (PR 1 state). The golden fingerprints were
//! harvested from that code before any experiment was touched.
//!
//! Run with `GOLDEN_PRINT=1` to print current fingerprints (for refreshing
//! after an *intentional* row change — document such changes in
//! EXPERIMENTS.md/CHANGES.md).

use strat_sim::runner::{self, ExperimentContext};

/// FNV-1a over the exact f64 bit patterns of the row data.
fn fingerprint(rows: &[Vec<f64>]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for row in rows {
        for &value in row {
            for byte in value.to_bits().to_le_bytes() {
                eat(byte);
            }
        }
        eat(b'\n');
    }
    hash
}

/// `(id, fingerprint)` pairs harvested from the pre-Scenario harness.
const GOLDEN: &[(&str, u64)] = &[
    ("fig1", 0xb2286407dc63a8c5),
    ("fig2", 0x3a232a9f25ec8a95),
    ("fig3", 0xa23bcad813f4d0f4),
    ("fig45", 0x5ce337a2a7fddfd4),
    ("table1", 0xdb7fc9a38eddd76e),
    ("fig6", 0x080854c2f705590f),
    ("fig7", 0xbf02c29edd43147f),
    ("fig8", 0x76ff142f830e32fb),
    // Re-pinned once when the Monte Carlo moved to the lazy greedy
    // sampler (same law, different draws).
    ("fig9", 0xa872c3b79c3b180b),
    ("fig10", 0x8e127414f94cddf0),
    ("fig11", 0xe1aa4db351f79bf1),
    ("bt1", 0x703d7a80283f8682),
    // PR 3 additions (flash crowd + free-rider sweep), recorded at birth.
    ("btflash", 0x422fc5a079cae2f7),
    ("btfree", 0x540dc519723119b3),
    ("ext1", 0x96ff492352c0fa6e),
    ("ext2", 0x87423fc70fa52cc7),
    // PR 4 addition (generic-engine latency clustering), recorded at birth.
    ("latstrat", 0xc2b9f5910930b60f),
    // PR 5 addition (open-membership churn sweep vs the fluid model),
    // recorded at birth.
    ("btchurn", 0x1310264f860d92cb),
    // PR 6 addition (fault-plane degradation/recovery sweep), recorded at
    // birth.
    ("btfault", 0x4cca2b7cae661056),
    // PR 7 addition (event-engine heterogeneity sweep vs the multi-class
    // fluid model), recorded at birth; re-pinned once when the event
    // core's wiring moved onto the shared tracker module.
    ("btevent", 0x119117c0e94d526c),
    // PR 8 additions (observer-layer clustering + live-overlay sweeps),
    // recorded at birth.
    ("btcluster", 0x8e7790d9562b9e73),
    ("btoverlay", 0x6e199d7e5d7422f9),
    // PR 10 addition (multi-swarm shared-population universe sweep),
    // recorded at birth.
    ("btmulti", 0x1f437f8ea1d63274),
    ("fluid", 0xc0fe96f77ba157fe),
    ("mmo", 0x27179e7ca8fb3385),
];

#[test]
fn rows_match_pre_migration_goldens() {
    let ctx = ExperimentContext {
        quick: true,
        seed: 2007,
    };
    let print = std::env::var("GOLDEN_PRINT").is_ok();
    let mut failures = Vec::new();
    for entry in runner::registry() {
        let result = (entry.run)(&ctx);
        let fp = fingerprint(&result.rows);
        if print {
            println!("    (\"{}\", 0x{fp:016x}),", entry.id);
            continue;
        }
        match GOLDEN.iter().find(|(id, _)| *id == entry.id) {
            Some(&(_, want)) if want == fp => {}
            Some(&(_, want)) => failures.push(format!(
                "{}: fingerprint 0x{fp:016x} != golden 0x{want:016x}",
                entry.id
            )),
            None => failures.push(format!("{}: no golden recorded (0x{fp:016x})", entry.id)),
        }
    }
    assert!(failures.is_empty(), "row drift detected:\n{failures:#?}");
}
