//! The paper's §7 proposal, runnable: combine a bandwidth ranking with a
//! symmetric latency utility and watch the stratification/locality
//! trade-off move — plus gossip-estimated ranks instead of oracle ones.
//!
//! ```text
//! cargo run --release --example combined_utilities
//! ```

use rand::Rng;
use rand::SeedableRng;
use stratification::core::prefs::{
    BandedRankPrefs, GlobalPrefs, LatencyPrefs, LexicographicPrefs, PreferenceSystem,
};
use stratification::core::{
    gossip, Capacities, Dynamics, GlobalRanking, InitiativeStrategy, Matching, PrefAcceptance,
};
use stratification::graph::{generators, Graph, NodeId};

fn report(label: &str, matching: &Matching, ranking: &GlobalRanking, latency: &LatencyPrefs) {
    let (mut offset, mut dist, mut count) = (0.0, 0.0, 0.0f64);
    for v in 0..matching.node_count() {
        let v_id = NodeId::new(v);
        let mut mates = matching.mates(v_id).to_vec();
        mates.sort_unstable();
        for w in mates {
            offset += ranking.offset(v_id, w) as f64;
            dist += latency.distance(v_id, w);
            count += 1.0;
        }
    }
    println!(
        "{label:<34} mean rank offset {:>6.1}   mean latency {:>6.1}",
        offset / count.max(1.0),
        dist / count.max(1.0)
    );
}

/// The round-robin best-mate fixpoint from the empty configuration.
fn settle<P: PreferenceSystem>(graph: &Graph, prefs: &P, caps: &Capacities) -> Matching {
    let mut dynamics = Dynamics::new(
        PrefAcceptance::build(graph, prefs),
        caps.clone(),
        InitiativeStrategy::BestMate,
    )
    .expect("sizes agree");
    dynamics.settle().expect("cycle-free utilities settle");
    dynamics.into_parts().0
}

fn main() {
    let n = 400;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
    let graph = generators::erdos_renyi_mean_degree(n, 24.0, &mut rng);
    let ranking = GlobalRanking::identity(n);
    let latency = LatencyPrefs::new((0..n).map(|_| rng.gen_range(0.0..1000.0)).collect());
    let caps = Capacities::constant(n, 3);

    println!("== trading stratification for locality (n={n}, b0=3, d=24) ==");
    report(
        "pure bandwidth ranking",
        &settle(&graph, &GlobalPrefs::new(ranking.clone()), &caps),
        &ranking,
        &latency,
    );
    for width in [10usize, 40, 100] {
        let prefs = LexicographicPrefs::new(
            BandedRankPrefs::new(ranking.clone(), width),
            latency.clone(),
        );
        report(
            &format!("rank classes of {width} + latency"),
            &settle(&graph, &prefs, &caps),
            &ranking,
            &latency,
        );
    }
    report(
        "pure latency",
        &settle(&graph, &latency, &caps),
        &ranking,
        &latency,
    );

    println!("\n== gossip-estimated ranks instead of an oracle ==");
    for k in [5usize, 25, 100] {
        let estimated = gossip::estimate_ranking(&ranking, k, &mut rng);
        let distortion = gossip::ranking_distortion(&ranking, &estimated);
        let matching = settle(&graph, &GlobalPrefs::new(estimated), &caps);
        print!("sample size {k:>3} (rank distortion {distortion:>5.1}):  ");
        report("", &matching, &ranking, &latency);
    }
    println!(
        "\ncoarser rank classes buy locality at a small stratification cost; and even \
         crude gossip estimates keep collaborations local in true rank."
    );
}
