//! Ablation benchmarks for the design decisions called out in DESIGN.md:
//!
//! 1. streaming prefix-sum Algorithm 2 vs the paper's dense matrix form;
//! 2. the complete-graph specialization of Algorithm 1 vs the generic
//!    algorithm on a materialized complete graph;
//! 3. sorted-vec mate lists vs a BTree-based alternative;
//! 4. rank-sorted acceptance adjacency (early-exit best-mate search) vs
//!    unsorted scanning.

use std::collections::BTreeSet;

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use strat_analytic::{b_matching, one_matching};
use strat_core::{
    blocking, stable_configuration, stable_configuration_complete, Capacities, GlobalRanking,
    Matching, RankedAcceptance,
};
use strat_graph::{generators, NodeId};

/// Ablation 1: streaming vs dense Algorithm 2 (identical output, §DESIGN-2).
fn ablation_analytic_memory(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_algorithm2");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(20);
    let n = 600;
    let p = 0.02;
    group.bench_function("streaming", |b| {
        b.iter(|| b_matching::solve(black_box(n), black_box(p), 1, &[n / 2]));
    });
    group.bench_function("dense_paper_form", |b| {
        b.iter(|| one_matching::solve_dense(black_box(n), black_box(p)));
    });
    group.finish();
}

/// Ablation 2: complete-graph specialization vs generic Algorithm 1.
fn ablation_complete_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_complete_graph");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    let n = 3000;
    let ranking = GlobalRanking::identity(n);
    let caps = Capacities::constant(n, 4);
    group.bench_function("specialized_pointer_jumping", |b| {
        b.iter(|| stable_configuration_complete(black_box(&ranking), black_box(&caps)).unwrap());
    });
    group.bench_function("generic_on_materialized_k_n", |b| {
        let acc = RankedAcceptance::new(generators::complete(n), ranking.clone()).unwrap();
        b.iter(|| stable_configuration(black_box(&acc), black_box(&caps)).unwrap());
    });
    group.finish();
}

/// Ablation 3: sorted-vec mate lists (what `Matching` uses) vs BTreeSet.
fn ablation_mate_set(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_mate_set");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let b0 = 8usize; // larger than typical to stress the structure
    let ops: Vec<u32> = {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..10_000).collect();
        v.shuffle(&mut rng);
        v
    };
    group.bench_function("sorted_vec", |b| {
        b.iter(|| {
            let mut mates: Vec<u32> = Vec::with_capacity(b0 + 1);
            for &rank in &ops {
                let pos = mates.partition_point(|&m| m < rank);
                mates.insert(pos, rank);
                if mates.len() > b0 {
                    mates.pop(); // evict the worst
                }
            }
            black_box(mates)
        });
    });
    group.bench_function("btree_set", |b| {
        b.iter(|| {
            let mut mates: BTreeSet<u32> = BTreeSet::new();
            for &rank in &ops {
                mates.insert(rank);
                if mates.len() > b0 {
                    let worst = *mates.iter().next_back().expect("nonempty");
                    mates.remove(&worst);
                }
            }
            black_box(mates)
        });
    });
    group.finish();
}

/// Ablation 4: best-blocking-mate search with the rank-sorted adjacency
/// (early exit) vs a naive scan over unsorted neighbours.
fn ablation_best_mate_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_best_mate_search");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let n = 2000;
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let graph = generators::erdos_renyi_mean_degree(n, 30.0, &mut rng);
    let ranking = GlobalRanking::identity(n);
    let acc = RankedAcceptance::new(graph.clone(), ranking.clone()).unwrap();
    let caps = Capacities::constant(n, 2);
    // Near-stable configuration: the early-exit case that matters.
    let matching = stable_configuration(&acc, &caps).unwrap();

    group.bench_function("rank_sorted_early_exit", |b| {
        b.iter(|| {
            for v in 0..n {
                black_box(blocking::best_blocking_mate(
                    &acc,
                    &caps,
                    &matching,
                    NodeId::new(v),
                    |_| true,
                ));
            }
        });
    });
    group.bench_function("naive_unsorted_scan", |b| {
        b.iter(|| {
            for v in 0..n {
                let v = NodeId::new(v);
                // Scan all neighbours in graph order, track the best blocker.
                let mut best: Option<NodeId> = None;
                for &q in graph.neighbors(v) {
                    if matching.would_accept(&ranking, &caps, v, q)
                        && matching.would_accept(&ranking, &caps, q, v)
                        && best.is_none_or(|b| ranking.prefers(q, b))
                    {
                        best = Some(q);
                    }
                }
                black_box(best);
            }
        });
    });
    group.finish();
}

/// Sanity: the ablated variants agree (run once under the bench harness).
fn ablation_correctness(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_correctness_probe");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    group.bench_function("complete_vs_generic_equal", |b| {
        let n = 500;
        let ranking = GlobalRanking::identity(n);
        let caps = Capacities::constant(n, 3);
        let acc = RankedAcceptance::new(generators::complete(n), ranking.clone()).unwrap();
        b.iter(|| {
            let fast = stable_configuration_complete(&ranking, &caps).unwrap();
            let slow = stable_configuration(&acc, &caps).unwrap();
            assert_eq!(fast, slow);
            black_box::<Matching>(fast)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_analytic_memory,
    ablation_complete_graph,
    ablation_mate_set,
    ablation_best_mate_search,
    ablation_correctness
);
criterion_main!(benches);
