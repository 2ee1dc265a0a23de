//! Criterion benchmarks for the core algorithms: Algorithm 1 (generic and
//! complete-graph forms) and the initiative dynamics — optimized vs the
//! seed-faithful reference implementations (shared groups from
//! `strat_bench`) — plus the analytic solvers, the Figure 9 Monte Carlo
//! (lazy sampler vs the full-graph path), graph generation, and the swarm
//! round loop (optimized vs the retained reference engine).

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use strat_analytic::b_matching;
use strat_bench::{
    bench_dynamics, bench_dynamics_ref, bench_monte_carlo, bench_monte_carlo_ref, bench_prefs,
    bench_prefs_ref, bench_stable_configuration, bench_stable_configuration_ref,
    bench_swarm_rounds, bench_swarm_rounds_ref,
};
use strat_graph::generators;

fn bench_analytic(c: &mut Criterion) {
    let mut group = c.benchmark_group("analytic");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(20);
    // Algorithm 2 is Algorithm 3 at b₀ = 1.
    group.bench_function("algorithm2_n5000_p0.005", |b| {
        b.iter(|| b_matching::solve(black_box(5000), black_box(0.005), 1, &[2500]));
    });
    group.bench_function("algorithm3_b2_n5000_p0.01", |b| {
        b.iter(|| b_matching::solve(black_box(5000), black_box(0.01), 2, &[3000]));
    });
    group.bench_function("algorithm3_expectations_b3_n2000", |b| {
        let weights: Vec<f64> = (0..2000).map(|i| 1.0 + i as f64).collect();
        b.iter(|| b_matching::solve_expectations(black_box(2000), 0.01, 3, &weights));
    });
    group.finish();
}

fn bench_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("erdos_renyi_n5000_p0.01", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        b.iter(|| generators::erdos_renyi(black_box(5000), black_box(0.01), &mut rng));
    });
    group.bench_function("components_n5000_d50", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::erdos_renyi_mean_degree(5000, 50.0, &mut rng);
        b.iter(|| strat_graph::components::Components::of(black_box(&g)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_stable_configuration,
    bench_stable_configuration_ref,
    bench_dynamics,
    bench_dynamics_ref,
    bench_prefs,
    bench_prefs_ref,
    bench_analytic,
    bench_monte_carlo,
    bench_monte_carlo_ref,
    bench_graph,
    bench_swarm_rounds,
    bench_swarm_rounds_ref
);
criterion_main!(benches);
