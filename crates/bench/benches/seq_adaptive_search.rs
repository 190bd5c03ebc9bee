//! Criterion bench behind Table I: sequential Adaptive Search solve time per instance
//! size.  Absolute numbers for the paper's sizes (16–20) are produced by the
//! `table1_sequential` harness binary; this bench tracks the small/medium sizes so
//! regressions in the engine show up quickly in `cargo bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use adaptive_search::{AsConfig, CostasModelConfig, CostasProblem, Engine};
use xrand::SeedSequence;

fn solve_once(n: usize, seed: u64) -> u64 {
    let problem = CostasProblem::with_config(n, CostasModelConfig::optimized());
    let mut engine = Engine::new(problem, AsConfig::default(), seed);
    let result = engine.solve();
    assert!(result.is_solved());
    result.stats.iterations
}

fn bench_sequential_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_sequential_as");
    group.sample_size(10);
    for &n in &[10usize, 12, 13, 14] {
        let seeds = SeedSequence::new(0xA5);
        group.bench_with_input(BenchmarkId::new("solve", n), &n, |b, &n| {
            let mut run = 0u64;
            b.iter(|| {
                run += 1;
                black_box(solve_once(n, seeds.child(run).seed()))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sequential_solve);
criterion_main!(benches);
