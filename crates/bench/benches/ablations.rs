//! Criterion bench behind the §IV-B ablations: the effect of the `ERR(d) = n² − d²`
//! weighting, Chang's half-triangle restriction and the dedicated reset procedure on
//! sequential solve effort.  The paper-shaped summary (percentage gains / speed-up
//! factors) is produced by the `ablation_model_options` harness binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use adaptive_search::multi_restart::solve_costas_with;
use adaptive_search::{AsConfig, CostasModelConfig};
use costas::{CostModel, ErrWeight, RowSpan};
use xrand::SeedSequence;

fn solve(n: usize, model: CostasModelConfig, seed: u64) -> u64 {
    let r = solve_costas_with(n, model, AsConfig::default(), seed);
    assert!(r.is_solved());
    r.stats.iterations
}

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations_cap13");
    group.sample_size(10);
    let n = 13usize;

    let variants: Vec<(&str, CostasModelConfig)> = vec![
        ("full_optimized", CostasModelConfig::optimized()),
        (
            "unit_err_weight",
            CostasModelConfig {
                cost_model: CostModel {
                    weight: ErrWeight::Unit,
                    span: RowSpan::ChangHalf,
                },
                ..CostasModelConfig::optimized()
            },
        ),
        (
            "full_triangle",
            CostasModelConfig {
                cost_model: CostModel {
                    weight: ErrWeight::Quadratic,
                    span: RowSpan::Full,
                },
                ..CostasModelConfig::optimized()
            },
        ),
        (
            "generic_reset",
            CostasModelConfig {
                dedicated_reset: false,
                ..CostasModelConfig::optimized()
            },
        ),
    ];

    for (name, model) in variants {
        let seeds = SeedSequence::new(31);
        group.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
            let mut run = 0u64;
            b.iter(|| {
                run += 1;
                black_box(solve(n, model, seeds.child(run).seed()))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
