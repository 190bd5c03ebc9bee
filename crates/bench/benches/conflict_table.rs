//! Micro-benchmarks of the conflict table — the data structure every solver's
//! inner loop stands on.  The table moves its difference histogram by ±1 per
//! touched pair on a swap and recomputes the cost, the per-position errors and
//! the probe's occupancy masks in one refresh pass after every change; the rows
//! below time the read-only swap evaluations and probes against the from-scratch
//! evaluations they replace, and the two mutating entry points, `apply_swap` and
//! `reset_to`, at the orders the repository benchmark runs (16, 40 and 80).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use costas::{ConflictTable, CostModel};
use xrand::{default_rng, random_permutation, RandExt};

fn bench_conflict_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict_table");
    group.sample_size(40);
    for &n in &[12usize, 16, 20, 24] {
        let mut rng = default_rng(7);
        let mut perm = random_permutation(n, &mut rng);
        perm.iter_mut().for_each(|v| *v += 1);
        let model = CostModel::optimized();

        group.bench_with_input(BenchmarkId::new("incremental_swap_eval", n), &n, |b, _| {
            let mut table = ConflictTable::new(&perm, model);
            let mut rng = default_rng(11);
            b.iter(|| {
                let i = rng.index(n);
                let j = rng.index(n);
                black_box(table.cost_after_swap(i, j))
            });
        });

        group.bench_with_input(BenchmarkId::new("delta_for_swap", n), &n, |b, _| {
            let table = ConflictTable::new(&perm, model);
            let mut rng = default_rng(11);
            b.iter(|| {
                let i = rng.index(n);
                let j = rng.index(n);
                black_box(table.delta_for_swap(i, j))
            });
        });

        // The engine's actual inner loop: one batched probe of all n−1 partners.
        group.bench_with_input(BenchmarkId::new("probe_partners", n), &n, |b, _| {
            let table = ConflictTable::new(&perm, model);
            let mut rng = default_rng(11);
            let mut out = Vec::with_capacity(n);
            b.iter(|| {
                table.probe_partners(rng.index(n), &mut out);
                black_box(out[0])
            });
        });

        // The flat-histogram reference path both mask-based kernels are pinned
        // against; the gap between this row and `probe_partners` is the
        // dispatched kernel's contribution.
        group.bench_with_input(
            BenchmarkId::new("probe_partners_reference", n),
            &n,
            |b, _| {
                let table = ConflictTable::new(&perm, model);
                let mut rng = default_rng(11);
                let mut out = Vec::with_capacity(n);
                b.iter(|| {
                    table.probe_partners_reference(rng.index(n), &mut out);
                    black_box(out[0])
                });
            },
        );

        // What the batched probe replaced: n−1 apply+un-apply evaluations.
        group.bench_with_input(
            BenchmarkId::new("probe_via_apply_unapply", n),
            &n,
            |b, _| {
                let mut table = ConflictTable::new(&perm, model);
                let mut rng = default_rng(11);
                b.iter(|| {
                    let culprit = rng.index(n);
                    let mut acc = 0u64;
                    for j in 0..n {
                        if j != culprit {
                            table.apply_swap(culprit, j);
                            acc = acc.wrapping_add(table.cost());
                            table.apply_swap(culprit, j);
                        }
                    }
                    black_box(acc)
                });
            },
        );

        group.bench_with_input(BenchmarkId::new("scratch_cost", n), &n, |b, _| {
            b.iter(|| black_box(model.global_cost(&perm)));
        });

        // The selection input, as the engine reads it: a copy of the error
        // vector the last refresh pass computed.
        group.bench_with_input(BenchmarkId::new("variable_errors_cached", n), &n, |b, _| {
            let table = ConflictTable::new(&perm, model);
            let mut out = Vec::new();
            b.iter(|| {
                table.variable_errors(&mut out);
                black_box(out.len())
            });
        });

        // What the cached read replaced: the from-scratch O(n·d_max) histogram
        // sweep (scratch-buffer variant, so the comparison is sweep vs. read, not
        // sweep+malloc vs. read).
        group.bench_with_input(
            BenchmarkId::new("variable_errors_scratch", n),
            &n,
            |b, _| {
                let mut out = Vec::new();
                let mut scratch = Vec::new();
                b.iter(|| {
                    model.variable_errors_with(&perm, &mut out, &mut scratch);
                    black_box(out.len())
                });
            },
        );
    }

    // Either side of the single-word mask boundary and past it, against the
    // histogram reference every tier is pinned to.  Where the CPU has
    // AVX-512 F + DQ, n = 32 is the last order of the from-scratch body (one
    // word per row), and every multi-word row from n = 33 to 128 (two words
    // at 33/34/40, three at 65/80, four at 128) takes the permute body.
    // Elsewhere the scalar bodies serve: the monomorphized replay up to
    // n = 64, the slice body beyond.
    for &n in &[32usize, 33, 34, 40, 65, 80, 128] {
        let mut rng = default_rng(7);
        let mut perm = random_permutation(n, &mut rng);
        perm.iter_mut().for_each(|v| *v += 1);
        let model = CostModel::optimized();

        group.bench_with_input(BenchmarkId::new("probe_partners", n), &n, |b, _| {
            let table = ConflictTable::new(&perm, model);
            let mut rng = default_rng(11);
            let mut out = Vec::with_capacity(n);
            b.iter(|| {
                table.probe_partners(rng.index(n), &mut out);
                black_box(out[0])
            });
        });

        group.bench_with_input(
            BenchmarkId::new("probe_partners_reference", n),
            &n,
            |b, _| {
                let table = ConflictTable::new(&perm, model);
                let mut rng = default_rng(11);
                let mut out = Vec::with_capacity(n);
                b.iter(|| {
                    table.probe_partners_reference(rng.index(n), &mut out);
                    black_box(out[0])
                });
            },
        );
    }

    // The two mutating entry points, each ending in the refresh pass: a swap
    // (±1 on the touched pairs' counts first) and the reset's adoption of a
    // new permutation (a full histogram refill first).
    for &n in &[16usize, 40, 80] {
        let mut rng = default_rng(7);
        let pool: Vec<Vec<usize>> = (0..16)
            .map(|_| {
                let mut perm = random_permutation(n, &mut rng);
                perm.iter_mut().for_each(|v| *v += 1);
                perm
            })
            .collect();
        let model = CostModel::optimized();

        group.bench_with_input(BenchmarkId::new("apply_swap", n), &n, |b, _| {
            let mut table = ConflictTable::new(&pool[0], model);
            let mut rng = default_rng(11);
            b.iter(|| {
                table.apply_swap(rng.index(n), rng.index(n));
                black_box(table.cost())
            });
        });

        group.bench_with_input(BenchmarkId::new("reset_to", n), &n, |b, _| {
            let mut table = ConflictTable::new(&pool[0], model);
            let mut k = 0;
            b.iter(|| {
                k = (k + 1) % pool.len();
                table.reset_to(&pool[k]);
                black_box(table.cost())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_conflict_table);
criterion_main!(benches);
