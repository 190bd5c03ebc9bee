//! Focused timing of the table's batched read-only scorers, per order, on
//! walked table states (not the criterion shim's mixed workload): the probe
//! (dispatched kernel vs the histogram reference) and the reset's two
//! batched families, `rotation_costs` over the 2n − 2 anchored rotations of
//! a culprit and `addition_costs` over the reset's constants 1, 2, n − 2,
//! n − 3.  The dispatcher picks the body by CPU and order: on AVX-512 F +
//! DQ + BW + VBMI hosts the from-scratch bodies up to n = 32 (sixteen `u32`
//! lanes per pass up to n = 16, eight `u64` lanes beyond) and the byte-lane
//! probe body (64 candidates per pass) from 33 to 128; elsewhere and beyond,
//! the scalar probe bodies and materialised rotations and additions.
//! Numbers print as ns per call.
//!
//! ```text
//! cargo run --release -p costas --example probe_perf -- [calls per order]
//! ```

use std::hint::black_box;
use std::time::Instant;

use costas::{ConflictTable, CostModel, Rotation};
use xrand::{default_rng, random_permutation, RandExt};

/// Seconds per call of `call`, run `reps` times on culprits drawn from a
/// fixed seed.
fn time_calls(n: usize, reps: u32, mut call: impl FnMut(usize)) -> f64 {
    let mut rng = default_rng(11);
    let start = Instant::now();
    for _ in 0..reps {
        call(rng.index(n));
    }
    start.elapsed().as_secs_f64() / f64::from(reps)
}

/// The reset's anchored rotations at culprit `m`, in its order.
fn anchored_rotations(n: usize, m: usize, out: &mut Vec<Rotation>) {
    out.clear();
    let ranges = (m + 1..n).map(|hi| (m, hi)).chain((0..m).map(|lo| (lo, m)));
    out.extend(ranges.flat_map(|(lo, hi)| [true, false].map(|left| Rotation { lo, hi, left })));
}

fn main() {
    let reps: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000);
    for &n in &[
        16usize, 17, 18, 20, 24, 32, 33, 34, 40, 50, 64, 65, 80, 96, 128, 129,
    ] {
        let mut rng = default_rng(7);
        let mut perm = random_permutation(n, &mut rng);
        perm.iter_mut().for_each(|v| *v += 1);
        let mut table = ConflictTable::new(&perm, CostModel::optimized());
        // Walk to a low-cost region so the occupancy structure matches what
        // the engine probes at equilibrium, not a random high-cost state.
        for _ in 0..50 * n {
            let (i, j) = (rng.index(n), rng.index(n));
            if table.delta_for_swap(i, j) <= 0 {
                table.apply_swap(i, j);
            }
        }
        let mut out = Vec::with_capacity(n);
        let kernel = time_calls(n, reps, |m| {
            table.probe_partners(m, &mut out);
            black_box(out[0]);
        });
        let generic = time_calls(n, reps, |m| {
            table.probe_partners_reference(m, &mut out);
            black_box(out[0]);
        });
        // Past n = 32 every rotation and addition is materialised and
        // scored from scratch, about a hundred times slower per call.
        let reset_reps = if n <= 32 { reps } else { (reps / 100).max(10) };
        let mut rotations = Vec::with_capacity(2 * n);
        let mut costs = vec![0u64; 2 * n];
        let rotation = time_calls(n, reset_reps, |m| {
            anchored_rotations(n, m, &mut rotations);
            table.rotation_costs(black_box(&rotations), &mut costs);
            black_box(costs[0]);
        });
        let constants = [1, 2, n - 2, n - 3];
        let addition = time_calls(n, reset_reps, |_| {
            table.addition_costs(black_box(&constants), &mut costs);
            black_box(costs[0]);
        });
        println!(
            "n={n:<3} cost={:<5} kernel {:>8.0} ns  generic {:>8.0} ns  ratio {:.2}x  \
             rotations {:>8.0} ns  additions {:>8.0} ns",
            table.cost(),
            kernel * 1e9,
            generic * 1e9,
            generic / kernel,
            rotation * 1e9,
            addition * 1e9,
        );
    }
}
