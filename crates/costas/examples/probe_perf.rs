//! Focused probe-path timing: the dispatched kernel vs the histogram
//! reference, per order, on stable walk states (not the criterion shim's mixed
//! workload).  Used to tune the multi-word kernel; numbers print as
//! probes/sec and ns/probe.

use std::hint::black_box;
use std::time::Instant;

use costas::{ConflictTable, CostModel};
use xrand::{default_rng, random_permutation, RandExt};

fn time_probe(table: &ConflictTable, reps: u32, reference: bool) -> f64 {
    let n = table.order();
    let mut out = Vec::with_capacity(n);
    let mut rng = default_rng(11);
    let start = Instant::now();
    for _ in 0..reps {
        let m = rng.index(n);
        if reference {
            table.probe_partners_reference(m, &mut out);
        } else {
            table.probe_partners(m, &mut out);
        }
        black_box(out[0]);
    }
    start.elapsed().as_secs_f64() / f64::from(reps)
}

fn main() {
    let reps: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000);
    for &n in &[
        16usize, 18, 24, 32, 33, 34, 40, 50, 64, 65, 80, 96, 128, 129,
    ] {
        let mut rng = default_rng(7);
        let mut perm = random_permutation(n, &mut rng);
        perm.iter_mut().for_each(|v| *v += 1);
        let mut table = ConflictTable::new(&perm, CostModel::optimized());
        // Walk to a low-cost region so the occupancy structure matches what
        // the engine probes at equilibrium, not a random high-cost state.
        for _ in 0..50 * n {
            let (i, j) = (rng.index(n), rng.index(n));
            if table.cost_after_swap(i, j) <= table.cost() {
                table.apply_swap(i, j);
            }
        }
        let kernel = time_probe(&table, reps, false);
        let generic = time_probe(&table, reps, true);
        println!(
            "n={n:<3} cost={:<5} kernel {:>8.0} ns  generic {:>8.0} ns  ratio {:.2}x",
            table.cost(),
            kernel * 1e9,
            generic * 1e9,
            generic / kernel,
        );
    }
}
