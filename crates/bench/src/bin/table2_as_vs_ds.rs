//! **Table II** — Adaptive Search vs. Dialectic Search (and the other baselines).
//!
//! Paper protocol: average of 100 runs per instance for both systems on the same
//! machine; report the average times and the DS/AS speed-up factor (the paper finds
//! 5× at n = 13 growing to 8.3× at n = 18).  The original numbers were measured on a
//! Pentium-III 733 MHz; since Table II is a ratio, running both re-implemented solvers
//! on the same host preserves the comparison.
//!
//! Beyond the paper we also report the quadratic tabu search, the random-restart hill
//! climber, and the complete backtracking solver (the propagation-style reference the
//! paper quotes as ≈400× slower than AS on CAP 19).
//!
//! Quick mode: n ∈ {10…13}, 15 runs.  Full mode: n ∈ {13…18}, 100 runs.

use baselines::{
    AdaptiveSearchSolver, CompleteBacktracking, CostasSolver, DialecticSearch, QuadraticTabuSearch,
    RandomRestartHillClimbing, SolverBudget,
};
use bench::{banner, write_csv, HarnessOptions};
use runtime_stats::{table::fmt_seconds, BatchStats, TextTable};
use xrand::SeedSequence;

fn average_time(
    solver: &mut dyn CostasSolver,
    n: usize,
    runs: usize,
    master_seed: u64,
) -> (BatchStats, usize) {
    let seeds = SeedSequence::new(master_seed);
    let budget = SolverBudget::unlimited();
    let mut times = Vec::with_capacity(runs);
    let mut solved = 0usize;
    for r in 0..runs {
        let result = solver.solve(n, seeds.child(r as u64).seed(), &budget);
        if result.solved {
            solved += 1;
        }
        times.push(result.elapsed.as_secs_f64());
    }
    (BatchStats::from_values(&times), solved)
}

fn main() {
    let options = HarnessOptions::from_env();
    banner(
        "Table II — AS speed-ups w.r.t. Dialectic Search (plus extra baselines)",
        "average solve time per solver; ratios are relative to Adaptive Search",
        &options,
    );
    let sizes = options.sizes(&[10, 11, 12, 13], &[13, 14, 15, 16, 17, 18]);
    let runs = options.runs(15, 100);
    // The complete solver blows up quickly; only run it where it finishes promptly.
    let complete_limit = if options.full { 16 } else { 13 };

    let mut table = TextTable::new(vec![
        "size",
        "AS (s)",
        "DS (s)",
        "DS/AS",
        "tabu (s)",
        "tabu/AS",
        "RR-HC (s)",
        "complete (s)",
    ]);
    let mut csv = TextTable::new(vec![
        "size",
        "as_s",
        "ds_s",
        "ds_over_as",
        "tabu_s",
        "tabu_over_as",
        "rrhc_s",
        "complete_s",
    ]);

    for &n in sizes {
        let seed = options.master_seed ^ (n as u64) << 8;
        let (as_t, as_ok) = average_time(&mut AdaptiveSearchSolver::default(), n, runs, seed);
        let (ds_t, ds_ok) = average_time(&mut DialecticSearch::default(), n, runs, seed);
        let (tabu_t, tabu_ok) = average_time(&mut QuadraticTabuSearch::default(), n, runs, seed);
        let (hc_t, hc_ok) = average_time(&mut RandomRestartHillClimbing::default(), n, runs, seed);
        assert!(as_ok == runs && ds_ok == runs && tabu_ok == runs && hc_ok == runs);
        let complete_t = if n <= complete_limit {
            let (c, _) = average_time(&mut CompleteBacktracking, n, 1, seed);
            Some(c.mean)
        } else {
            None
        };

        let as_mean = as_t.mean.max(1e-9);
        table.add_row(vec![
            n.to_string(),
            fmt_seconds(as_t.mean),
            fmt_seconds(ds_t.mean),
            format!("{:.2}", ds_t.mean / as_mean),
            fmt_seconds(tabu_t.mean),
            format!("{:.2}", tabu_t.mean / as_mean),
            fmt_seconds(hc_t.mean),
            complete_t.map(fmt_seconds).unwrap_or_else(|| "-".into()),
        ]);
        csv.add_row(vec![
            n.to_string(),
            format!("{:.6}", as_t.mean),
            format!("{:.6}", ds_t.mean),
            format!("{:.3}", ds_t.mean / as_mean),
            format!("{:.6}", tabu_t.mean),
            format!("{:.3}", tabu_t.mean / as_mean),
            format!("{:.6}", hc_t.mean),
            complete_t.map(|c| format!("{c:.6}")).unwrap_or_default(),
        ]);
        eprintln!("  [done] n = {n}");
    }

    println!("\n{}", table.render());
    let path = write_csv("table2_as_vs_ds.csv", &csv.to_csv());
    println!("CSV written to {}", path.display());
    println!(
        "\nThe paper reports: Adaptive Search is faster than Dialectic Search at every size,\n\
         by 5.0× at n=13 up to 8.3× at n=18."
    );
}
