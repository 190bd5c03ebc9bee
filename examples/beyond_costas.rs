//! Domain independence: the same Adaptive Search engine on five classical CSPs.
//!
//! ```text
//! cargo run --release --example beyond_costas
//! ```
//!
//! Adaptive Search is a *generic* constraint-based local search method (paper §III);
//! the Costas model is just one `PermutationProblem` implementation.  This example
//! runs the very same engine on the other models shipped with the library —
//! N-Queens, the All-Interval Series (CSPLib prob007), the Magic Square (CSPLib
//! prob019), Langford's problem (CSPLib prob024) and number partitioning (CSPLib
//! prob049) — and prints the solutions it finds, closing with a registry-driven
//! sweep over every workload in `adaptive_search::problems`.

use costas_lab::adaptive_search::{
    all_interval::AllIntervalProblem, langford::LangfordProblem, magic_square::MagicSquareProblem,
    partition::PartitionProblem, problems, queens::QueensProblem, AsConfig, Engine,
    PermutationProblem,
};

fn solve_and_report<P: PermutationProblem>(problem: P, label: &str, seed: u64) -> Vec<usize> {
    let config = AsConfig::default();
    let mut engine = Engine::new(problem, config, seed);
    let result = engine.solve();
    assert!(result.is_solved(), "{label} should be solvable");
    println!(
        "{label:<22} solved in {:>8} iterations ({:>6} local minima, {:.3} s)",
        result.stats.iterations,
        result.stats.local_minima,
        result.elapsed.as_secs_f64()
    );
    result.solution.expect("solved")
}

fn main() {
    println!("=== One engine, six constraint models ===\n");

    // N-Queens, n = 64: only diagonal constraints remain under the permutation model.
    let queens = solve_and_report(QueensProblem::new(64), "N-Queens (n=64)", 1);
    assert_eq!(queens.len(), 64);

    // All-Interval Series, n = 12: the twelve-tone row problem from CSPLib.
    let series = solve_and_report(AllIntervalProblem::new(12), "All-Interval (n=12)", 2);
    let mut diffs: Vec<usize> = series.windows(2).map(|w| w[0].abs_diff(w[1])).collect();
    diffs.sort_unstable();
    assert_eq!(
        diffs,
        (1..=11).collect::<Vec<_>>(),
        "all intervals distinct"
    );
    println!("    series    : {series:?}");
    println!(
        "    intervals : {:?}",
        series
            .windows(2)
            .map(|w| w[0].abs_diff(w[1]))
            .collect::<Vec<_>>()
    );

    // Magic Square, 4 x 4: permutation of 1..=16 with all lines summing to 34.
    let square = solve_and_report(MagicSquareProblem::new(4), "Magic Square (4x4)", 3);
    println!("    square    :");
    for row in square.chunks(4) {
        println!("      {row:?}");
    }
    for row in square.chunks(4) {
        assert_eq!(row.iter().sum::<usize>(), 34);
    }

    // Langford L(2, 8): both copies of k exactly k cells apart.
    let langford = solve_and_report(LangfordProblem::new(8), "Langford L(2,8)", 4);
    let as_numbers: Vec<usize> = langford.iter().map(|v| v.div_ceil(2)).collect();
    println!("    numbers   : {as_numbers:?}");

    // Number partitioning, n = 16: equal sums and equal square sums.
    let partition = solve_and_report(PartitionProblem::new(16), "Partition (n=16)", 5);
    let (a, b) = partition.split_at(8);
    println!("    group A   : {a:?} (Σ {})", a.iter().sum::<usize>());
    println!("    group B   : {b:?} (Σ {})", b.iter().sum::<usize>());
    assert_eq!(a.iter().sum::<usize>(), b.iter().sum::<usize>());

    // And the Costas Array Problem itself, for completeness.
    let costas = costas_lab::prelude::solve_costas(13, 4);
    println!(
        "{:<22} solved in {:>8} iterations ({:>6} local minima, {:.3} s)",
        "Costas (n=13)",
        costas.stats.iterations,
        costas.stats.local_minima,
        costas.elapsed.as_secs_f64()
    );
    println!("    array     : {:?}", costas.solution.unwrap());

    // The registry view: everything above, dispatched by key with per-model
    // metadata (default configuration, known-optimum predicate).
    println!("\n=== The same sweep, driven by the problem registry ===\n");
    for info in problems::registry() {
        let size = *info.solvable_sizes.last().unwrap();
        let mut engine = Engine::new((info.build)(size), (info.default_config)(size), 42);
        let result = engine.solve();
        let verified = result
            .solution
            .as_deref()
            .is_some_and(|s| (info.is_optimum)(s));
        println!(
            "{:<22} ({:>3} vars) solved={} verified={} in {:>8} iterations",
            info.key,
            (info.build)(size).size(),
            result.is_solved(),
            verified,
            result.stats.iterations,
        );
        assert!(
            verified,
            "{} must verify via its optimum predicate",
            info.key
        );
    }
}
