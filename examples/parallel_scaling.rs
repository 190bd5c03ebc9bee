//! Parallel scaling of independent multi-walk search (a miniature of paper §V).
//!
//! ```text
//! cargo run --release --example parallel_scaling [order]
//! ```
//!
//! Runs the same CAP instance with increasing numbers of simulated cores on the
//! virtual cluster, prints the average virtual completion time per core count, the
//! observed speed-up, and the speed-up the shifted-exponential runtime model predicts
//! from the sequential runs alone.  On a long-tailed instance the observed curve
//! tracks the ideal linear speed-up — the paper's central empirical claim.

use costas_lab::prelude::*;
use costas_lab::runtime_stats::fit_shifted_exponential;

fn main() {
    let order: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(14);
    let runs = 10usize;
    let core_counts = [1usize, 2, 4, 8, 16, 32];
    let seed = 4242;

    println!("=== Virtual-cluster scaling for CAP {order} ({runs} runs per point) ===\n");

    let spec = WalkSpec::costas(order);
    let cluster = VirtualCluster::new(PlatformProfile::local());

    // Sequential reference sample (also feeds the exponential fit).
    let sequential: Vec<SimulatedRun> = cluster.run_exact_many(&spec, 1, runs, seed);
    let seq_iters: Vec<f64> = sequential
        .iter()
        .map(|r| r.winner_iterations as f64)
        .collect();
    let seq_stats = BatchStats::from_values(&seq_iters);
    println!(
        "sequential: mean {:.0} iterations, min {:.0}, max {:.0} (min is {:.1}x faster than mean)",
        seq_stats.mean,
        seq_stats.min,
        seq_stats.max,
        seq_stats.mean / seq_stats.min.max(1.0)
    );
    let fit = fit_shifted_exponential(&seq_iters);
    if let Some(f) = &fit {
        println!(
            "shifted-exponential fit: mu = {:.0}, lambda = {:.0} iterations\n",
            f.mu, f.lambda
        );
    }

    println!(
        "{:>6}  {:>12}  {:>10}  {:>10}  {:>10}",
        "cores", "mean iters", "speed-up", "predicted", "ideal"
    );
    for &cores in &core_counts {
        let batch = cluster.run_exact_many(&spec, cores, runs, seed + cores as u64);
        let iters: Vec<f64> = batch.iter().map(|r| r.winner_iterations as f64).collect();
        let stats = BatchStats::from_values(&iters);
        let speedup = seq_stats.mean / stats.mean.max(1.0);
        let predicted = fit
            .as_ref()
            .map(|f| f.predicted_speedup(cores))
            .unwrap_or(f64::NAN);
        println!(
            "{cores:>6}  {:>12.0}  {:>10.2}  {:>10.2}  {:>10}",
            stats.mean, speedup, predicted, cores
        );
    }

    println!(
        "\nEvery walk is a real Adaptive Search run; the virtual clock counts iterations of\n\
         the winning walk, exactly the quantity that the min-of-K law of independent\n\
         multi-walk parallelism governs (see the README's \"Virtual-cluster cells:\n\
         exact and sampled\")."
    );
}
