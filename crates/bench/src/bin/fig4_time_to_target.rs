//! **Figure 4** — time-to-target plots for CAP 21 on 32 / 64 / 128 / 256 cores.
//!
//! Paper protocol: 200 runs per core count; plot the empirical probability of having
//! found a solution within time t together with the best-fitting shifted exponential
//! `1 − e^{−(x−µ)/λ}`.  The observation driving the whole parallel section: the
//! empirical distributions are very close to exponential, which is precisely the
//! condition for linear speed-up of independent multiple walks, and e.g. the chance of
//! finishing CAP 21 within 100 s goes from ≈50 % on 32 cores to ≈100 % on 256 cores.
//!
//! Quick mode uses CAP 15 and 120 runs per curve; full mode CAP 18 and 200 runs.
//! Jobs are simulated in the min-of-K sampled mode fed by real sequential runs.

use bench::protocol::{cell_seed, iteration_samples, sequential_batch};
use bench::{banner, write_csv, HarnessOptions};
use multiwalk::{PlatformProfile, VirtualCluster, WalkSpec};
use runtime_stats::series::ascii_chart;
use runtime_stats::{fit_shifted_exponential, Series, TextTable, TimeToTarget};

fn main() {
    let options = HarnessOptions::from_env();
    banner(
        "Figure 4 — time-to-target plots (empirical + shifted-exponential fit)",
        "probability of having found a solution within t, per core count",
        &options,
    );
    let n = if options.full { 18 } else { 15 };
    let runs = options.runs(120, 200);
    let sample_runs = options.runs(150, 300);
    let cores = [32usize, 64, 128, 256];

    let spec = WalkSpec::costas(n);
    let cluster = VirtualCluster::new(PlatformProfile::ha8000());

    // Empirical sequential distribution (also reported: its own exponential fit).
    let sequential = sequential_batch(n, sample_runs, cell_seed(options.master_seed, n, 0, 5));
    let samples = iteration_samples(&sequential);
    let seq_secs: Vec<f64> = sequential.iter().map(|r| r.elapsed.as_secs_f64()).collect();
    if let Some(fit) = fit_shifted_exponential(&seq_secs) {
        println!(
            "sequential runtime fit: mu = {:.4} s, lambda = {:.4} s (mean {:.4} s) over {} runs",
            fit.mu,
            fit.lambda,
            fit.mean(),
            sample_runs
        );
    }

    let mut csv = TextTable::new(vec!["cores", "run", "seconds"]);
    let mut chart_series = Vec::new();
    println!();
    for &c in &cores {
        let sims = cluster.run_sampled_many(
            &samples,
            spec.check_interval(),
            c,
            runs,
            cell_seed(options.master_seed, n, c, 6),
        );
        let times: Vec<f64> = sims.iter().map(|s| s.virtual_seconds).collect();
        for (i, t) in times.iter().enumerate() {
            csv.add_row(vec![c.to_string(), i.to_string(), format!("{t:.5}")]);
        }
        let ttt = TimeToTarget::from_sample(format!("{c} cores"), &times);
        let ks = ttt.ks.unwrap_or(f64::NAN);
        let fit = ttt.fit;
        println!(
            "{:>4} cores: median {:.3} s,  P[solved by median of 32-core curve] = {:.2},  KS distance to exponential fit = {:.3}{}",
            c,
            runtime_stats::BatchStats::from_values(&times).median,
            ttt.probability_by(
                chart_series
                    .first()
                    .map(|s: &Series| median_x(s))
                    .unwrap_or_else(|| runtime_stats::BatchStats::from_values(&times).median)
            ),
            ks,
            fit.map(|f| format!("  (mu {:.3}, lambda {:.3})", f.mu, f.lambda))
                .unwrap_or_default()
        );
        chart_series.push(Series::new(format!("{c} cores"), ttt.points.clone()));
    }

    println!("\nEmpirical time-to-target curves (x = seconds, y = probability solved):\n");
    println!("{}", ascii_chart(&chart_series, 70, 18));

    let path = write_csv("fig4_time_to_target.csv", &csv.to_csv());
    println!("CSV written to {}", path.display());
    println!(
        "\nThe paper reports: every curve is well approximated by a shifted exponential,\n\
         and doubling the cores shifts the curve left by roughly a factor of two — the\n\
         two facts that together explain linear speed-up."
    );
}

/// Median x-coordinate of a series (the 32-core curve's median time, used to echo the
/// paper's "≈50 % within 100 s on 32 cores vs ≈100 % on 256 cores" reading).
fn median_x(series: &Series) -> f64 {
    let mut xs: Vec<f64> = series.points.iter().map(|p| p.0).collect();
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}
