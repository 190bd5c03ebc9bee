//! **Figure 3** — speed-ups on JUGENE for CAP 21, 22 and 23 (512 … 8,192 cores).
//!
//! Paper protocol: normalise to the smallest core count measured on the Blue Gene/P
//! (512 cores for CAP 21/22, 2,048 cores for CAP 23) and plot speed-up vs. cores; the
//! paper reports 15.33× (CAP 21) and 13.25× (CAP 22) at 8,192/512 = 16× ideal, and
//! 3.71× (CAP 23) against an ideal of 4×.
//!
//! Core counts this large are simulated in the sampled min-of-K mode from an
//! empirical distribution of real sequential runs (see the README's "Virtual-cluster
//! cells: exact and sampled").  Quick mode uses
//! CAP 14/15/16 as the three instances; full mode uses CAP 17/18/19.

use bench::protocol::{cell_seed, iteration_samples, sequential_batch};
use bench::{banner, write_csv, HarnessOptions};
use multiwalk::{PlatformProfile, VirtualCluster, WalkSpec};
use runtime_stats::series::ascii_chart;
use runtime_stats::{observed_speedups, Series, TextTable};

fn main() {
    let options = HarnessOptions::from_env();
    banner(
        "Figure 3 — JUGENE speed-ups for three instances, 512..8192 cores",
        "normalised to the smallest core count per instance, as in the paper",
        &options,
    );
    let sizes: Vec<usize> = options.sizes(&[14, 15, 16], &[17, 18, 19]).to_vec();
    let runs = options.runs(12, 50);
    let sample_runs = options.runs(80, 200);
    let cores = [512usize, 1024, 2048, 4096, 8192];
    let cluster = VirtualCluster::new(PlatformProfile::jugene());

    let mut csv = TextTable::new(vec!["size", "cores", "avg_s", "speedup", "ideal"]);
    let mut series = Vec::new();

    for &n in &sizes {
        let spec = WalkSpec::costas(n);
        let sample = iteration_samples(&sequential_batch(
            n,
            sample_runs,
            cell_seed(options.master_seed, n, 0, 3),
        ));
        eprintln!("  [sample ready] n = {n} ({sample_runs} sequential runs)");
        let mut batches: Vec<(usize, Vec<f64>)> = Vec::new();
        for &c in &cores {
            let sims = cluster.run_sampled_many(
                &sample,
                spec.check_interval(),
                c,
                runs,
                cell_seed(options.master_seed, n, c, 4),
            );
            batches.push((c, sims.iter().map(|s| s.virtual_seconds).collect()));
        }
        let points = observed_speedups(&batches);
        println!(
            "\nCAP {n} (stands in for the paper's CAP {}):",
            21 + sizes.iter().position(|&s| s == n).unwrap_or(0)
        );
        for p in &points {
            println!(
                "  {:>5} cores: avg {:>9.3} s   speed-up {:>6.2}   (ideal {:>5.1})",
                p.cores, p.mean_time, p.speedup_mean, p.ideal
            );
            csv.add_row(vec![
                n.to_string(),
                p.cores.to_string(),
                format!("{:.4}", p.mean_time),
                format!("{:.3}", p.speedup_mean),
                format!("{:.1}", p.ideal),
            ]);
        }
        series.push(Series::new(
            format!("CAP {n}"),
            points
                .iter()
                .map(|p| (p.cores as f64, p.speedup_mean))
                .collect(),
        ));
    }

    series.push(Series::new(
        "ideal",
        cores
            .iter()
            .map(|&c| (c as f64, c as f64 / 512.0))
            .collect(),
    ));
    let log_series: Vec<Series> = series.iter().map(|s| s.log2_log2()).collect();
    println!("\nlog2(speed-up) vs log2(cores):\n");
    println!("{}", ascii_chart(&log_series, 64, 16));

    let path = write_csv("fig3_jugene_speedup.csv", &csv.to_csv());
    println!("\nCSV written to {}", path.display());
    println!(
        "\nThe paper reports: near-linear speed-up all the way to 8,192 cores (15.33x and\n\
         13.25x against an ideal of 16x)."
    );
}
