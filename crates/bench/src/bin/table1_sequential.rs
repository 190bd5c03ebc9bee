//! **Table I** — evaluation of the sequential Adaptive Search implementation.
//!
//! Paper protocol: for each instance size, 100 independent runs; report average /
//! minimum / maximum execution time, iteration count, number of local minima, and the
//! ratio between the average and the minimum time (using iteration counts when the
//! minimum time is below the clock resolution).
//!
//! Quick mode (default): n ∈ {12…16}, 25 runs.  Full mode (`COSTAS_FULL=1`):
//! n ∈ {16…20}, 100 runs — expect hours for n = 19 and 20, exactly like the paper.

use bench::protocol::sequential_batch;
use bench::{banner, write_csv, HarnessOptions};
use runtime_stats::{table::fmt_count, table::fmt_seconds, BatchStats, TextTable};

fn main() {
    let options = HarnessOptions::from_env();
    banner(
        "Table I — sequential Adaptive Search on the CAP",
        "avg/min/max of time, iterations and local minima over independent runs",
        &options,
    );
    let sizes = options.sizes(&[12, 13, 14, 15, 16], &[16, 17, 18, 19, 20]);
    let runs = options.runs(25, 100);

    let mut table = TextTable::new(vec![
        "size",
        "stat",
        "time (s)",
        "iterations",
        "local min",
        "avg/min ratio",
    ]);
    let mut csv = TextTable::new(vec![
        "size",
        "runs",
        "avg_time_s",
        "min_time_s",
        "max_time_s",
        "avg_iters",
        "min_iters",
        "max_iters",
        "avg_local_min",
        "ratio",
    ]);

    for &n in sizes {
        let results = sequential_batch(n, runs, options.master_seed ^ n as u64);
        assert!(
            results.iter().all(|r| r.is_solved()),
            "all runs must solve n={n}"
        );
        let times: Vec<f64> = results.iter().map(|r| r.elapsed.as_secs_f64()).collect();
        let iters: Vec<f64> = results.iter().map(|r| r.stats.iterations as f64).collect();
        let lmins: Vec<f64> = results
            .iter()
            .map(|r| r.stats.local_minima as f64)
            .collect();
        let t = BatchStats::from_values(&times);
        let i = BatchStats::from_values(&iters);
        let l = BatchStats::from_values(&lmins);
        // The paper's "ratio" column: avg/min time, falling back to iteration counts
        // when the minimum time is below the clock resolution.
        let ratio = if t.min > 1e-6 {
            t.mean / t.min
        } else {
            i.mean / i.min.max(1.0)
        };

        for (stat, tv, iv, lv) in [
            ("avg", t.mean, i.mean, l.mean),
            ("min", t.min, i.min, l.min),
            ("max", t.max, i.max, l.max),
        ] {
            table.add_row(vec![
                if stat == "avg" {
                    n.to_string()
                } else {
                    String::new()
                },
                stat.to_string(),
                fmt_seconds(tv),
                fmt_count(iv.round() as u64),
                fmt_count(lv.round() as u64),
                if stat == "avg" {
                    format!("{ratio:.0}")
                } else {
                    String::new()
                },
            ]);
        }
        csv.add_row(vec![
            n.to_string(),
            runs.to_string(),
            format!("{:.4}", t.mean),
            format!("{:.4}", t.min),
            format!("{:.4}", t.max),
            format!("{:.1}", i.mean),
            format!("{:.0}", i.min),
            format!("{:.0}", i.max),
            format!("{:.1}", l.mean),
            format!("{ratio:.1}"),
        ]);
        eprintln!("  [done] n = {n} ({runs} runs)");
    }

    println!("\n{}", table.render());
    let path = write_csv("table1_sequential.csv", &csv.to_csv());
    println!("CSV written to {}", path.display());
    println!(
        "\nThe paper reports: effort grows by roughly an order of magnitude per size\n\
         increment, and the minimum run is far faster than the average — the property\n\
         that motivates independent multi-walk parallelism (§IV-C)."
    );
}
