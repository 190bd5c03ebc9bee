//! **Table V** — execution times on Grid'5000 (Suno and Helios clusters).
//!
//! Paper protocol: 50 multi-walk jobs per cell; Suno up to 256 cores, Helios up to
//! 128 cores; instances 18–22.  The two clusters differ only in per-core speed, which
//! the virtual platform profiles capture; the speed-up *shape* is identical.
//!
//! Quick mode: n ∈ {14, 15, 16}, 8 runs per cell.  Full mode: n ∈ {18, 19, 20},
//! 50 runs per cell.

use bench::tables::{run_parallel_table, ParallelTableSpec};
use bench::{banner, write_csv, HarnessOptions};
use multiwalk::PlatformProfile;

fn main() {
    let options = HarnessOptions::from_env();
    banner(
        "Table V — multi-walk execution times on the (virtual) Grid'5000 Suno and Helios",
        "avg/med/min/max seconds per instance and core count",
        &options,
    );
    let sizes = options.sizes(&[14, 15, 16], &[18, 19, 20]).to_vec();
    let runs = options.runs(8, 50);

    for (platform, cores) in [
        (PlatformProfile::suno(), vec![1, 32, 64, 128, 256]),
        (PlatformProfile::helios(), vec![1, 32, 64, 128]),
    ] {
        println!("\n--- {} ---", platform.name);
        let spec = ParallelTableSpec {
            platform: platform.clone(),
            sizes: sizes.clone(),
            cores,
            runs,
            exact_core_limit: 256,
            sample_runs: options.runs(40, 100),
        };
        let out = run_parallel_table(&spec, &options);
        println!("\n{}", out.table.render());
        let file = format!(
            "table5_grid5000_{}.csv",
            platform.name.to_lowercase().replace('/', "_")
        );
        let path = write_csv(&file, &out.csv.to_csv());
        println!("CSV written to {}", path.display());
    }
    println!(
        "\nThe paper reports: both clusters show the same near-linear scaling; only the\n\
         absolute seconds differ (per-core speed), e.g. its 1-core CAP 18 takes 5.28 s\n\
         on Suno vs 8.16 s on Helios."
    );
}
