//! **Table III** — execution times on the HA8000 supercomputer (1 … 256 cores).
//!
//! Paper protocol: 50 multi-walk jobs per (instance, core-count) cell on the Hitachi
//! HA8000; report avg / median / min / max seconds.  Here the cluster is the virtual
//! HA8000 profile (see the README's "Virtual-cluster cells: exact and sampled"): every
//! walk is a real Adaptive Search run and the virtual clock counts the winning walk's
//! iterations, converted to seconds with a locally calibrated iteration rate.
//!
//! Quick mode: n ∈ {14, 15, 16}, 10 runs per cell.  Full mode: n ∈ {18, 19, 20},
//! 50 runs per cell (hours).

use bench::tables::{run_parallel_table, ParallelTableSpec};
use bench::{banner, write_csv, HarnessOptions};
use multiwalk::PlatformProfile;

fn main() {
    let options = HarnessOptions::from_env();
    banner(
        "Table III — multi-walk execution times on the (virtual) HA8000",
        "avg/med/min/max seconds per instance and core count, 1..256 cores",
        &options,
    );
    let spec = ParallelTableSpec {
        platform: PlatformProfile::ha8000(),
        sizes: options.sizes(&[14, 15, 16], &[18, 19, 20]).to_vec(),
        cores: vec![1, 32, 64, 128, 256],
        runs: options.runs(10, 50),
        exact_core_limit: 256,
        sample_runs: options.runs(40, 100),
    };
    let out = run_parallel_table(&spec, &options);
    println!("\n{}", out.table.render());
    let path = write_csv("table3_ha8000.csv", &out.csv.to_csv());
    println!("CSV written to {}", path.display());
    println!(
        "\nThe paper reports: within each row the completion time roughly halves every\n\
         time the core count doubles, and the max/min spread collapses as cores grow."
    );
}
