//! **Table IV** — execution times on the JUGENE Blue Gene/P (512 … 8,192 cores).
//!
//! Paper protocol: 50 multi-walk jobs per cell on JUGENE (PowerPC 450 at 850 MHz, so
//! roughly 3× slower per core than HA8000); instances 21–23, 512 to 8,192 cores.
//! Core counts this large are simulated in the *sampled* mode: the per-walk completion
//! iteration counts are drawn from an empirical distribution measured with real
//! sequential runs of the same instance (the README's "Virtual-cluster cells: exact
//! and sampled" explains why independence makes this statistically equivalent),
//! while the 512-core column is kept exact in quick mode so both modes can be
//! compared.
//!
//! Quick mode: n ∈ {15, 16}, 10 runs per cell.  Full mode: n ∈ {18, 19, 20}, 50 runs.

use bench::tables::{run_parallel_table, ParallelTableSpec};
use bench::{banner, write_csv, HarnessOptions};
use multiwalk::PlatformProfile;

fn main() {
    let options = HarnessOptions::from_env();
    banner(
        "Table IV — multi-walk execution times on the (virtual) JUGENE Blue Gene/P",
        "avg/med/min/max seconds per instance and core count, 512..8192 cores",
        &options,
    );
    let spec = ParallelTableSpec {
        platform: PlatformProfile::jugene(),
        sizes: options.sizes(&[15, 16], &[18, 19, 20]).to_vec(),
        cores: vec![512, 1024, 2048, 4096, 8192],
        runs: options.runs(10, 50),
        // Everything above 512 cores is sampled; 512 itself is exact only in quick
        // mode (its work is 512 × winner-iterations, affordable for the small sizes).
        exact_core_limit: if options.full { 0 } else { 512 },
        sample_runs: options.runs(60, 200),
    };
    let out = run_parallel_table(&spec, &options);
    println!("\n{}", out.table.render());
    let path = write_csv("table4_jugene.csv", &out.csv.to_csv());
    println!("CSV written to {}", path.display());
    println!(
        "\nThe paper reports: times keep halving as cores double all the way to 8,192\n\
         cores, with speed-ups of 15.3/13.25 for CAP 21/22 from 512 to 8,192 cores\n\
         against an ideal of 16."
    );
}
