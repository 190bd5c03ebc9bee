//! Shared plumbing for the benchmark harness binaries.
//!
//! Every table/figure of the paper has its own binary under `src/bin/` (the
//! README's reproduction guide is the experiment index).  They all follow the
//! same conventions, implemented here:
//!
//! * **Scale control** — by default each harness runs a *scaled-down* version of the
//!   experiment (smaller instances and/or fewer repetitions) so the whole suite
//!   completes in minutes on a laptop; setting `COSTAS_FULL=1` switches to the paper's
//!   exact instance sizes and repetition counts (hours of compute).
//!   `COSTAS_RUNS=<k>` overrides the repetition count, `COSTAS_SEED=<s>` the master
//!   seed.
//! * **Output** — each harness prints the paper-shaped table to stdout and writes a
//!   CSV with the same rows under `target/experiments/` for plotting.  The
//!   `campaign` harness additionally emits a schema-validated
//!   `BENCH_campaign.json` document (destination overridable with
//!   `COSTAS_BENCH_JSON`; CI checks it).  Performance claims are not read
//!   from it: the repository benchmark (`perfbench/`, declared in
//!   `BENCHMARK.json`) is the one perf ledger.

use std::path::{Path, PathBuf};

pub mod env;
pub mod protocol;
pub mod schema;
pub mod tables;

pub use env::BenchConfig;

/// Runtime options shared by every harness binary.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Run the paper-sized experiment instead of the scaled-down default.
    pub full: bool,
    /// Number of repetitions per cell (overrides the per-harness default when set).
    pub runs_override: Option<usize>,
    /// Master seed for the whole experiment.
    pub master_seed: u64,
}

impl HarnessOptions {
    /// Read options from the process-wide [`BenchConfig`] (`COSTAS_FULL`,
    /// `COSTAS_RUNS`, `COSTAS_SEED`), which parses the environment once and
    /// warns about unknown variables and unparseable values.
    pub fn from_env() -> Self {
        let config = BenchConfig::get();
        Self {
            full: config.full,
            runs_override: config.runs_override,
            master_seed: config.master_seed,
        }
    }

    /// Pick the repetition count: the override when present, otherwise `full_runs` in
    /// full mode and `quick_runs` in quick mode.
    pub fn runs(&self, quick_runs: usize, full_runs: usize) -> usize {
        self.runs_override
            .unwrap_or(if self.full { full_runs } else { quick_runs })
    }

    /// Pick an instance list: the paper's sizes in full mode, the scaled list in
    /// quick mode.
    pub fn sizes<'a>(&self, quick: &'a [usize], full: &'a [usize]) -> &'a [usize] {
        if self.full {
            full
        } else {
            quick
        }
    }
}

impl Default for HarnessOptions {
    fn default() -> Self {
        Self {
            full: false,
            runs_override: None,
            master_seed: env::DEFAULT_MASTER_SEED,
        }
    }
}

/// Directory where harnesses drop their CSV output.
pub fn experiments_dir() -> PathBuf {
    let dir = Path::new("target").join("experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Write a CSV produced by `runtime_stats::TextTable::to_csv` (or any string) next to
/// the other experiment artefacts.  Returns the path written.
pub fn write_csv(name: &str, contents: &str) -> PathBuf {
    let path = experiments_dir().join(name);
    std::fs::write(&path, contents).expect("write experiment CSV");
    path
}

/// Write a machine-readable benchmark artefact (`BENCH_*.json`).
///
/// The destination is `COSTAS_BENCH_JSON` when set (CI points it at the files
/// it checks and uploads), otherwise `default_name` in the current directory;
/// a missing parent directory is created, as [`experiments_dir`] does.
/// Returns the path written.
pub fn write_bench_json(default_name: &str, doc: &runtime_stats::Json) -> PathBuf {
    let path = BenchConfig::get()
        .bench_json
        .clone()
        .unwrap_or_else(|| PathBuf::from(default_name));
    if let Some(dir) = path.parent().filter(|dir| !dir.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create the benchmark JSON's directory");
    }
    std::fs::write(&path, doc.render()).expect("write benchmark JSON");
    path
}

/// Print a standard harness header so every binary's output is self-describing.
pub fn banner(experiment: &str, description: &str, options: &HarnessOptions) {
    println!("================================================================");
    println!("{experiment}");
    println!("{description}");
    println!(
        "mode: {}   master seed: {:#x}",
        if options.full {
            "FULL (paper sizes)"
        } else {
            "quick (scaled down; COSTAS_FULL=1 for paper sizes)"
        },
        options.master_seed
    );
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_sizes_selection() {
        let quick = HarnessOptions::default();
        assert_eq!(quick.runs(10, 100), 10);
        assert_eq!(quick.sizes(&[14, 15], &[18, 19, 20]), &[14, 15]);
        let full = HarnessOptions {
            full: true,
            ..Default::default()
        };
        assert_eq!(full.runs(10, 100), 100);
        assert_eq!(full.sizes(&[14, 15], &[18, 19, 20]), &[18, 19, 20]);
        let overridden = HarnessOptions {
            runs_override: Some(3),
            ..Default::default()
        };
        assert_eq!(overridden.runs(10, 100), 3);
    }

    #[test]
    fn csv_is_written_to_experiments_dir() {
        let path = write_csv("unit_test_artifact.csv", "a,b\n1,2\n");
        assert!(path.exists());
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("a,b"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bench_json_is_written_to_the_default_path() {
        // Write into target/ so a test run never litters the repo root.
        let doc = runtime_stats::Json::object(vec![("ok", true)]);
        let name = "target/unit_test_bench.json";
        let path = write_bench_json(name, &doc);
        assert_eq!(path, std::path::PathBuf::from(name));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), r#"{"ok":true}"#);
        std::fs::remove_file(path).ok();
    }
}
