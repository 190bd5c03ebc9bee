//! The experimental protocol shared by the table/figure harnesses.
//!
//! * [`sequential_batch`] — the Table I protocol: `runs` independent sequential solves
//!   of one instance, returning the per-run results.
//! * [`parallel_cell`] — one cell of Tables III–V: `runs` simulated multi-walk jobs at
//!   a given core count, either *exact* (every walk really executed) or *sampled*
//!   (min-of-K over an empirical sample of sequential completion iteration counts);
//!   the sampled mode is used for very large core counts, see the README's
//!   "Virtual-cluster cells: exact and sampled".
//! * [`iteration_samples`] — gather the empirical sequential distribution that feeds
//!   the sampled mode and the time-to-target / exponential-fit analyses.

use adaptive_search::{SequentialDriver, SolveResult};
use multiwalk::{SimulatedRun, VirtualCluster, WalkSpec};
use runtime_stats::BatchStats;
use xrand::SeedSequence;

/// How a parallel cell is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellMode {
    /// Run every walk for real, interleaved on the virtual clock.
    Exact,
    /// Draw walk completions from an empirical sample of sequential runs.
    Sampled,
}

/// Run the Table I protocol: `runs` independent sequential solves of CAP `n`.
pub fn sequential_batch(n: usize, runs: usize, master_seed: u64) -> Vec<SolveResult> {
    SequentialDriver::new(n).run_many(runs, master_seed)
}

/// Iteration counts of a batch of sequential solves (the empirical distribution used
/// by the sampled mode and the TTT analysis).
pub fn iteration_samples(results: &[SolveResult]) -> Vec<u64> {
    results.iter().map(|r| r.stats.iterations).collect()
}

/// Summary of one (instance, core count) cell.
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// Core count simulated.
    pub cores: usize,
    /// Statistics of the virtual completion times in seconds.
    pub seconds: BatchStats,
    /// Statistics of the winning walk's iteration count (machine-independent).
    pub iterations: BatchStats,
    /// Mode used to produce the cell.
    pub mode: CellMode,
}

/// Simulate one cell of a parallel table.
///
/// In [`CellMode::Exact`] every walk is executed; in [`CellMode::Sampled`] the
/// completions are drawn from `samples` (which must then be non-empty).
pub fn parallel_cell(
    cluster: &VirtualCluster,
    spec: &WalkSpec,
    cores: usize,
    runs: usize,
    master_seed: u64,
    mode: CellMode,
    samples: &[u64],
) -> CellSummary {
    let runs_vec: Vec<SimulatedRun> = match mode {
        CellMode::Exact => cluster.run_exact_many(spec, cores, runs, master_seed),
        CellMode::Sampled => {
            cluster.run_sampled_many(samples, spec.check_interval(), cores, runs, master_seed)
        }
    };
    let seconds: Vec<f64> = runs_vec.iter().map(|r| r.virtual_seconds).collect();
    let iterations: Vec<f64> = runs_vec
        .iter()
        .map(|r| r.winner_iterations as f64)
        .collect();
    CellSummary {
        cores,
        seconds: BatchStats::from_values(&seconds),
        iterations: BatchStats::from_values(&iterations),
        mode,
    }
}

/// Decide the cell mode for a core count: exact up to `exact_core_limit`, sampled
/// beyond it (the paper's 512–8192-core points are far cheaper to sample, and the
/// independence of the walks makes the two statistically equivalent).
pub fn mode_for_cores(cores: usize, exact_core_limit: usize) -> CellMode {
    if cores <= exact_core_limit {
        CellMode::Exact
    } else {
        CellMode::Sampled
    }
}

/// Derive a per-cell master seed from an experiment seed, the instance and the core
/// count, so every cell is reproducible in isolation.
pub fn cell_seed(experiment_seed: u64, n: usize, cores: usize, salt: u64) -> u64 {
    SeedSequence::new(experiment_seed)
        .child(n as u64)
        .child(cores as u64)
        .child(salt)
        .seed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiwalk::PlatformProfile;

    #[test]
    fn sequential_batch_runs_and_solves() {
        let results = sequential_batch(10, 4, 1);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.is_solved()));
        let samples = iteration_samples(&results);
        assert_eq!(samples.len(), 4);
        assert!(samples.iter().all(|&s| s >= 1));
    }

    #[test]
    fn exact_and_sampled_cells_have_consistent_shapes() {
        let cluster = VirtualCluster::new(PlatformProfile::local());
        let spec = WalkSpec::costas(10);
        let seq = sequential_batch(10, 8, 3);
        let samples = iteration_samples(&seq);

        let exact = parallel_cell(&cluster, &spec, 4, 5, 7, CellMode::Exact, &[]);
        assert_eq!(exact.cores, 4);
        assert_eq!(exact.mode, CellMode::Exact);
        assert!(exact.iterations.mean >= 1.0);

        let sampled = parallel_cell(&cluster, &spec, 64, 5, 7, CellMode::Sampled, &samples);
        assert_eq!(sampled.mode, CellMode::Sampled);
        // min-of-64 should not exceed the sample mean, modulo the rounding of the
        // critical path up to the termination-check interval
        assert!(
            sampled.iterations.mean
                <= BatchStats::from_u64(&samples).mean + spec.check_interval() as f64
        );
    }

    #[test]
    fn mode_switches_at_the_limit() {
        assert_eq!(mode_for_cores(256, 256), CellMode::Exact);
        assert_eq!(mode_for_cores(512, 256), CellMode::Sampled);
    }

    #[test]
    fn cell_seeds_are_distinct() {
        let a = cell_seed(1, 18, 32, 0);
        let b = cell_seed(1, 18, 64, 0);
        let c = cell_seed(1, 19, 32, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, cell_seed(1, 18, 32, 0));
    }
}
