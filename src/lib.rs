//! # costas-lab — parallel local search for the Costas Array Problem
//!
//! Umbrella crate for the workspace reproducing *"Parallel local search for the Costas
//! Array Problem"* (Diaz, Richoux, Caniou, Codognet, Abreu — IPPS 2012).  It re-exports
//! the individual crates under stable names and hosts the runnable examples
//! (`examples/`) and the cross-crate integration tests (`tests/`).
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`costas`] | `costas` | Costas-array domain: difference triangle, validity, symmetry, Welch/Golomb constructions, enumeration, incremental conflict table |
//! | [`adaptive_search`] | `adaptive-search` | The Adaptive Search metaheuristic, the CAP model (§IV), the N-Queens / All-Interval / Magic-Square / Langford / number-partitioning models, and the string-keyed workload registry (`problems`) |
//! | [`multiwalk`] | `multiwalk` | Independent multi-walk runners (OS threads) and the virtual cluster simulator (§V) |
//! | [`runtime_stats`] | `runtime-stats` | Time-to-target plots, shifted-exponential fits, speed-up models, table rendering |
//! | [`baselines`] | `baselines` | Dialectic Search, quadratic tabu search, random-restart hill climbing, complete backtracking |
//! | [`solverd`] | `solverd` | Long-running solver service: solve requests over line-delimited JSON (stdin/stdout or localhost TCP), bounded admission queue, deadline enforcement |
//! | [`xrand`] | `xrand` | Deterministic PRNGs and the chaotic-map seed generator (§III-B3) |
//!
//! ## Quickstart
//!
//! ```
//! use costas_lab::prelude::*;
//!
//! // Solve CAP 12 with the paper's sequential Adaptive Search configuration.
//! let result = solve_costas(12, 42);
//! assert!(result.is_solved());
//! let solution = result.solution.unwrap();
//! assert!(is_costas_permutation(&solution));
//!
//! // Or run an independent multi-walk job across 4 walks (first solution wins).
//! let job = ThreadRunner::new(WalkSpec::costas(12), 4).run(42);
//! assert!(job.solved());
//!
//! // Or simulate it on the deterministic virtual cluster, whose clock is engine
//! // iterations: it names the same winner as a flag-free thread job.
//! let cluster = VirtualCluster::new(PlatformProfile::local());
//! let run = cluster.run_exact(&WalkSpec::costas(12), 4, 42);
//! let threads = ThreadRunner::new(WalkSpec::costas(12), 4).run_deterministic(42);
//! assert_eq!(threads.winner, run.winner_rank);
//! assert_eq!(threads.winner_iterations(), Some(run.winner_iterations));
//! ```

pub use adaptive_search;
pub use baselines;
pub use costas;
pub use multiwalk;
pub use runtime_stats;
pub use solverd;
pub use xrand;

/// The most common imports, for examples and quick experiments.
pub mod prelude {
    pub use adaptive_search::{
        problems, solve_costas, AsConfig, CostasModelConfig, CostasProblem, DynProblem, Engine,
        PermutationProblem, ProblemInfo, SearchStats, SequentialDriver, SolveOutcome, SolveRequest,
        SolveResult, SolveStatus, Termination, TieBreak,
    };
    pub use costas::{
        golomb_construction, is_costas_permutation, welch_construction, CostasArray,
        DifferenceTriangle, Permutation,
    };
    pub use multiwalk::{
        MultiWalkResult, PlatformProfile, SimulatedRun, ThreadRunner, VirtualCluster, WalkSpec,
    };
    pub use runtime_stats::{BatchStats, Series, ShiftedExponential, TimeToTarget};
    pub use xrand::{default_rng, ChaoticSeeder, RandExt, SeedSequence};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_types_compose() {
        let result = solve_costas(10, 7);
        assert!(result.is_solved());
        let triangle = DifferenceTriangle::new(&result.solution.unwrap());
        assert!(triangle.is_costas());
    }
}
