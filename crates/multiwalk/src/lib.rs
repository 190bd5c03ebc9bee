//! # multiwalk — independent multi-walk parallel local search
//!
//! The parallelisation scheme of the IPPS 2012 paper (§V) is *independent
//! multiple-walk* (also called multi-start): fork one sequential Adaptive Search
//! engine per core, each with its own decorrelated random seed, no communication
//! during the search, and terminate the whole job as soon as any walk finds a
//! solution (each walk polls for a termination message every `c` iterations).
//!
//! This crate provides two execution substrates for that scheme:
//!
//! * [`ThreadRunner`] — real OS-thread parallelism on the host, termination via a
//!   shared atomic flag that every walk polls every `c` iterations (the paper's
//!   OpenMPI "solution found" message).  This is what a user running on a
//!   multi-core workstation wants.
//! * [`VirtualCluster`] — a deterministic simulator that reproduces the paper's
//!   *cluster-scale* experiments (32 … 8 192 cores) on a small host.  Walks are
//!   interleaved step by step and time is measured on a virtual clock whose unit is
//!   the engine iteration (the machine-independent unit Table I also reports); a
//!   [`PlatformProfile`] converts iterations to seconds for a given machine
//!   (HA8000, Grid'5000 Suno/Helios, JUGENE).  Because the walks are independent, the
//!   wall-clock of a K-core run is exactly the minimum over K walks of their
//!   completion times — the simulator computes that minimum by actually running the
//!   walks, not by assuming a distribution.  See DESIGN.md §4 for why this
//!   substitution preserves the paper's observable behaviour.
//!
//! [`WalkSpec`] describes the instance + engine configuration shared by every walk,
//! and seeds are derived per rank through the chaotic-map seeder of §III-B3.
//!
//! The walks never communicate.  A cooperative layer (elite exchange plus
//! coordinated restarts) was measured against these independent walks in
//! iterations and deleted when it did not win; the README's "Why the walks stay
//! independent" holds the numbers.  Both substrates can be replayed exactly:
//! [`ThreadRunner::run_deterministic`] and [`VirtualCluster::run_exact`] name the
//! same winner, at the same iteration count, with the same solution.

pub mod campaign;
pub mod platform;
pub mod thread_runner;
pub mod virtual_cluster;
pub mod walker;

pub use campaign::{Campaign, CampaignError, CampaignSpec};
pub use platform::PlatformProfile;
pub use thread_runner::{MultiWalkResult, ThreadRunner};
pub use virtual_cluster::{SimulatedRun, VirtualCluster};
pub use walker::WalkSpec;

#[cfg(test)]
mod tests {
    use super::*;
    use costas::is_costas_permutation;

    #[test]
    fn thread_runner_end_to_end() {
        let spec = WalkSpec::costas(12);
        let runner = ThreadRunner::new(spec, 4);
        let result = runner.run(2024);
        assert!(result.solved());
        assert!(is_costas_permutation(result.solution.as_ref().unwrap()));
    }
}
