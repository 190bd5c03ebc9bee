//! The repository benchmark: Costas time-to-solution at one and two walks,
//! large-order walk throughput and `solverd` small-request serving, with a
//! traced per-layer split.  See `README.md` for the workloads and metrics.

pub mod calib;
pub mod report;
pub mod serving;
pub mod trace;
pub mod work;
pub mod workloads;
