//! # solverd — a long-running solver service over the unified SolveRequest API
//!
//! The paper's parallel Adaptive Search is a first-solution-wins race; the
//! rest of this workspace can run that race as one-shot bench binaries.  This
//! crate turns it into a *service*: a fixed worker pool behind a bounded
//! admission queue, accepting solve requests over a dependency-free
//! line-delimited JSON protocol on stdin/stdout or a localhost TCP listener
//! (`std::net` only — no async runtime, no HTTP library).
//!
//! * [`proto`] — the wire protocol: request decoding (via
//!   `runtime_stats::json::Json::parse`), response rendering, structured
//!   reject classes (`queue-full`, `unknown-problem`, `invalid-request`,
//!   `oversized`, `parse`), the `{"cancel":"<id>"}` control message and the
//!   typed `"worker-panicked"` failure response.
//! * [`service`] — admission control, backpressure, deadline enforcement and
//!   the single-engine vs multi-walk fan-out policy.  All solve execution goes
//!   through [`adaptive_search::SolveRequest`], the same audited API the
//!   baselines use, so a served response and a direct library call are the
//!   same computation.
//! * [`connection`] — pumping one byte stream (stdin or a TCP socket) through
//!   a service: reader thread submits, writer thread emits responses in
//!   completion order, with a per-line byte cap and (TCP) read timeout.
//!
//! ## Fault tolerance
//!
//! The service is supervised: request execution runs under `catch_unwind`
//! (a panicking cost model costs the request a typed failure response, never
//! the worker), dead worker threads are respawned by a supervisor, and every
//! admitted request carries a [`adaptive_search::CancelToken`] so a
//! `{"cancel":"<id>"}` line stops a queued *or in-flight* solve mid-search
//! with `"termination":"cancelled"`.  The invariant throughout: **every
//! admitted request gets exactly one typed response** — the service answers,
//! it never aborts.
//!
//! The `solverd` binary wires these together.  Serving latency and
//! throughput are measured by the repository benchmark's `solverd-small`
//! workload (`perfbench/`); `tests/service_e2e.rs` drives the binary's TCP
//! accept loop with a burst against a starved pool.

pub mod connection;
pub mod proto;
pub mod service;

pub use connection::serve_connection;
pub use proto::{
    parse_message, parse_request, Reject, RejectReason, WireMessage, WireRequest, DEFAULT_BUDGET,
    MAX_WALKS,
};
pub use service::{Service, ServiceConfig};
