//! **Serving-load harness** — drive a `solverd` service at a configurable
//! request rate and measure what it sustains.
//!
//! By default the service's worker pool runs in-process (no sockets, fully
//! reproducible), sized by `COSTAS_LOAD_WORKERS` / `COSTAS_LOAD_QUEUE`; with
//! `COSTAS_SOLVERD_ADDR=host:port` the same request stream is written to a
//! running `solverd --tcp` instance instead, so the measured latency includes
//! the real protocol round-trip.  `COSTAS_LOAD_RPS` and
//! `COSTAS_LOAD_REQUESTS` set the offered rate and volume.
//!
//! The request mix is deterministic in `COSTAS_SEED` (see
//! `bench::loadgen::request_line`): small registry instances that solve in
//! milliseconds, with every 7th request a 2-walk Costas fan-out under a tight
//! deadline, and every 13th slot a cancel victim whose cancel message follows
//! one slot later — the race, deadline, and in-flight-cancellation paths all
//! see traffic.  Queue-full rejects are re-offered up to `COSTAS_LOAD_RETRIES`
//! times with deterministic exponential backoff
//! (`COSTAS_LOAD_RETRY_BACKOFF_MS`), and `COSTAS_FAULT_SEED` installs a seeded
//! chaos plan that routes the small-Costas leg through the fault-injection
//! wrapper (panicking models surface as typed `worker-panicked` responses).
//!
//! Output: a summary table on stdout and a standalone `solverd_load/v2`
//! artefact (`BENCH_solverd_load.json`, destination overridable with
//! `COSTAS_BENCH_JSON`), validated before it is written.

use bench::loadgen::{self, LoadOptions};
use bench::schema::validate_solverd_load;
use bench::{banner, write_bench_json, HarnessOptions};
use runtime_stats::TextTable;

fn main() {
    let options = HarnessOptions::from_env();
    let load = LoadOptions::from_env();
    banner(
        "solverd load generation",
        "open-loop request stream against the solver service; latency is submit-to-response",
        &options,
    );
    match &load.remote_addr {
        Some(addr) => println!(
            "target: remote solverd at {addr} ({} requests at {} req/s)",
            load.requests, load.target_rps
        ),
        None => println!(
            "target: in-process pool, {} worker(s), queue capacity {} ({} requests at {} req/s)",
            load.workers, load.queue_capacity, load.requests, load.target_rps
        ),
    }

    let report = loadgen::run(&load);

    let mut table = TextTable::new(vec!["metric", "value"]);
    table.add_row(vec!["mode".into(), report.mode.to_string()]);
    table.add_row(vec!["offered".into(), report.offered.to_string()]);
    table.add_row(vec!["completed".into(), report.completed.to_string()]);
    table.add_row(vec![
        "rejected (queue-full)".into(),
        report.rejected_overflow.to_string(),
    ]);
    table.add_row(vec![
        "rejected (other)".into(),
        report.rejected_other.to_string(),
    ]);
    table.add_row(vec![
        "worker panicked".into(),
        report.worker_panicked.to_string(),
    ]);
    table.add_row(vec!["retries".into(), report.retries.to_string()]);
    table.add_row(vec!["cancels sent".into(), report.cancels_sent.to_string()]);
    table.add_row(vec!["solved".into(), report.solved.to_string()]);
    table.add_row(vec![
        "deadline expired".into(),
        report.deadline_expired.to_string(),
    ]);
    table.add_row(vec![
        "budget exhausted".into(),
        report.budget_exhausted.to_string(),
    ]);
    table.add_row(vec!["cancelled".into(), report.cancelled.to_string()]);
    table.add_row(vec![
        "requests/sec".into(),
        format!("{:.1}", report.requests_per_sec),
    ]);
    table.add_row(vec![
        "latency p50".into(),
        format!("{:.2} ms", report.latency_ms(0.50)),
    ]);
    table.add_row(vec![
        "latency p90".into(),
        format!("{:.2} ms", report.latency_ms(0.90)),
    ]);
    table.add_row(vec![
        "latency p99".into(),
        format!("{:.2} ms", report.latency_ms(0.99)),
    ]);
    println!("\n{}", table.render());

    let doc = report.to_json();
    validate_solverd_load(&doc).expect("load report emits a valid solverd_load/v2 section");
    let json_path = write_bench_json("BENCH_solverd_load.json", &doc);
    println!("JSON written to {}", json_path.display());
}
