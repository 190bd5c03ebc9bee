//! Schema validation for the `BENCH_*.json` documents the harnesses emit.
//!
//! Two harnesses write machine-readable documents: `load_gen` (serving
//! numbers) and `campaign` (a checkpoint/resume campaign report).  CI checks
//! and uploads them.  Their consumers need each schema to stay what it claims:
//! a file announcing `solverd_load/v2` must have the v2 shape, and a stale
//! document written by an older harness must be rejected loudly, not
//! mis-read.  Speed is not read from these documents; the repository
//! benchmark (`perfbench/`) is the perf ledger.
//!
//! This module is that contract, in code: one validator per current schema
//! ([`validate_solverd_load`], [`validate_campaign`]) plus a dispatching
//! [`validate_bench_doc`] that recognises a document by its `schema` field and
//! rejects superseded versions (`solverd_load/v1`, `campaign/v0`, …) with an error
//! naming the expected one.  Validators are pure functions over parsed
//! [`Json`]; the round-trip (`render` → [`Json::parse`] → validate) is what
//! the tests exercise.

use runtime_stats::Json;

/// Current schema tag of the solverd load-generation section.  v2 adds the
/// fault-tolerance columns — `retries` (queue-full re-offers with backoff,
/// *not* folded into `rejected_overflow`), `worker_panicked` (typed
/// `"worker-panicked"` failures under an installed fault plan) and
/// `cancels_sent` (cancel messages fired at the victim slots) — and widens
/// the admission invariant to
/// `completed + rejected_overflow + rejected_other + worker_panicked == offered`.
pub const SOLVERD_LOAD_SCHEMA: &str = "solverd_load/v2";
/// Current schema tag of the campaign section: the checkpoint/resume search
/// campaign report emitted by `multiwalk::Campaign::artifact_section` (see the
/// `campaign` harness).  Every value is an integer derived from the
/// deterministic search, so two same-seed campaigns must agree on every field
/// except `resumes_survived` — the count of crashes *this* execution lived
/// through — which is exactly what the CI campaign smoke checks.
pub const CAMPAIGN_SCHEMA: &str = "campaign/v1";

fn schema_of(doc: &Json) -> Result<&str, String> {
    doc.get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string \"schema\" field".to_string())
}

/// Check the document's `schema` tag against the current one for its family,
/// rejecting stale versions with an error that names the expected tag.
fn require_schema(doc: &Json, current: &str) -> Result<(), String> {
    let found = schema_of(doc)?;
    if found == current {
        return Ok(());
    }
    let family = current.split('/').next().unwrap_or(current);
    if found.split('/').next() == Some(family) {
        Err(format!(
            "stale schema {found:?}: this validator requires {current:?}"
        ))
    } else {
        Err(format!("schema {found:?} is not {current:?}"))
    }
}

fn require_u64(obj: &Json, key: &str, context: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{context}: missing unsigned integer {key:?}"))
}

fn require_number(obj: &Json, key: &str, context: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{context}: missing number {key:?}"))
}

/// A number that may legitimately be `null` (NaN percentiles render as `null`).
fn require_nullable_number(obj: &Json, key: &str, context: &str) -> Result<(), String> {
    match obj.get(key) {
        Some(Json::Null) => Ok(()),
        Some(v) if v.as_f64().is_some() => Ok(()),
        Some(_) => Err(format!("{context}: {key:?} must be a number or null")),
        None => Err(format!("{context}: missing field {key:?}")),
    }
}

fn require_object(value: &Json, context: &str) -> Result<(), String> {
    match value {
        Json::Object(_) => Ok(()),
        _ => Err(format!("{context}: expected an object")),
    }
}

/// Validate a `campaign/v1` section (standalone document or rider): the
/// checkpoint/resume campaign report of `multiwalk::Campaign`.
///
/// Beyond field shape this checks the dedup-accounting invariants a correct
/// campaign must satisfy: the symmetry-deduped class count never exceeds the
/// raw solution count, the append-only result log holds exactly one record per
/// distinct class, and no walker stepped past the round budget
/// (`total_steps <= rounds * walkers * checkpoint_interval`; solved rounds may
/// fall short because a solve terminates the step without counting it).
pub fn validate_campaign(section: &Json) -> Result<(), String> {
    require_schema(section, CAMPAIGN_SCHEMA)?;
    section
        .get("problem")
        .and_then(Json::as_str)
        .ok_or_else(|| "campaign: missing string \"problem\"".to_string())?;
    require_u64(section, "n", "campaign")?;
    let walkers = require_u64(section, "walkers", "campaign")?;
    if walkers == 0 {
        return Err("campaign: walkers must be >= 1".into());
    }
    require_u64(section, "master_seed", "campaign")?;
    let rounds = require_u64(section, "rounds", "campaign")?;
    if rounds == 0 {
        return Err("campaign: rounds must be >= 1 (an empty campaign measured nothing)".into());
    }
    let interval = require_u64(section, "checkpoint_interval", "campaign")?;
    if interval == 0 {
        return Err("campaign: checkpoint_interval must be >= 1".into());
    }
    let total_steps = require_u64(section, "total_steps", "campaign")?;
    let budget = rounds
        .checked_mul(walkers)
        .and_then(|v| v.checked_mul(interval))
        .ok_or_else(|| "campaign: step budget overflows u64".to_string())?;
    if total_steps > budget {
        return Err(format!(
            "campaign: total_steps {total_steps} exceeds the budget \
             rounds {rounds} x walkers {walkers} x checkpoint_interval {interval} = {budget}"
        ));
    }
    let solutions = require_u64(section, "solutions_found", "campaign")?;
    let classes = require_u64(section, "distinct_classes", "campaign")?;
    if classes > solutions {
        return Err(format!(
            "campaign: distinct_classes {classes} > solutions_found {solutions} \
             — dedup cannot invent equivalence classes"
        ));
    }
    let log_records = require_u64(section, "log_records", "campaign")?;
    if log_records != classes {
        return Err(format!(
            "campaign: log_records {log_records} != distinct_classes {classes} \
             — the result log must hold exactly one record per class"
        ));
    }
    require_u64(section, "checkpoints_written", "campaign")?;
    require_u64(section, "resumes_survived", "campaign")?;
    require_u64(section, "best_cost", "campaign")?;
    if solutions > 0 && classes == 0 {
        return Err(format!(
            "campaign: solutions_found {solutions} but no distinct class \
             — the first solution always founds an equivalence class"
        ));
    }
    Ok(())
}

/// Validate a `solverd_load/v2` section (standalone document or rider): the
/// load-generation report of `bench::loadgen` / the `load_gen` harness.
///
/// Beyond field shape this checks the accounting invariants a correct
/// service + generator pair must satisfy: every offered request is completed,
/// rejected, or answered with a typed worker failure; every completed request
/// has exactly one termination class; and no more requests report a
/// cancellation than cancel messages were sent.
pub fn validate_solverd_load(section: &Json) -> Result<(), String> {
    require_schema(section, SOLVERD_LOAD_SCHEMA)?;
    let mode = section
        .get("mode")
        .and_then(Json::as_str)
        .ok_or_else(|| "solverd_load: missing string \"mode\"".to_string())?;
    if mode != "in-process" && mode != "tcp" {
        return Err(format!(
            "solverd_load: mode {mode:?} is neither \"in-process\" nor \"tcp\""
        ));
    }
    let workers = require_u64(section, "workers", "solverd_load")?;
    require_u64(section, "queue_capacity", "solverd_load")?;
    if mode == "in-process" && workers == 0 {
        return Err("solverd_load: in-process mode requires workers >= 1".into());
    }
    let rps = require_number(section, "target_rps", "solverd_load")?;
    if rps <= 0.0 || rps.is_nan() {
        return Err(format!("solverd_load: target_rps {rps} must be > 0"));
    }
    require_u64(section, "master_seed", "solverd_load")?;
    require_number(section, "elapsed_s", "solverd_load")?;
    require_number(section, "requests_per_sec", "solverd_load")?;
    let offered = require_u64(section, "offered", "solverd_load")?;
    if offered == 0 {
        return Err("solverd_load: offered must be >= 1".into());
    }
    let completed = require_u64(section, "completed", "solverd_load")?;
    let overflow = require_u64(section, "rejected_overflow", "solverd_load")?;
    let other = require_u64(section, "rejected_other", "solverd_load")?;
    let panicked = require_u64(section, "worker_panicked", "solverd_load")?;
    require_u64(section, "retries", "solverd_load")?;
    if completed + overflow + other + panicked != offered {
        return Err(format!(
            "solverd_load: completed {completed} + rejected_overflow {overflow} \
             + rejected_other {other} + worker_panicked {panicked} != offered {offered}"
        ));
    }
    let solved = require_u64(section, "solved", "solverd_load")?;
    let deadline = require_u64(section, "deadline_expired", "solverd_load")?;
    let budget = require_u64(section, "budget_exhausted", "solverd_load")?;
    let cancelled = require_u64(section, "cancelled", "solverd_load")?;
    if solved + deadline + budget + cancelled != completed {
        return Err(format!(
            "solverd_load: terminations {} != completed {completed}",
            solved + deadline + budget + cancelled
        ));
    }
    let cancels_sent = require_u64(section, "cancels_sent", "solverd_load")?;
    if cancelled > cancels_sent {
        return Err(format!(
            "solverd_load: cancelled {cancelled} > cancels_sent {cancels_sent} \
             — the service cannot cancel requests nobody asked to cancel"
        ));
    }
    let latency = section
        .get("latency_ms")
        .ok_or_else(|| "solverd_load: missing \"latency_ms\"".to_string())?;
    require_object(latency, "solverd_load latency_ms")?;
    for key in ["p50", "p90", "p99"] {
        require_nullable_number(latency, key, "solverd_load latency_ms")?;
    }
    Ok(())
}

/// Dispatch on the document's `schema` field: current versions validate, stale
/// or unknown ones are rejected with an explanatory error.
pub fn validate_bench_doc(doc: &Json) -> Result<(), String> {
    let schema = schema_of(doc)?.to_string();
    match schema.split('/').next() {
        Some("solverd_load") => validate_solverd_load(doc),
        Some("campaign") => validate_campaign(doc),
        _ => Err(format!("unknown benchmark schema {schema:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_load_section() -> Json {
        crate::loadgen::LoadReport {
            mode: "in-process",
            workers: 2,
            queue_capacity: 16,
            target_rps: 20.0,
            offered: 10,
            completed: 7,
            rejected_overflow: 2,
            rejected_other: 0,
            worker_panicked: 1,
            retries: 3,
            cancels_sent: 1,
            solved: 5,
            deadline_expired: 1,
            budget_exhausted: 0,
            cancelled: 1,
            elapsed_s: 0.6,
            requests_per_sec: 13.3,
            latencies_ms: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
            master_seed: 7,
        }
        .to_json()
    }

    fn sample_campaign_section() -> Json {
        Json::object(vec![
            ("schema", Json::from(CAMPAIGN_SCHEMA)),
            ("problem", Json::from("costas")),
            ("n", Json::from(10usize)),
            ("walkers", Json::from(2u64)),
            ("master_seed", Json::from(7u64)),
            ("rounds", Json::from(3u64)),
            ("checkpoint_interval", Json::from(2_000u64)),
            ("total_steps", Json::from(11_600u64)),
            ("solutions_found", Json::from(9u64)),
            ("distinct_classes", Json::from(6u64)),
            ("log_records", Json::from(6u64)),
            ("checkpoints_written", Json::from(3u64)),
            ("resumes_survived", Json::from(0u64)),
            ("best_cost", Json::from(0u64)),
        ])
    }

    /// Round-trip property for every current schema: what the emitters
    /// render parses back and validates.
    #[test]
    fn current_schemas_round_trip_through_parse_and_validate() {
        for (doc, schema) in [
            (sample_load_section(), SOLVERD_LOAD_SCHEMA),
            (sample_campaign_section(), CAMPAIGN_SCHEMA),
        ] {
            let parsed = Json::parse(&doc.render()).expect(schema);
            validate_bench_doc(&parsed).expect(schema);
        }
    }

    /// The campaign validator enforces the dedup accounting, not just shape.
    #[test]
    fn campaign_accounting_violations_are_caught() {
        let poke = |key: &str, value: Json| {
            let mut section = sample_campaign_section();
            if let Json::Object(map) = &mut section {
                map.insert(key.into(), value);
            }
            validate_campaign(&section)
        };
        assert!(poke("walkers", Json::from(0u64))
            .expect_err("zero walkers")
            .contains("walkers"));
        assert!(poke("rounds", Json::from(0u64))
            .expect_err("empty campaign")
            .contains("rounds"));
        assert!(poke("checkpoint_interval", Json::from(0u64))
            .expect_err("zero interval")
            .contains("checkpoint_interval"));
        assert!(poke("total_steps", Json::from(1_000_000u64))
            .expect_err("stepping past the budget")
            .contains("budget"));
        assert!(poke("distinct_classes", Json::from(99u64))
            .expect_err("dedup inventing classes")
            .contains("distinct_classes"));
        assert!(poke("log_records", Json::from(5u64))
            .expect_err("log out of step with the class set")
            .contains("log_records"));
        let mut unlogged = sample_campaign_section();
        if let Json::Object(map) = &mut unlogged {
            map.insert("distinct_classes".into(), Json::from(0u64));
            map.insert("log_records".into(), Json::from(0u64));
        }
        assert!(validate_campaign(&unlogged)
            .expect_err("solved campaign with an empty log")
            .contains("solutions_found"));
        assert!(
            poke("best_cost", Json::from("perfect")).is_err(),
            "best_cost must be an unsigned integer"
        );
        // a campaign that never solved is still a valid (honest) report
        let mut dry = sample_campaign_section();
        if let Json::Object(map) = &mut dry {
            map.insert("solutions_found".into(), Json::from(0u64));
            map.insert("distinct_classes".into(), Json::from(0u64));
            map.insert("log_records".into(), Json::from(0u64));
            map.insert("best_cost".into(), Json::from(3u64));
        }
        validate_campaign(&dry).expect("an unsolved campaign validates");
    }

    /// The load validator enforces the admission/termination accounting, not
    /// just field shape.
    #[test]
    fn solverd_load_accounting_violations_are_caught() {
        let poke = |key: &str, value: Json| {
            let mut section = sample_load_section();
            if let Json::Object(map) = &mut section {
                map.insert(key.into(), value);
            }
            validate_solverd_load(&section)
        };
        assert!(poke("completed", Json::from(5u64))
            .expect_err("admission mismatch")
            .contains("offered"));
        assert!(poke("worker_panicked", Json::from(4u64))
            .expect_err("panics count toward admission")
            .contains("worker_panicked"));
        assert!(poke("solved", Json::from(99u64))
            .expect_err("termination mismatch")
            .contains("terminations"));
        assert!(poke("cancels_sent", Json::from(0u64))
            .expect_err("cancelled must not exceed cancels_sent")
            .contains("cancels_sent"));
        assert!(
            poke("retries", Json::from("lots")).is_err(),
            "retries must be an unsigned integer"
        );
        assert!(poke("mode", Json::from("carrier-pigeon"))
            .expect_err("bad mode")
            .contains("mode"));
        assert!(poke("target_rps", Json::from(0.0))
            .expect_err("zero rate")
            .contains("target_rps"));
        assert!(poke("offered", Json::from(0u64)).is_err());
        // tcp mode may legitimately report an unknown (0) pool shape
        let mut remote = sample_load_section();
        if let Json::Object(map) = &mut remote {
            map.insert("mode".into(), Json::from("tcp"));
            map.insert("workers".into(), Json::from(0u64));
            map.insert("queue_capacity".into(), Json::from(0u64));
        }
        validate_solverd_load(&remote).expect("tcp mode allows unknown pool shape");
    }

    /// Stale versions of a known family are rejected with an error naming the
    /// current schema — the "reject stale schemas" half of the contract.  The
    /// retired single-run families are unknown, not stale.
    #[test]
    fn stale_schemas_are_rejected_by_name() {
        for (stale, current) in [
            ("solverd_load/v0", SOLVERD_LOAD_SCHEMA),
            ("solverd_load/v1", SOLVERD_LOAD_SCHEMA),
            ("campaign/v0", CAMPAIGN_SCHEMA),
        ] {
            let doc = Json::object(vec![("schema", Json::from(stale))]);
            let err = validate_bench_doc(&doc).expect_err(stale);
            assert!(err.contains("stale"), "{stale}: {err}");
            assert!(err.contains(current), "{stale}: {err}");
        }
        for unknown in ["mystery/v1", "probe_throughput/v4", "scaling_curve/v1"] {
            let doc = Json::object(vec![("schema", Json::from(unknown))]);
            assert!(validate_bench_doc(&doc)
                .expect_err(unknown)
                .contains("unknown benchmark schema"));
        }
        let missing = Json::object(vec![("n", Json::from(1u64))]);
        assert!(validate_bench_doc(&missing).is_err());
    }
}
