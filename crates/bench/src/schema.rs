//! Schema validation for the `BENCH_campaign.json` document the `campaign`
//! harness emits.
//!
//! CI checks and uploads that document.  Its consumers need the schema to
//! stay what it claims: a file announcing `campaign/v1` must have the v1
//! shape, and a stale document written by an older harness must be rejected
//! loudly, not mis-read.  Speed is not read from it; the repository benchmark
//! (`perfbench/`) is the perf ledger.
//!
//! [`validate_campaign`] is that contract, in code: it rejects superseded
//! versions (`campaign/v0`, …) with an error naming the expected one.  It is
//! a pure function over parsed [`Json`]; the round-trip (`render` →
//! [`Json::parse`] → validate) is what the tests exercise.

use runtime_stats::Json;

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

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Round-trip property: what the emitter renders parses back and
    /// validates.
    #[test]
    fn current_schemas_round_trip_through_parse_and_validate() {
        let doc = sample_campaign_section();
        let parsed = Json::parse(&doc.render()).expect(CAMPAIGN_SCHEMA);
        validate_campaign(&parsed).expect(CAMPAIGN_SCHEMA);
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

    /// A stale version of the campaign family is rejected with an error
    /// naming the current schema — the "reject stale schemas" half of the
    /// contract.  Other families, retired ones included, are
    /// not campaigns.
    #[test]
    fn stale_schemas_are_rejected_by_name() {
        let stale = Json::object(vec![("schema", Json::from("campaign/v0"))]);
        let err = validate_campaign(&stale).expect_err("campaign/v0");
        assert!(err.contains("stale"), "{err}");
        assert!(err.contains(CAMPAIGN_SCHEMA), "{err}");
        for other in ["mystery/v1", "probe_throughput/v4", "scaling_curve/v1"] {
            let doc = Json::object(vec![("schema", Json::from(other))]);
            let err = validate_campaign(&doc).expect_err(other);
            assert!(!err.contains("stale"), "{other}: {err}");
            assert!(err.contains("is not"), "{other}: {err}");
        }
        let missing = Json::object(vec![("n", Json::from(1u64))]);
        assert!(validate_campaign(&missing).is_err());
    }
}
