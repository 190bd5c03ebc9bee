//! Crash-recovery test kit for campaign mode.
//!
//! The contract under test: a campaign interrupted at an arbitrary point and
//! resumed from its checkpoint is **bit-for-bit identical** to an uninterrupted
//! same-seed run — same per-walker engine snapshots (RNG words included), same
//! statistics, same symmetry-deduped result log bytes.  Torn checkpoint tails
//! (the process died mid-write) recover to the previous checkpoint with a typed
//! warning at *every* byte boundary; in-place damage (flipped bytes), stale
//! schema versions, unknown fields and spec mismatches are typed
//! [`CampaignError`]s — never a panic, never silent acceptance.

use std::fs;
use std::path::PathBuf;

use multiwalk::campaign::{frame_record, parse_records, ARTIFACT_SCHEMA, CHECKPOINT_SCHEMA};
use multiwalk::{Campaign, CampaignError, CampaignSpec};
use runtime_stats::Json;

/// A fresh scratch directory under the target-adjacent temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaign_recovery_{}_{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Small spec that reliably finds solutions (n = 7 solves in tens of steps) so
/// the result log is exercised, with enough rounds to cross several checkpoints.
fn small_spec(dir: PathBuf) -> CampaignSpec {
    CampaignSpec {
        problem: "costas".to_string(),
        n: 7,
        walkers: 2,
        master_seed: 41,
        rounds: 6,
        checkpoint_interval: 150,
        checkpoint_every: 1,
        dir,
    }
}

fn open_fresh(spec: &CampaignSpec) -> Campaign {
    let (campaign, resumed) = Campaign::open(spec.clone()).expect("open");
    assert!(!resumed, "directory was expected to be empty");
    campaign
}

fn open_resumed(spec: &CampaignSpec) -> Campaign {
    let (campaign, resumed) = Campaign::open(spec.clone()).expect("resume");
    assert!(resumed, "a checkpoint was expected");
    campaign
}

/// Render an artifact section with `resumes_survived` dropped — the only field
/// that legitimately differs between an uninterrupted and a resumed lineage.
fn artifact_modulo_resumes(campaign: &Campaign) -> String {
    let Json::Object(mut map) = campaign.artifact_section() else {
        panic!("artifact section must be an object");
    };
    assert!(map.remove("resumes_survived").is_some());
    Json::Object(map).render()
}

/// Assert two finished campaigns are bit-identical: snapshots, stats, classes,
/// artifact (modulo resume count) and the on-disk result log.
fn assert_bit_identical(reference: &Campaign, resumed: &Campaign) {
    assert_eq!(reference.walker_snapshots(), resumed.walker_snapshots());
    assert_eq!(reference.walker_stats(), resumed.walker_stats());
    assert_eq!(reference.classes(), resumed.classes());
    assert_eq!(reference.solutions_found(), resumed.solutions_found());
    assert_eq!(reference.best_cost(), resumed.best_cost());
    assert_eq!(
        artifact_modulo_resumes(reference),
        artifact_modulo_resumes(resumed)
    );
    let ref_log = fs::read(reference.spec().log_path()).unwrap_or_default();
    let res_log = fs::read(resumed.spec().log_path()).unwrap_or_default();
    assert_eq!(ref_log, res_log, "result logs must be byte-identical");
    assert!(
        !ref_log.is_empty(),
        "the spec must actually find solutions for the log comparison to bite"
    );
}

/// Run the uninterrupted reference campaign to completion.
fn reference_run(name: &str) -> Campaign {
    let spec = small_spec(scratch_dir(name));
    let mut campaign = open_fresh(&spec);
    campaign.run_to_completion().expect("uninterrupted run");
    campaign
}

#[test]
fn resumed_campaign_is_bit_identical_to_uninterrupted_run() {
    let reference = reference_run("ref_a");

    // Interrupted lineage: 3 rounds, then the process "dies" (the campaign is
    // dropped with no finalization) and a new process resumes.
    let spec = small_spec(scratch_dir("resume_a"));
    let mut first = open_fresh(&spec);
    for _ in 0..3 {
        first.run_round().expect("round");
    }
    drop(first);
    let mut second = open_resumed(&spec);
    assert_eq!(second.rounds_done(), 3);
    assert_eq!(second.resumes_survived(), 1);
    second.run_to_completion().expect("resumed run");
    assert_bit_identical(&reference, &second);
    // checkpoints_written is part of the artifact comparison above, so the
    // interrupted lineage wrote exactly as many checkpoints in total.
}

#[test]
fn double_interruption_still_matches_the_reference() {
    let reference = reference_run("ref_b");
    let spec = small_spec(scratch_dir("resume_b"));
    let mut c = open_fresh(&spec);
    c.run_round().expect("round");
    drop(c);
    let mut c = open_resumed(&spec);
    c.run_round().expect("round");
    c.run_round().expect("round");
    drop(c);
    let mut c = open_resumed(&spec);
    assert_eq!(c.resumes_survived(), 2, "resume count accumulates");
    c.run_to_completion().expect("resumed run");
    assert_eq!(c.resumes_survived(), 2);
    assert_bit_identical(&reference, &c);
}

#[test]
fn mid_flight_crash_after_log_append_rolls_back_and_rederives() {
    // n = 8 has ~50 symmetry classes, so round 3 still discovers new ones — the
    // crash must leave the log genuinely ahead of the checkpoint.
    let mut reference_spec = small_spec(scratch_dir("ref_c"));
    reference_spec.n = 8;
    let mut reference = open_fresh(&reference_spec);
    reference.run_to_completion().expect("uninterrupted run");

    let mut spec = small_spec(scratch_dir("resume_c"));
    spec.n = 8;
    let mut first = open_fresh(&spec);
    first.run_round().expect("round");
    first.run_round().expect("round");
    let log_at_checkpoint = fs::read(spec.log_path()).expect("log").len();
    // Round 3 "crashes" between the log append and the checkpoint write: the log
    // now runs ahead of the newest checkpoint.
    first
        .run_round_crash_before_checkpoint()
        .expect("faulty round");
    assert_eq!(first.rounds_done(), 3);
    drop(first);
    assert!(
        fs::read(spec.log_path()).expect("log").len() > log_at_checkpoint,
        "the faulty round must have appended log records for this test to bite"
    );

    let mut second = open_resumed(&spec);
    // Resumed from the round-2 checkpoint; round 3's log records were rolled back.
    assert_eq!(second.rounds_done(), 2);
    let rolled_back = second
        .warnings()
        .iter()
        .any(|w| w.contains("result-log bytes written after the checkpoint"));
    assert!(
        rolled_back,
        "rolling back post-checkpoint log records must warn: {:?}",
        second.warnings()
    );
    second.run_to_completion().expect("resumed run");
    assert_bit_identical(&reference, &second);
}

#[test]
fn torn_checkpoint_tail_recovers_to_previous_at_every_byte_boundary() {
    // Build a directory holding both a current (round 2) and a previous (round 1)
    // checkpoint, plus the reference state at round 1 to compare the fallback to.
    let spec = small_spec(scratch_dir("torn_every_byte"));
    let mut c = open_fresh(&spec);
    c.run_round().expect("round");
    let at_round_1 = c.walker_snapshots();
    c.run_round().expect("round");
    drop(c);
    let current = fs::read(spec.checkpoint_path()).expect("current checkpoint");
    let prev = fs::read(spec.checkpoint_prev_path()).expect("previous checkpoint");
    let log = fs::read(spec.log_path()).unwrap_or_default();
    let reference = reference_run("ref_torn");

    for cut in 0..current.len() {
        // restore the directory, then tear the current checkpoint at `cut`
        fs::write(spec.checkpoint_path(), &current[..cut]).expect("tear");
        fs::write(spec.checkpoint_prev_path(), &prev).expect("restore prev");
        fs::write(spec.log_path(), &log).expect("restore log");
        let (resumed, was_resume) =
            Campaign::open(spec.clone()).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert!(was_resume);
        assert!(
            resumed
                .warnings()
                .iter()
                .any(|w| w.contains("torn tail") || w.contains("missing")),
            "cut {cut}: fallback must carry a typed warning, got {:?}",
            resumed.warnings()
        );
        // The fallback restored the previous checkpoint's state bit-for-bit;
        // determinism from an identical state is covered by the full-run tests,
        // so this comparison is the per-offset bit-identity statement.
        assert_eq!(resumed.rounds_done(), 1, "cut {cut}");
        assert_eq!(resumed.walker_snapshots(), at_round_1, "cut {cut}");

        // For a sample of offsets (and the empty-file edge), run the recovered
        // campaign to completion and compare against the uninterrupted run.
        if cut == 0 || cut % 977 == 11 {
            let mut resumed = resumed;
            resumed.run_to_completion().expect("recovered run");
            assert_bit_identical(&reference, &resumed);
        }
    }
}

#[test]
fn torn_result_log_tail_is_truncated_at_every_byte_offset() {
    let spec = small_spec(scratch_dir("torn_log"));
    let mut c = open_fresh(&spec);
    c.run_round().expect("round");
    c.run_round().expect("round");
    drop(c);
    let log = fs::read(spec.log_path()).expect("log with records");
    assert!(
        !log.is_empty(),
        "n = 7 must have logged solutions by round 2"
    );
    // A plausible next record that the crash cut short at every possible length.
    let next = frame_record(r#"{"canonical":[1,3,2],"rank":0,"round":2,"solution":[1,3,2]}"#);
    for extra in 1..next.len() {
        let mut torn = log.clone();
        torn.extend_from_slice(&next.as_bytes()[..extra]);
        fs::write(spec.log_path(), &torn).expect("write torn log");
        let (resumed, _) =
            Campaign::open(spec.clone()).unwrap_or_else(|e| panic!("extra {extra}: {e}"));
        assert!(
            resumed
                .warnings()
                .iter()
                .any(|w| w.contains("result-log bytes written after the checkpoint")),
            "extra {extra}: truncation must warn"
        );
        let after = fs::read(spec.log_path()).expect("log");
        assert_eq!(
            after, log,
            "extra {extra}: log truncated back to the checkpoint"
        );
    }
}

#[test]
fn flipped_byte_in_the_checkpoint_is_a_typed_corruption_error() {
    let spec = small_spec(scratch_dir("flip"));
    let mut c = open_fresh(&spec);
    c.run_round().expect("round");
    drop(c);
    let mut bytes = fs::read(spec.checkpoint_path()).expect("checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(spec.checkpoint_path(), &bytes).expect("write damaged checkpoint");
    let err = Campaign::open(spec).expect_err("in-place damage must not be repaired silently");
    assert!(
        matches!(
            err,
            CampaignError::Corrupt { .. } | CampaignError::Parse { .. }
        ),
        "want Corrupt/Parse, got {err:?}"
    );
}

/// A validly framed checkpoint whose payload nests 10⁵ levels deep is a
/// typed parse error, not a stack overflow.
#[test]
fn deeply_nested_checkpoint_payload_is_a_typed_parse_error() {
    let spec = small_spec(scratch_dir("deep"));
    let mut c = open_fresh(&spec);
    c.run_round().expect("round");
    drop(c);
    let deep = frame_record(&"[".repeat(100_000));
    fs::write(spec.checkpoint_path(), deep).expect("write deep checkpoint");
    let err = Campaign::open(spec).expect_err("deep payload must be rejected");
    assert!(
        matches!(err, CampaignError::Parse { ref message, .. } if message.contains("nesting deeper")),
        "want Parse, got {err:?}"
    );
}

#[test]
fn stale_schema_version_is_a_typed_error() {
    let spec = small_spec(scratch_dir("stale"));
    fs::create_dir_all(&spec.dir).expect("mkdir");
    for stale in [
        "campaign_checkpoint/v0",
        "campaign_checkpoint/v1",
        "campaign_checkpoint/v2",
        "campaign_checkpoint/v3",
    ] {
        let payload = format!(r#"{{"schema":"{stale}"}}"#);
        fs::write(spec.checkpoint_path(), frame_record(&payload)).expect("write stale checkpoint");
        let err = Campaign::open(spec.clone()).expect_err("stale schema must be rejected");
        assert_eq!(
            err,
            CampaignError::StaleSchema {
                found: stale.to_string(),
                expected: CHECKPOINT_SCHEMA,
            }
        );
    }
}

#[test]
fn committed_broken_sentinel_fixture_is_rejected() {
    // The deliberately-broken fixture is committed so the rejection path is
    // pinned against a byte-exact stale artifact, not one synthesized in-test.
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/stale_checkpoint_v0.ckpt");
    let bytes = fs::read(&fixture).expect("committed fixture");
    // The fixture's framing is intact (it is stale, not torn) …
    let parsed = parse_records(&bytes).expect("fixture frames parse");
    assert_eq!(parsed.records.len(), 1);
    assert!(!parsed.torn);
    // … and loading it as a checkpoint is a typed stale-schema rejection.
    let spec = small_spec(scratch_dir("sentinel"));
    fs::create_dir_all(&spec.dir).expect("mkdir");
    fs::write(spec.checkpoint_path(), &bytes).expect("install fixture");
    let err = Campaign::open(spec).expect_err("sentinel must be rejected");
    assert!(
        matches!(err, CampaignError::StaleSchema { ref found, .. }
            if found == "campaign_checkpoint/v0"),
        "want StaleSchema, got {err:?}"
    );
}

#[test]
fn unknown_checkpoint_field_is_a_typed_error() {
    let spec = small_spec(scratch_dir("unknown_field"));
    let mut c = open_fresh(&spec);
    c.run_round().expect("round");
    drop(c);
    let bytes = fs::read(spec.checkpoint_path()).expect("checkpoint");
    let parsed = parse_records(&bytes).expect("intact");
    let Json::Object(mut map) = Json::parse(&parsed.records[0]).expect("payload") else {
        panic!("checkpoint payload must be an object");
    };
    map.insert("from_the_future".to_string(), Json::UInt(9000));
    let doctored = frame_record(&Json::Object(map).render());
    fs::write(spec.checkpoint_path(), doctored).expect("write doctored checkpoint");
    let err = Campaign::open(spec).expect_err("unknown fields must be rejected");
    assert_eq!(
        err,
        CampaignError::UnknownField {
            field: "checkpoint.from_the_future".to_string()
        }
    );
}

#[test]
fn spec_mismatch_is_a_typed_error() {
    let spec = small_spec(scratch_dir("mismatch"));
    let mut c = open_fresh(&spec);
    c.run_round().expect("round");
    drop(c);
    let mut wrong = spec.clone();
    wrong.n = 9;
    let err = Campaign::open(wrong).expect_err("different instance must be rejected");
    assert!(
        matches!(err, CampaignError::SpecMismatch { field: "n", .. }),
        "want SpecMismatch on n, got {err:?}"
    );
    let mut wrong = spec.clone();
    wrong.master_seed ^= 1;
    let err = Campaign::open(wrong).expect_err("different seed must be rejected");
    assert!(
        matches!(
            err,
            CampaignError::SpecMismatch {
                field: "master_seed",
                ..
            }
        ),
        "want SpecMismatch on master_seed, got {err:?}"
    );
}

#[test]
fn log_truncated_behind_the_checkpoint_is_a_typed_error() {
    let spec = small_spec(scratch_dir("log_behind"));
    let mut c = open_fresh(&spec);
    c.run_round().expect("round");
    c.run_round().expect("round");
    drop(c);
    let log = fs::read(spec.log_path()).expect("log");
    assert!(!log.is_empty());
    fs::write(spec.log_path(), &log[..log.len() / 2]).expect("truncate behind checkpoint");
    let err = Campaign::open(spec).expect_err("a log behind the checkpoint is unrecoverable");
    assert!(
        matches!(err, CampaignError::LogBehindCheckpoint { .. }),
        "want LogBehindCheckpoint, got {err:?}"
    );
}

/// Append `record` to a campaign's log with a valid frame, move the checkpoint's
/// log offset past it so resume keeps it, and return the resume error.
fn resume_with_forged_log_record(name: &str, record: impl Fn(&[usize]) -> String) -> CampaignError {
    let spec = small_spec(scratch_dir(name));
    let mut c = open_fresh(&spec);
    c.run_round().expect("round");
    c.run_round().expect("round");
    let logged = c
        .classes()
        .iter()
        .next()
        .expect("n = 7 logs by round 2")
        .clone();
    drop(c);
    let mut log = fs::read(spec.log_path()).expect("log");
    log.extend_from_slice(frame_record(&record(&logged)).as_bytes());
    fs::write(spec.log_path(), &log).expect("append forged record");
    let bytes = fs::read(spec.checkpoint_path()).expect("checkpoint");
    let parsed = parse_records(&bytes).expect("intact");
    let Json::Object(mut map) = Json::parse(&parsed.records[0]).expect("payload") else {
        panic!("checkpoint payload must be an object");
    };
    let records = map["log_records"].as_u64().expect("log_records");
    map.insert("log_bytes".to_string(), Json::UInt(log.len() as u64));
    map.insert("log_records".to_string(), Json::UInt(records + 1));
    fs::write(
        spec.checkpoint_path(),
        frame_record(&Json::Object(map).render()),
    )
    .expect("write doctored checkpoint");
    Campaign::open(spec).expect_err("a forged log record must be rejected")
}

#[test]
fn logged_non_solution_is_a_typed_error_on_resume() {
    // The identity permutation repeats every difference vector: not a Costas
    // array.  The second record is not even a permutation; its out-of-range
    // value must be rejected before any predicate indexes by it.
    for (name, solution) in [
        ("non_solution", "[1,2,3,4,5,6,7]"),
        ("non_permutation", "[1000000,2,3,4,5,6,7]"),
    ] {
        let err = resume_with_forged_log_record(name, |_| {
            format!(r#"{{"canonical":[1,2,3,4,5,6,7],"rank":0,"round":1,"solution":{solution}}}"#)
        });
        assert!(
            matches!(err, CampaignError::Corrupt { ref message, .. } if message.contains("is_optimum")),
            "{name}: want Corrupt naming the failed check, got {err:?}"
        );
    }
    // A real Costas array filed under a canonical form that is not its own.
    let err = resume_with_forged_log_record("wrong_canonical", |solution| {
        let solution: Vec<String> = solution.iter().map(ToString::to_string).collect();
        format!(
            r#"{{"canonical":[1,2,3,4,5,6,7],"rank":0,"round":1,"solution":[{}]}}"#,
            solution.join(",")
        )
    });
    assert!(
        matches!(err, CampaignError::Corrupt { ref message, .. } if message.contains("canonical")),
        "want Corrupt naming the canonical mismatch, got {err:?}"
    );
}

#[test]
fn artifact_section_reports_the_campaign_honestly() {
    let spec = small_spec(scratch_dir("artifact"));
    let mut c = open_fresh(&spec);
    c.run_to_completion().expect("run");
    let section = c.artifact_section();
    assert_eq!(
        section.get("schema").and_then(Json::as_str),
        Some(ARTIFACT_SCHEMA)
    );
    let get = |k: &str| section.get(k).and_then(Json::as_u64).expect(k);
    assert_eq!(get("rounds"), spec.rounds);
    assert_eq!(get("walkers"), spec.walkers as u64);
    assert!(get("distinct_classes") <= get("solutions_found"));
    assert_eq!(get("log_records"), get("distinct_classes"));
    assert!(get("total_steps") <= spec.rounds * spec.walkers as u64 * spec.checkpoint_interval);
    assert_eq!(get("best_cost"), 0, "n = 7 must be solved");
    assert!(get("checkpoints_written") >= 1);
    // the log on disk agrees with the section
    let log = fs::read(spec.log_path()).expect("log");
    let parsed = parse_records(&log).expect("intact log");
    assert_eq!(parsed.records.len() as u64, get("log_records"));
    // every logged class is a canonical, distinct Costas array
    for payload in &parsed.records {
        let value = Json::parse(payload).expect("record JSON");
        let canonical: Vec<usize> = value
            .get("canonical")
            .and_then(Json::as_array)
            .expect("canonical")
            .iter()
            .map(|v| v.as_u64().expect("index") as usize)
            .collect();
        assert!(costas::is_costas_permutation(&canonical));
        assert_eq!(costas::canonical_form(&canonical), canonical);
    }
}

#[test]
fn fresh_open_discards_a_checkpointless_leftover_log() {
    let spec = small_spec(scratch_dir("leftover"));
    fs::create_dir_all(&spec.dir).expect("mkdir");
    fs::write(spec.log_path(), frame_record(r#"{"canonical":[1]}"#)).expect("leftover log");
    let (c, resumed) = Campaign::open(spec.clone()).expect("open");
    assert!(!resumed);
    assert!(!spec.log_path().exists(), "stale log discarded");
    assert!(c.warnings().iter().any(|w| w.contains("no checkpoint")));
}
