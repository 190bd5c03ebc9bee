//! Campaign mode: long-running, resumable multi-walk search over one instance.
//!
//! The paper's headline results are multi-hour parallel hunts for hard Costas
//! instances; a run that dies at hour five must not restart from zero.  A
//! [`Campaign`] drives `walkers` independent Adaptive Search engines in rounds of
//! `checkpoint_interval` steps each and makes the whole hunt *fault-tolerant*:
//!
//! * **Checkpointing** — after each round the full campaign state (per-walker
//!   [`EngineSnapshot`]: RNG words, configurations, statistics, Tabu horizons)
//!   is serialized with [`runtime_stats::json`] into a
//!   single hash-framed record and written atomically (temp file + rename, with the
//!   previous checkpoint rotated to a `.prev` file first).
//! * **Resume** — [`Campaign::open`] restores from the newest valid checkpoint and
//!   continues **bit-for-bit identically** to an uninterrupted same-seed run: same
//!   best configurations, same statistics, same result log bytes.  A torn
//!   checkpoint tail (the process died mid-write, or mid-rename) falls back to the
//!   previous checkpoint with a typed warning; semantic damage (flipped bytes,
//!   stale schema versions, unknown fields, spec mismatches) is a typed
//!   [`CampaignError`], never a panic and never silent acceptance.
//! * **Symmetry-deduped result log** — every solution found is canonicalized over
//!   the 8-element D₄ orbit ([`costas::canonical_form`]) and only *new* equivalence
//!   classes are appended to an append-only result log of hash-framed records.  On
//!   resume the log is truncated back to the byte offset recorded in the
//!   checkpoint, so records appended after the last checkpoint are rolled back and
//!   re-derived deterministically — a crash can never silently replay or duplicate
//!   a record.  Every solution is checked with the registry's independent
//!   `is_optimum` predicate before it is logged, and every record again when the
//!   log is reloaded.
//!
//! The record framing is shared by the checkpoint and the log: one record per
//! line, `<16-hex-digit FNV-1a-64 of the payload> <single-line JSON payload>\n`.
//! Payloads are rendered by [`Json::render`], which escapes control characters, so
//! a record never contains an interior newline — any truncation therefore leaves
//! an unterminated (and detectable) final fragment.

use std::collections::BTreeSet;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use adaptive_search::problems::{self, DynProblem};
use adaptive_search::{
    Engine, EngineSnapshot, PermutationProblem, SearchStats, SnapshotError, StepOutcome,
};
use costas::canonical_form;
use runtime_stats::Json;

use crate::walker::WalkSpec;

/// Version tag of the checkpoint payload; bumped on any incompatible layout change.
pub const CHECKPOINT_SCHEMA: &str = "campaign_checkpoint/v2";
/// Version tag of the artifact section emitted by [`Campaign::artifact_section`].
pub const ARTIFACT_SCHEMA: &str = "campaign/v1";

const CHECKPOINT_FILE: &str = "checkpoint.ckpt";
const CHECKPOINT_PREV_FILE: &str = "checkpoint.prev.ckpt";
const CHECKPOINT_TMP_FILE: &str = "checkpoint.tmp";
const RESULT_LOG_FILE: &str = "results.log";

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit hash (stable across platforms and releases; the framing below
/// depends on these exact constants).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Frame a single-line payload as a hash-prefixed record line.
///
/// # Panics
/// Panics if the payload contains a newline — framed payloads must be rendered
/// JSON, which escapes them.
pub fn frame_record(payload: &str) -> String {
    assert!(
        !payload.contains('\n'),
        "framed payloads must be single-line"
    );
    format!("{:016x} {payload}\n", fnv1a64(payload.as_bytes()))
}

/// A parsed record stream: the payloads of every intact record plus how many
/// bytes of the input they cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedLog {
    /// Payloads of the intact records, in file order.
    pub records: Vec<String>,
    /// Bytes of input covered by the intact records (a valid truncation point).
    pub valid_bytes: usize,
    /// The input ended in an unterminated fragment (a torn tail) that was not
    /// counted into `records` / `valid_bytes`.
    pub torn: bool,
}

/// A complete record failed its frame check — mid-file damage, not a torn tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordError {
    /// Zero-based index of the damaged record.
    pub index: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "record {}: {}", self.index, self.message)
    }
}

impl std::error::Error for RecordError {}

/// Parse a stream of framed records.
///
/// A trailing fragment without its final newline is a *torn tail* — reported via
/// [`ParsedLog::torn`] and excluded from the intact records, never an error (the
/// process died mid-append; recovery truncates it).  A **complete** line that
/// fails its frame or hash check is a [`RecordError`]: the file was damaged in
/// place, which recovery must surface, not repair silently.
pub fn parse_records(bytes: &[u8]) -> Result<ParsedLog, RecordError> {
    let mut records = Vec::new();
    let mut valid_bytes = 0usize;
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') else {
            // Unterminated final fragment: torn tail.
            return Ok(ParsedLog {
                records,
                valid_bytes,
                torn: true,
            });
        };
        let line = &bytes[pos..pos + nl];
        let index = records.len();
        let check = |ok: bool, message: &str| -> Result<(), RecordError> {
            if ok {
                Ok(())
            } else {
                Err(RecordError {
                    index,
                    message: message.to_string(),
                })
            }
        };
        check(line.len() >= 18, "shorter than the 17-byte frame prefix")?;
        check(line[16] == b' ', "missing space after the hash prefix")?;
        let hex = std::str::from_utf8(&line[..16])
            .ok()
            .and_then(|s| u64::from_str_radix(s, 16).ok());
        let Some(expected) = hex else {
            return Err(RecordError {
                index,
                message: "hash prefix is not 16 hex digits".to_string(),
            });
        };
        let payload = &line[17..];
        check(
            fnv1a64(payload) == expected,
            "payload hash mismatch (damaged record)",
        )?;
        let payload = std::str::from_utf8(payload).map_err(|_| RecordError {
            index,
            message: "payload is not UTF-8".to_string(),
        })?;
        records.push(payload.to_string());
        pos += nl + 1;
        valid_bytes = pos;
    }
    Ok(ParsedLog {
        records,
        valid_bytes,
        torn: false,
    })
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a campaign could not be created, resumed, or stepped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// Filesystem failure.
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// Stringified OS error.
        message: String,
    },
    /// A complete checkpoint or log record was damaged in place (e.g. a flipped
    /// byte breaking its hash).
    Corrupt {
        /// File the damage was found in.
        path: PathBuf,
        /// What was wrong.
        message: String,
    },
    /// A record payload was not valid JSON or had the wrong shape.
    Parse {
        /// File the payload came from.
        path: PathBuf,
        /// Parser/shape diagnostic.
        message: String,
    },
    /// The checkpoint carries a schema version this build does not load.
    StaleSchema {
        /// Version found in the file.
        found: String,
        /// Version this build writes and loads.
        expected: &'static str,
    },
    /// The checkpoint contains a field this build does not know — written by a
    /// newer build, or damaged; either way resuming from it silently would be
    /// wrong.
    UnknownField {
        /// The offending key (dotted path).
        field: String,
    },
    /// A required checkpoint field is missing or has the wrong type.
    MissingField {
        /// The expected key (dotted path).
        field: String,
    },
    /// The checkpoint describes a different campaign than the spec being opened.
    SpecMismatch {
        /// Which identity field disagreed.
        field: &'static str,
        /// Human-readable found-vs-expected.
        message: String,
    },
    /// A per-walker engine snapshot did not fit the problem instance.
    BadSnapshot {
        /// Walker rank.
        rank: usize,
        /// The underlying snapshot error.
        error: SnapshotError,
    },
    /// The result log is shorter than the byte count the checkpoint recorded —
    /// the log was truncated *behind* the checkpoint, which cannot be recovered.
    LogBehindCheckpoint {
        /// Bytes the checkpoint expects the log to hold.
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// The spec names a problem the registry does not know.
    UnknownProblem {
        /// The unknown registry key.
        key: String,
    },
    /// The spec is internally invalid (zero walkers, zero interval, an order
    /// outside the model's size range, …).
    BadSpec {
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io { path, message } => {
                write!(f, "I/O error on {}: {message}", path.display())
            }
            CampaignError::Corrupt { path, message } => {
                write!(f, "corrupt record in {}: {message}", path.display())
            }
            CampaignError::Parse { path, message } => {
                write!(f, "unparseable payload in {}: {message}", path.display())
            }
            CampaignError::StaleSchema { found, expected } => {
                write!(
                    f,
                    "checkpoint schema is {found:?}, this build loads {expected:?}"
                )
            }
            CampaignError::UnknownField { field } => {
                write!(f, "checkpoint contains unknown field `{field}`")
            }
            CampaignError::MissingField { field } => {
                write!(
                    f,
                    "checkpoint is missing field `{field}` (or it has the wrong type)"
                )
            }
            CampaignError::SpecMismatch { field, message } => {
                write!(
                    f,
                    "checkpoint is for a different campaign ({field}): {message}"
                )
            }
            CampaignError::BadSnapshot { rank, error } => {
                write!(
                    f,
                    "walker {rank} snapshot does not fit the instance: {error}"
                )
            }
            CampaignError::LogBehindCheckpoint { expected, found } => write!(
                f,
                "result log holds {found} bytes but the checkpoint recorded {expected}"
            ),
            CampaignError::UnknownProblem { key } => {
                write!(f, "unknown problem key {key:?}")
            }
            CampaignError::BadSpec { message } => write!(f, "invalid campaign spec: {message}"),
        }
    }
}

impl std::error::Error for CampaignError {}

fn io_err(path: &Path, e: std::io::Error) -> CampaignError {
    CampaignError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------------

/// What a campaign hunts and how it checkpoints.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Registry key of the problem (e.g. `"costas"`).
    pub problem: String,
    /// Instance parameter.
    pub n: usize,
    /// Number of independent walkers.
    pub walkers: usize,
    /// Master seed; per-walker seeds are derived through the chaotic seeder, so
    /// the whole campaign is a pure function of this spec.
    pub master_seed: u64,
    /// Total rounds the campaign runs.
    pub rounds: u64,
    /// Engine steps per walker per round (the checkpoint granularity).
    pub checkpoint_interval: u64,
    /// Rounds between checkpoints (1 = checkpoint every round).
    pub checkpoint_every: u64,
    /// Directory holding the checkpoint files and the result log.
    pub dir: PathBuf,
}

impl CampaignSpec {
    /// A Costas campaign with the paper's engine configuration.
    pub fn costas(n: usize, dir: impl Into<PathBuf>) -> Self {
        Self {
            problem: "costas".to_string(),
            n,
            walkers: 4,
            master_seed: 0,
            rounds: 8,
            checkpoint_interval: 10_000,
            checkpoint_every: 1,
            dir: dir.into(),
        }
    }

    fn validate(&self) -> Result<(), CampaignError> {
        let bad = |message: &str| {
            Err(CampaignError::BadSpec {
                message: message.to_string(),
            })
        };
        if self.walkers == 0 {
            return bad("walkers must be >= 1");
        }
        if self.checkpoint_interval == 0 {
            return bad("checkpoint_interval must be >= 1");
        }
        if self.checkpoint_every == 0 {
            return bad("checkpoint_every must be >= 1");
        }
        // An unknown key is reported by `walk_spec`; a known one bounds `n`
        // before any walker allocates its model.
        if let Some(info) = problems::find(&self.problem) {
            if !info.size_range().contains(&self.n) {
                return bad(&format!(
                    "n = {} is outside 1..={} for {:?}",
                    self.n, info.max_n, info.key
                ));
            }
        }
        Ok(())
    }

    fn walk_spec(&self) -> Result<WalkSpec, CampaignError> {
        WalkSpec::for_problem(&self.problem, self.n).map_err(|_| CampaignError::UnknownProblem {
            key: self.problem.clone(),
        })
    }

    /// Path of the current checkpoint file.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join(CHECKPOINT_FILE)
    }

    /// Path of the previous (rotated) checkpoint file.
    pub fn checkpoint_prev_path(&self) -> PathBuf {
        self.dir.join(CHECKPOINT_PREV_FILE)
    }

    /// Path of the append-only result log.
    pub fn log_path(&self) -> PathBuf {
        self.dir.join(RESULT_LOG_FILE)
    }
}

// ---------------------------------------------------------------------------
// Snapshot (de)serialization
// ---------------------------------------------------------------------------

const STATS_FIELDS: [&str; 13] = [
    "iterations",
    "local_minima",
    "improving_moves",
    "plateau_moves",
    "tabu_marks",
    "resets",
    "custom_resets",
    "custom_reset_escapes",
    "restarts",
    "coordinated_restarts",
    "injections_offered",
    "injections_adopted",
    "stop_checks",
];

fn stats_to_json(s: &SearchStats) -> Json {
    Json::object(vec![
        ("iterations", s.iterations),
        ("local_minima", s.local_minima),
        ("improving_moves", s.improving_moves),
        ("plateau_moves", s.plateau_moves),
        ("tabu_marks", s.tabu_marks),
        ("resets", s.resets),
        ("custom_resets", s.custom_resets),
        ("custom_reset_escapes", s.custom_reset_escapes),
        ("restarts", s.restarts),
        ("coordinated_restarts", s.coordinated_restarts),
        ("injections_offered", s.injections_offered),
        ("injections_adopted", s.injections_adopted),
        ("stop_checks", s.stop_checks),
    ])
}

/// Reject object keys outside `known` — a checkpoint written by a newer build
/// (or damaged into extra fields) must not be half-loaded.
fn reject_unknown_fields(value: &Json, known: &[&str], context: &str) -> Result<(), CampaignError> {
    let Json::Object(map) = value else {
        return Err(CampaignError::MissingField {
            field: context.to_string(),
        });
    };
    for key in map.keys() {
        if !known.contains(&key.as_str()) {
            return Err(CampaignError::UnknownField {
                field: format!("{context}.{key}"),
            });
        }
    }
    Ok(())
}

fn get_u64(value: &Json, field: &str, context: &str) -> Result<u64, CampaignError> {
    value
        .get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| CampaignError::MissingField {
            field: format!("{context}.{field}"),
        })
}

fn get_bool(value: &Json, field: &str, context: &str) -> Result<bool, CampaignError> {
    value
        .get(field)
        .and_then(Json::as_bool)
        .ok_or_else(|| CampaignError::MissingField {
            field: format!("{context}.{field}"),
        })
}

fn get_u64_array(value: &Json, field: &str, context: &str) -> Result<Vec<u64>, CampaignError> {
    let missing = || CampaignError::MissingField {
        field: format!("{context}.{field}"),
    };
    let arr = value
        .get(field)
        .and_then(Json::as_array)
        .ok_or_else(missing)?;
    arr.iter().map(|v| v.as_u64().ok_or_else(missing)).collect()
}

fn get_usize_array(value: &Json, field: &str, context: &str) -> Result<Vec<usize>, CampaignError> {
    Ok(get_u64_array(value, field, context)?
        .into_iter()
        .map(|v| v as usize)
        .collect())
}

fn stats_from_json(value: &Json, context: &str) -> Result<SearchStats, CampaignError> {
    reject_unknown_fields(value, &STATS_FIELDS, context)?;
    Ok(SearchStats {
        iterations: get_u64(value, "iterations", context)?,
        local_minima: get_u64(value, "local_minima", context)?,
        improving_moves: get_u64(value, "improving_moves", context)?,
        plateau_moves: get_u64(value, "plateau_moves", context)?,
        tabu_marks: get_u64(value, "tabu_marks", context)?,
        resets: get_u64(value, "resets", context)?,
        custom_resets: get_u64(value, "custom_resets", context)?,
        custom_reset_escapes: get_u64(value, "custom_reset_escapes", context)?,
        restarts: get_u64(value, "restarts", context)?,
        coordinated_restarts: get_u64(value, "coordinated_restarts", context)?,
        injections_offered: get_u64(value, "injections_offered", context)?,
        injections_adopted: get_u64(value, "injections_adopted", context)?,
        stop_checks: get_u64(value, "stop_checks", context)?,
    })
}

const SNAPSHOT_FIELDS: [&str; 9] = [
    "rng",
    "configuration",
    "stats",
    "best_cost",
    "best_config",
    "iterations_since_restart",
    "marked_since_reset",
    "restart_pending",
    "tabu_horizons",
];

fn snapshot_to_json(s: &EngineSnapshot) -> Json {
    Json::Object(
        [
            ("rng".to_string(), Json::from(s.rng_state.to_vec())),
            (
                "configuration".to_string(),
                Json::from(s.configuration.clone()),
            ),
            ("stats".to_string(), stats_to_json(&s.stats)),
            ("best_cost".to_string(), Json::UInt(s.best_cost)),
            ("best_config".to_string(), Json::from(s.best_config.clone())),
            (
                "iterations_since_restart".to_string(),
                Json::UInt(s.iterations_since_restart),
            ),
            (
                "marked_since_reset".to_string(),
                Json::from(s.marked_since_reset),
            ),
            ("restart_pending".to_string(), Json::Bool(s.restart_pending)),
            (
                "tabu_horizons".to_string(),
                Json::from(s.tabu_horizons.clone()),
            ),
        ]
        .into_iter()
        .collect(),
    )
}

fn snapshot_from_json(value: &Json, context: &str) -> Result<EngineSnapshot, CampaignError> {
    reject_unknown_fields(value, &SNAPSHOT_FIELDS, context)?;
    let rng_words = get_u64_array(value, "rng", context)?;
    let rng_state: [u64; 4] = rng_words
        .try_into()
        .map_err(|_| CampaignError::MissingField {
            field: format!("{context}.rng (must hold exactly 4 words)"),
        })?;
    let stats = stats_from_json(
        value
            .get("stats")
            .ok_or_else(|| CampaignError::MissingField {
                field: format!("{context}.stats"),
            })?,
        &format!("{context}.stats"),
    )?;
    Ok(EngineSnapshot {
        rng_state,
        configuration: get_usize_array(value, "configuration", context)?,
        stats,
        best_cost: get_u64(value, "best_cost", context)?,
        best_config: get_usize_array(value, "best_config", context)?,
        iterations_since_restart: get_u64(value, "iterations_since_restart", context)?,
        marked_since_reset: get_u64(value, "marked_since_reset", context)? as usize,
        restart_pending: get_bool(value, "restart_pending", context)?,
        tabu_horizons: get_u64_array(value, "tabu_horizons", context)?,
    })
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

/// A resumable multi-walk search campaign (see the module docs).
pub struct Campaign {
    spec: CampaignSpec,
    engines: Vec<Engine<DynProblem>>,
    rounds_done: u64,
    solutions_found: u64,
    checkpoints_written: u64,
    resumes: u64,
    classes: BTreeSet<Vec<usize>>,
    log_bytes: u64,
    log_records: u64,
    warnings: Vec<String>,
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("spec", &self.spec)
            .field("rounds_done", &self.rounds_done)
            .field("solutions_found", &self.solutions_found)
            .field("distinct_classes", &self.classes.len())
            .field("checkpoints_written", &self.checkpoints_written)
            .field("resumes", &self.resumes)
            .finish_non_exhaustive()
    }
}

const CHECKPOINT_FIELDS: [&str; 13] = [
    "schema",
    "problem",
    "n",
    "walkers",
    "master_seed",
    "checkpoint_interval",
    "checkpoint_every",
    "rounds_done",
    "solutions_found",
    "checkpoints_written",
    "resumes",
    "log_bytes",
    "log_records",
    // "walkers_state" is validated separately so the error message can say which
    // rank failed — it is appended to this list at the check site.
];

impl Campaign {
    /// Open a campaign in `spec.dir`: resume from the newest valid checkpoint when
    /// one exists, start fresh otherwise.  Returns the campaign and whether it
    /// resumed.
    pub fn open(spec: CampaignSpec) -> Result<(Campaign, bool), CampaignError> {
        spec.validate()?;
        let walk = spec.walk_spec()?;
        fs::create_dir_all(&spec.dir).map_err(|e| io_err(&spec.dir, e))?;
        let current = spec.checkpoint_path();
        let prev = spec.checkpoint_prev_path();
        if current.exists() || prev.exists() {
            Self::resume(spec, walk)
        } else {
            let mut campaign = Self::fresh(spec, walk);
            // A result log without any checkpoint is a leftover from a dead
            // campaign that never reached its first checkpoint: rounds before the
            // first checkpoint are re-run from scratch, so the log restarts too.
            let log = campaign.spec.log_path();
            if log.exists() {
                fs::remove_file(&log).map_err(|e| io_err(&log, e))?;
                campaign
                    .warnings
                    .push("discarded a result log with no checkpoint".to_string());
            }
            Ok((campaign, false))
        }
    }

    fn fresh(spec: CampaignSpec, walk: WalkSpec) -> Campaign {
        let engines = (0..spec.walkers)
            .map(|rank| walk.build_engine(spec.master_seed, rank))
            .collect();
        Campaign {
            spec,
            engines,
            rounds_done: 0,
            solutions_found: 0,
            checkpoints_written: 0,
            resumes: 0,
            classes: BTreeSet::new(),
            log_bytes: 0,
            log_records: 0,
            warnings: Vec::new(),
        }
    }

    /// Load one checkpoint file into its payload object (framing + JSON only; no
    /// semantic validation).  A torn tail — unterminated record, zero records —
    /// is reported as `Ok(None)` so the caller can fall back; everything else is
    /// a hard error.
    fn load_checkpoint_payload(path: &Path) -> Result<Option<Json>, CampaignError> {
        let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
        let parsed = parse_records(&bytes).map_err(|e| CampaignError::Corrupt {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        if parsed.torn || parsed.records.is_empty() {
            return Ok(None);
        }
        if parsed.records.len() != 1 {
            return Err(CampaignError::Corrupt {
                path: path.to_path_buf(),
                message: format!(
                    "checkpoint must hold exactly one record, found {}",
                    parsed.records.len()
                ),
            });
        }
        let payload = Json::parse(&parsed.records[0]).map_err(|e| CampaignError::Parse {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        Ok(Some(payload))
    }

    fn resume(spec: CampaignSpec, walk: WalkSpec) -> Result<(Campaign, bool), CampaignError> {
        let current = spec.checkpoint_path();
        let prev = spec.checkpoint_prev_path();
        let mut warnings = Vec::new();
        // Newest-first: a torn (or absent) current checkpoint falls back to the
        // rotated previous one with a warning; anything else is a typed error.
        let payload = match if current.exists() {
            Self::load_checkpoint_payload(&current)?
        } else {
            warnings.push(format!(
                "checkpoint {} missing, trying the previous checkpoint",
                current.display()
            ));
            None
        } {
            Some(payload) => payload,
            None => {
                if current.exists() {
                    warnings.push(format!(
                        "checkpoint {} has a torn tail, recovering from the previous checkpoint",
                        current.display()
                    ));
                }
                match Self::load_checkpoint_payload(&prev)? {
                    Some(payload) => payload,
                    None => {
                        return Err(CampaignError::Corrupt {
                            path: prev,
                            message: "previous checkpoint is torn or empty too".to_string(),
                        })
                    }
                }
            }
        };
        let mut campaign = Self::restore_from_payload(spec, walk, &payload)?;
        campaign.warnings.append(&mut warnings);
        campaign.resumes += 1;
        Ok((campaign, true))
    }

    fn restore_from_payload(
        spec: CampaignSpec,
        walk: WalkSpec,
        payload: &Json,
    ) -> Result<Campaign, CampaignError> {
        let ctx = "checkpoint";
        // Schema first: a stale version must say so, not "unknown field".
        let found_schema = payload
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| CampaignError::MissingField {
                field: format!("{ctx}.schema"),
            })?;
        if found_schema != CHECKPOINT_SCHEMA {
            return Err(CampaignError::StaleSchema {
                found: found_schema.to_string(),
                expected: CHECKPOINT_SCHEMA,
            });
        }
        let mut known: Vec<&str> = CHECKPOINT_FIELDS.to_vec();
        known.push("walkers_state");
        reject_unknown_fields(payload, &known, ctx)?;
        // Identity: the checkpoint must describe the campaign being opened.
        let found_problem = payload
            .get("problem")
            .and_then(Json::as_str)
            .ok_or_else(|| CampaignError::MissingField {
                field: format!("{ctx}.problem"),
            })?;
        let mismatch = |field: &'static str,
                        found: &dyn std::fmt::Display,
                        expected: &dyn std::fmt::Display| {
            Err(CampaignError::SpecMismatch {
                field,
                message: format!("checkpoint has {found}, spec has {expected}"),
            })
        };
        if found_problem != spec.problem {
            return mismatch("problem", &found_problem, &spec.problem);
        }
        for (field, found, expected) in [
            ("n", get_u64(payload, "n", ctx)?, spec.n as u64),
            (
                "walkers",
                get_u64(payload, "walkers", ctx)?,
                spec.walkers as u64,
            ),
            (
                "master_seed",
                get_u64(payload, "master_seed", ctx)?,
                spec.master_seed,
            ),
            (
                "checkpoint_interval",
                get_u64(payload, "checkpoint_interval", ctx)?,
                spec.checkpoint_interval,
            ),
            (
                "checkpoint_every",
                get_u64(payload, "checkpoint_every", ctx)?,
                spec.checkpoint_every,
            ),
        ] {
            if found != expected {
                return mismatch(
                    match field {
                        "n" => "n",
                        "walkers" => "walkers",
                        "master_seed" => "master_seed",
                        "checkpoint_interval" => "checkpoint_interval",
                        _ => "checkpoint_every",
                    },
                    &found,
                    &expected,
                );
            }
        }
        let snapshots = payload
            .get("walkers_state")
            .and_then(Json::as_array)
            .ok_or_else(|| CampaignError::MissingField {
                field: format!("{ctx}.walkers_state"),
            })?;
        if snapshots.len() != spec.walkers {
            return mismatch("walkers_state", &snapshots.len(), &spec.walkers);
        }
        let mut engines = Vec::with_capacity(spec.walkers);
        for (rank, snap_json) in snapshots.iter().enumerate() {
            let snap = snapshot_from_json(snap_json, &format!("{ctx}.walkers_state[{rank}]"))?;
            let engine = Engine::from_snapshot(walk.build_problem(), walk.config.clone(), &snap)
                .map_err(|error| CampaignError::BadSnapshot { rank, error })?;
            engines.push(engine);
        }
        let mut campaign = Campaign {
            rounds_done: get_u64(payload, "rounds_done", ctx)?,
            solutions_found: get_u64(payload, "solutions_found", ctx)?,
            checkpoints_written: get_u64(payload, "checkpoints_written", ctx)?,
            resumes: get_u64(payload, "resumes", ctx)?,
            log_bytes: get_u64(payload, "log_bytes", ctx)?,
            log_records: get_u64(payload, "log_records", ctx)?,
            classes: BTreeSet::new(),
            warnings: Vec::new(),
            engines,
            spec,
        };
        campaign.reload_result_log()?;
        Ok(campaign)
    }

    /// Roll the result log back to the prefix the checkpoint recorded and rebuild
    /// the dedup set from it.  Records appended after the checkpoint (including a
    /// torn tail from a mid-append crash) are truncated — they will be re-found
    /// deterministically when their round re-runs.  Every kept record must hold a
    /// solution that passes `is_solution` and canonicalises to the record's
    /// `canonical`; anything else is [`CampaignError::Corrupt`].
    fn reload_result_log(&mut self) -> Result<(), CampaignError> {
        let path = self.spec.log_path();
        let bytes = if path.exists() {
            fs::read(&path).map_err(|e| io_err(&path, e))?
        } else {
            Vec::new()
        };
        let expected = self.log_bytes;
        if (bytes.len() as u64) < expected {
            return Err(CampaignError::LogBehindCheckpoint {
                expected,
                found: bytes.len() as u64,
            });
        }
        if bytes.len() as u64 > expected {
            self.warnings.push(format!(
                "truncating {} result-log bytes written after the checkpoint \
                 (they will be re-derived)",
                bytes.len() as u64 - expected
            ));
        }
        let prefix = &bytes[..expected as usize];
        let parsed = parse_records(prefix).map_err(|e| CampaignError::Corrupt {
            path: path.clone(),
            message: e.to_string(),
        })?;
        if parsed.torn || parsed.valid_bytes as u64 != expected {
            return Err(CampaignError::Corrupt {
                path,
                message: "checkpointed log prefix does not end on a record boundary".to_string(),
            });
        }
        if parsed.records.len() as u64 != self.log_records {
            return Err(CampaignError::Corrupt {
                path,
                message: format!(
                    "checkpointed log prefix holds {} records, checkpoint recorded {}",
                    parsed.records.len(),
                    self.log_records
                ),
            });
        }
        self.classes.clear();
        for (index, payload) in parsed.records.iter().enumerate() {
            let value = Json::parse(payload).map_err(|e| CampaignError::Parse {
                path: path.clone(),
                message: format!("record {index}: {e}"),
            })?;
            let context = format!("log[{index}]");
            let canonical = get_usize_array(&value, "canonical", &context)?;
            let solution = get_usize_array(&value, "solution", &context)?;
            let problem = if !self.is_solution(&solution) {
                "its solution fails the registry's is_optimum check"
            } else if self.canonicalize(&solution) != canonical {
                "its canonical form does not match its solution"
            } else {
                self.classes.insert(canonical);
                continue;
            };
            return Err(CampaignError::Corrupt {
                path,
                message: format!("record {index}: {problem}"),
            });
        }
        // Physically truncate so append continues from the checkpointed offset.
        if bytes.len() as u64 > expected {
            let file = fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| io_err(&path, e))?;
            file.set_len(expected).map_err(|e| io_err(&path, e))?;
        }
        Ok(())
    }

    /// Check a solution independently of the engine that reported it: a
    /// permutation of `1..=n` for the instance (checked first, because reloaded
    /// records are outside input and the predicates index by value) that passes
    /// the registry's `is_optimum` predicate.
    fn is_solution(&self, solution: &[usize]) -> bool {
        let n = self.engines[0].problem().size();
        let mut seen = vec![false; n];
        let permutation = solution.len() == n
            && solution
                .iter()
                .all(|&v| (1..=n).contains(&v) && !std::mem::replace(&mut seen[v - 1], true));
        let info = problems::find(&self.spec.problem).expect("spec holds a registered key");
        permutation && (info.is_optimum)(solution)
    }

    /// The symmetry-canonical representative used for dedup: the D₄ canonical form
    /// for Costas, the identity for other registry problems (whose symmetry groups
    /// are not modelled here).
    fn canonicalize(&self, solution: &[usize]) -> Vec<usize> {
        if self.spec.problem == "costas" {
            canonical_form(solution)
        } else {
            solution.to_vec()
        }
    }

    /// Run one round: every walker executes `checkpoint_interval` engine steps (in
    /// parallel — walkers are independent, so OS-thread parallelism preserves
    /// determinism), solutions are harvested in rank order, new equivalence
    /// classes are appended to the result log, and a checkpoint is written at
    /// `checkpoint_every` boundaries.
    ///
    /// # Errors
    /// A harvested solution that fails the registry's `is_optimum` check is
    /// [`CampaignError::Corrupt`]; the round then counts and logs nothing.
    pub fn run_round(&mut self) -> Result<(), CampaignError> {
        self.run_round_inner(true)
    }

    /// Deterministic fault-injection hook: run a full round — log append included —
    /// but *crash before the checkpoint* (skip it), simulating a process killed
    /// between the log write and the checkpoint rename.  A subsequent resume
    /// rolls the log back to the previous checkpoint and re-derives the round.
    pub fn run_round_crash_before_checkpoint(&mut self) -> Result<(), CampaignError> {
        self.run_round_inner(false)
    }

    fn run_round_inner(&mut self, with_checkpoint: bool) -> Result<(), CampaignError> {
        let interval = self.spec.checkpoint_interval;
        let harvests: Vec<Vec<Vec<usize>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .engines
                .iter_mut()
                .map(|engine| {
                    scope.spawn(move || {
                        let mut found = Vec::new();
                        for _ in 0..interval {
                            if engine.step() == StepOutcome::Solved {
                                found.push(engine.problem().configuration().to_vec());
                                engine.restart();
                            }
                        }
                        found
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("walker threads do not panic"))
                .collect()
        });
        for (rank, solutions) in harvests.iter().enumerate() {
            if let Some(bad) = solutions.iter().find(|s| !self.is_solution(s)) {
                return Err(CampaignError::Corrupt {
                    path: self.spec.log_path(),
                    message: format!(
                        "walker {rank} reported {bad:?} in round {}, which fails the \
                         registry's is_optimum check; not logged",
                        self.rounds_done
                    ),
                });
            }
        }
        let mut appended = String::new();
        let mut appended_records = 0u64;
        for (rank, solutions) in harvests.into_iter().enumerate() {
            for solution in solutions {
                self.solutions_found += 1;
                let canonical = self.canonicalize(&solution);
                if self.classes.insert(canonical.clone()) {
                    let record = Json::Object(
                        [
                            ("canonical".to_string(), Json::from(canonical)),
                            ("rank".to_string(), Json::from(rank)),
                            ("round".to_string(), Json::UInt(self.rounds_done)),
                            ("solution".to_string(), Json::from(solution.clone())),
                        ]
                        .into_iter()
                        .collect(),
                    );
                    appended.push_str(&frame_record(&record.render()));
                    appended_records += 1;
                }
            }
        }
        if !appended.is_empty() {
            let path = self.spec.log_path();
            let mut file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| io_err(&path, e))?;
            file.write_all(appended.as_bytes())
                .map_err(|e| io_err(&path, e))?;
            file.sync_all().map_err(|e| io_err(&path, e))?;
            self.log_bytes += appended.len() as u64;
            self.log_records += appended_records;
        }
        self.rounds_done += 1;
        if with_checkpoint && self.rounds_done.is_multiple_of(self.spec.checkpoint_every) {
            self.write_checkpoint()?;
        }
        Ok(())
    }

    /// Run rounds until the spec's budget is reached, then persist a final
    /// checkpoint if the last round did not land on a `checkpoint_every` boundary.
    pub fn run_to_completion(&mut self) -> Result<(), CampaignError> {
        while self.rounds_done < self.spec.rounds {
            self.run_round()?;
        }
        if !self.rounds_done.is_multiple_of(self.spec.checkpoint_every) {
            self.write_checkpoint()?;
        }
        Ok(())
    }

    fn checkpoint_payload(&self) -> Json {
        Json::Object(
            [
                ("schema".to_string(), Json::from(CHECKPOINT_SCHEMA)),
                ("problem".to_string(), Json::from(self.spec.problem.clone())),
                ("n".to_string(), Json::from(self.spec.n)),
                ("walkers".to_string(), Json::from(self.spec.walkers)),
                ("master_seed".to_string(), Json::UInt(self.spec.master_seed)),
                (
                    "checkpoint_interval".to_string(),
                    Json::UInt(self.spec.checkpoint_interval),
                ),
                (
                    "checkpoint_every".to_string(),
                    Json::UInt(self.spec.checkpoint_every),
                ),
                ("rounds_done".to_string(), Json::UInt(self.rounds_done)),
                (
                    "solutions_found".to_string(),
                    Json::UInt(self.solutions_found),
                ),
                (
                    "checkpoints_written".to_string(),
                    Json::UInt(self.checkpoints_written),
                ),
                ("resumes".to_string(), Json::UInt(self.resumes)),
                ("log_bytes".to_string(), Json::UInt(self.log_bytes)),
                ("log_records".to_string(), Json::UInt(self.log_records)),
                (
                    "walkers_state".to_string(),
                    Json::Array(
                        self.engines
                            .iter()
                            .map(|e| snapshot_to_json(&e.snapshot()))
                            .collect(),
                    ),
                ),
            ]
            .into_iter()
            .collect(),
        )
    }

    /// Write a checkpoint atomically: render → temp file (synced) → rotate the
    /// current checkpoint to `.prev` → rename the temp file into place.  A crash
    /// at any point leaves either the old checkpoint, the old checkpoint plus a
    /// stray temp file, or the new checkpoint — never a half-written current file
    /// (and a torn temp/current still falls back to `.prev` on resume).
    pub fn write_checkpoint(&mut self) -> Result<(), CampaignError> {
        self.checkpoints_written += 1;
        let record = frame_record(&self.checkpoint_payload().render());
        let tmp = self.spec.dir.join(CHECKPOINT_TMP_FILE);
        let current = self.spec.checkpoint_path();
        let prev = self.spec.checkpoint_prev_path();
        {
            let mut file = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
            file.write_all(record.as_bytes())
                .map_err(|e| io_err(&tmp, e))?;
            file.sync_all().map_err(|e| io_err(&tmp, e))?;
        }
        if current.exists() {
            fs::rename(&current, &prev).map_err(|e| io_err(&prev, e))?;
        }
        fs::rename(&tmp, &current).map_err(|e| io_err(&current, e))?;
        Ok(())
    }

    /// The machine-readable `campaign/v1` artifact section.  Every value is an
    /// integer derived from the deterministic search, so the section is itself
    /// deterministic for a given spec (modulo `resumes_survived`, which counts the
    /// crashes this particular execution lived through).
    pub fn artifact_section(&self) -> Json {
        let total_steps: u64 = self.engines.iter().map(|e| e.stats().iterations).sum();
        let best_cost = self
            .engines
            .iter()
            .map(|e| e.best_cost())
            .min()
            .expect("walkers >= 1");
        Json::Object(
            [
                ("schema".to_string(), Json::from(ARTIFACT_SCHEMA)),
                ("problem".to_string(), Json::from(self.spec.problem.clone())),
                ("n".to_string(), Json::from(self.spec.n)),
                ("walkers".to_string(), Json::from(self.spec.walkers)),
                ("master_seed".to_string(), Json::UInt(self.spec.master_seed)),
                ("rounds".to_string(), Json::UInt(self.rounds_done)),
                (
                    "checkpoint_interval".to_string(),
                    Json::UInt(self.spec.checkpoint_interval),
                ),
                ("total_steps".to_string(), Json::UInt(total_steps)),
                (
                    "solutions_found".to_string(),
                    Json::UInt(self.solutions_found),
                ),
                (
                    "distinct_classes".to_string(),
                    Json::from(self.classes.len()),
                ),
                ("log_records".to_string(), Json::UInt(self.log_records)),
                (
                    "checkpoints_written".to_string(),
                    Json::UInt(self.checkpoints_written),
                ),
                ("resumes_survived".to_string(), Json::UInt(self.resumes)),
                ("best_cost".to_string(), Json::UInt(best_cost)),
            ]
            .into_iter()
            .collect(),
        )
    }

    /// Rounds completed so far.
    pub fn rounds_done(&self) -> u64 {
        self.rounds_done
    }

    /// Total solutions harvested (duplicates under symmetry included).
    pub fn solutions_found(&self) -> u64 {
        self.solutions_found
    }

    /// Distinct solution classes up to D₄ symmetry, in canonical order.
    pub fn classes(&self) -> &BTreeSet<Vec<usize>> {
        &self.classes
    }

    /// Checkpoints written by this campaign lineage.
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written
    }

    /// Resumes this campaign lineage has survived.
    pub fn resumes_survived(&self) -> u64 {
        self.resumes
    }

    /// Best cost over all walkers.
    pub fn best_cost(&self) -> u64 {
        self.engines
            .iter()
            .map(|e| e.best_cost())
            .min()
            .expect("walkers >= 1")
    }

    /// Per-walker statistics, in rank order.
    pub fn walker_stats(&self) -> Vec<&SearchStats> {
        self.engines.iter().map(|e| e.stats()).collect()
    }

    /// Per-walker engine snapshots, in rank order — the campaign's complete search
    /// state, used by the bit-identity tests.
    pub fn walker_snapshots(&self) -> Vec<EngineSnapshot> {
        self.engines.iter().map(|e| e.snapshot()).collect()
    }

    /// Warnings accumulated while opening/recovering (torn tails, discarded
    /// post-checkpoint log records, …).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// The spec this campaign runs.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_hash_is_the_published_reference() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn frame_and_parse_round_trip() {
        let a = frame_record(r#"{"x":1}"#);
        let b = frame_record(r#"{"y":[2,3]}"#);
        let bytes = format!("{a}{b}");
        let parsed = parse_records(bytes.as_bytes()).expect("intact records");
        assert_eq!(parsed.records, vec![r#"{"x":1}"#, r#"{"y":[2,3]}"#]);
        assert_eq!(parsed.valid_bytes, bytes.len());
        assert!(!parsed.torn);
    }

    #[test]
    fn truncation_at_every_byte_is_torn_never_an_error() {
        let a = frame_record(r#"{"x":1}"#);
        let b = frame_record(r#"{"y":2}"#);
        let bytes = format!("{a}{b}");
        for cut in 0..bytes.len() {
            let parsed = parse_records(&bytes.as_bytes()[..cut]).expect("truncation is torn");
            if cut <= a.len() {
                assert!(parsed.records.len() <= 1);
            }
            // the intact prefix is always a record boundary
            assert!(parsed.valid_bytes == 0 || parsed.valid_bytes == a.len());
            assert_eq!(parsed.torn, cut != 0 && cut != a.len(), "cut {cut}");
        }
    }

    #[test]
    fn flipped_byte_in_a_complete_record_is_a_typed_error() {
        let framed = frame_record(r#"{"x":1}"#);
        let mut bytes = framed.into_bytes();
        let flip_at = bytes.len() - 3; // inside the payload
        bytes[flip_at] ^= 0x20;
        let err = parse_records(&bytes).expect_err("hash must catch the flip");
        assert_eq!(err.index, 0);
        assert!(err.message.contains("hash mismatch"), "{err}");
    }

    #[test]
    fn out_of_range_orders_are_bad_specs() {
        let max_n = problems::find("costas").unwrap().max_n;
        for n in [0, max_n + 1] {
            let dir = std::env::temp_dir().join("campaign-never-created");
            let err =
                Campaign::open(CampaignSpec::costas(n, &dir)).expect_err("order out of range");
            assert!(
                matches!(&err, CampaignError::BadSpec { message } if message.contains("outside")),
                "n = {n}: {err}"
            );
            assert!(!dir.exists(), "a bad spec must not touch the disk");
        }
    }

    #[test]
    fn snapshot_json_round_trips() {
        let spec = WalkSpec::costas(9);
        let mut engine = spec.build_engine(11, 0);
        for _ in 0..200 {
            if engine.step() == StepOutcome::Solved {
                engine.restart();
            }
        }
        let snap = engine.snapshot();
        let json = snapshot_to_json(&snap);
        // through the renderer and parser, like a real checkpoint
        let reparsed = Json::parse(&json.render()).expect("valid JSON");
        let restored = snapshot_from_json(&reparsed, "t").expect("well-formed snapshot");
        assert_eq!(restored, snap);
    }

    #[test]
    fn snapshot_json_rejects_unknown_fields() {
        let spec = WalkSpec::costas(6);
        let engine = spec.build_engine(3, 0);
        let json = snapshot_to_json(&engine.snapshot());
        let Json::Object(mut map) = json else {
            unreachable!()
        };
        map.insert("novel_field".to_string(), Json::UInt(1));
        let err = snapshot_from_json(&Json::Object(map), "t").expect_err("unknown field");
        assert_eq!(
            err,
            CampaignError::UnknownField {
                field: "t.novel_field".to_string()
            }
        );
    }
}
