//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, in completion order
//! (the `id` field correlates them; responses are *not* guaranteed to arrive
//! in submission order because requests run concurrently on the worker pool).
//!
//! ## Request
//!
//! ```json
//! {"id":"r1","problem":"costas","n":12,"budget":2000000,"seed":7,
//!  "warm_start":[2,4,3,1],"deadline_ms":5000,"walks":4}
//! ```
//!
//! `problem` and `n` are required; everything else is optional (`id` defaults
//! to `""`, `budget` to [`DEFAULT_BUDGET`], `seed` to `0`).  Unknown fields are
//! rejected rather than ignored — a mistyped `"deadline"` must not silently
//! become "no deadline".  `walks` forces the fan-out width; without it the
//! service decides (see [`crate::service`]).
//!
//! ## Responses
//!
//! Completed work (HTTP-2xx-equivalent — including unsatisfied outcomes like
//! an expired deadline, which are valid answers to a valid question):
//!
//! ```json
//! {"id":"r1","status":"ok","termination":"solved","problem":"costas","n":12,
//!  "solution":[...],"final_cost":0,"best_cost":0,"iterations":811,
//!  "restarts":0,"walks":1,"winner":null,"elapsed_ms":1,"queue_ms":0,
//!  "stats":{"local_minima":...,"resets":...,"injections_adopted":...}}
//! ```
//!
//! Structured rejects (admission failures; no search work was done):
//!
//! ```json
//! {"id":"r2","status":"rejected","reason":"queue-full","detail":"..."}
//! ```
//!
//! with `reason` one of `"queue-full"`, `"unknown-problem"`,
//! `"invalid-request"`, `"oversized"`; and protocol errors (the line was not
//! a usable request, so `id` may be unrecoverable):
//!
//! ```json
//! {"id":"","status":"error","reason":"parse","detail":"offset 3: ..."}
//! ```
//!
//! ## Cancellation
//!
//! A line of the shape `{"cancel":"r1"}` (exactly one field) is a *cancel
//! message*, not a solve request: it asks the service to cancel the in-flight
//! or queued request whose `id` is `"r1"`.  It is answered immediately with
//!
//! ```json
//! {"id":"r1","status":"cancel-ack","found":true}
//! ```
//!
//! where `found` says whether such a request was live.  The cancelled request
//! itself still receives its own response line (`"termination":"cancelled"`)
//! — a cancel never silently swallows an admitted request's answer.
//!
//! ## Worker failure
//!
//! If request execution dies (a panicking cost model, an injected fault), the
//! admitted request is still answered — with a typed failure rather than a
//! torn connection:
//!
//! ```json
//! {"id":"r1","status":"failed","reason":"worker-panicked","detail":"..."}
//! ```

use std::time::Duration;

use adaptive_search::request::{RequestError, SolveRequest};
use runtime_stats::json::Json;

/// Iteration budget applied when a request carries no `budget` field: enough
/// to solve every registry workload at its bench size with high probability,
/// small enough that a stuck request releases its worker in bounded time.
pub const DEFAULT_BUDGET: u64 = 2_000_000;

/// Hard cap on the per-request fan-out width (each walk is an OS thread).
pub const MAX_WALKS: usize = 64;

/// Why a request was not admitted (or not even parsed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The admission queue is at capacity — backpressure; retry later.
    QueueFull,
    /// The problem key is not in the workload registry.
    UnknownProblem,
    /// The request was well-formed JSON but semantically unusable
    /// (missing/ill-typed field, `n` outside the model's size range, invalid
    /// warm start, `walks` out of range…).
    InvalidRequest,
    /// The line exceeded the connection's byte cap before its newline.
    Oversized,
    /// The line was not valid JSON at all.
    Parse,
}

impl RejectReason {
    /// Stable wire label.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::UnknownProblem => "unknown-problem",
            RejectReason::InvalidRequest => "invalid-request",
            RejectReason::Oversized => "oversized",
            RejectReason::Parse => "parse",
        }
    }
}

/// A structured reject: everything needed to render the response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// Echo of the request id (`""` when the id itself was unrecoverable).
    pub id: String,
    /// Reject class.
    pub reason: RejectReason,
    /// Human-readable specifics.
    pub detail: String,
}

impl Reject {
    fn new(id: impl Into<String>, reason: RejectReason, detail: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            reason,
            detail: detail.into(),
        }
    }

    /// The reject for a line that blew past the connection's byte cap.  The
    /// id is unrecoverable (the line was never parsed), so it echoes as `""`.
    pub fn oversized(max_line_bytes: usize) -> Self {
        Reject::new(
            "",
            RejectReason::Oversized,
            format!("request line exceeds {max_line_bytes} bytes; line dropped"),
        )
    }

    /// Render the response line for this reject.
    pub fn render(&self) -> String {
        let status = if self.reason == RejectReason::Parse {
            "error"
        } else {
            "rejected"
        };
        Json::object(vec![
            ("id", Json::from(self.id.as_str())),
            ("status", Json::from(status)),
            ("reason", Json::from(self.reason.as_str())),
            ("detail", Json::from(self.detail.as_str())),
        ])
        .render()
    }
}

impl From<(String, RequestError)> for Reject {
    fn from((id, err): (String, RequestError)) -> Self {
        let reason = match &err {
            RequestError::UnknownProblem { .. } => RejectReason::UnknownProblem,
            RequestError::SizeOutOfRange { .. }
            | RequestError::SizeNotMultiple { .. }
            | RequestError::WalksOverBudget { .. }
            | RequestError::InvalidWarmStart { .. } => RejectReason::InvalidRequest,
        };
        Reject::new(id, reason, err.to_string())
    }
}

/// A decoded request line: the unified [`SolveRequest`] plus wire-level
/// extras (correlation id, explicit fan-out width).
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Correlation id echoed into the response (`""` if absent).
    pub id: String,
    /// The solve request proper — the same type every other solve path in the
    /// workspace consumes.
    pub request: SolveRequest,
    /// Explicit fan-out width; `None` lets the service decide.
    pub walks: Option<usize>,
}

/// One decoded protocol line: a solve request or a control message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// An ordinary solve request.
    Solve(WireRequest),
    /// `{"cancel":"<id>"}` — cancel the live request with that id.
    Cancel {
        /// The id of the request to cancel.
        target: String,
    },
}

/// Decode one protocol line: a `{"cancel":...}` control message or a solve
/// request (see [`parse_request`]).
pub fn parse_message(line: &str) -> Result<WireMessage, Reject> {
    // Cheap pre-screen so ordinary requests don't pay a second parse.
    if line.contains("\"cancel\"") {
        let doc = Json::parse(line).map_err(|e| {
            Reject::new(
                "",
                RejectReason::Parse,
                format!("offset {}: {}", e.offset, e.message),
            )
        })?;
        if let Json::Object(fields) = &doc {
            if fields.contains_key("cancel") {
                // A cancel message is exactly one field: mixing it into a
                // solve request would make "which request is this?" ambiguous.
                if fields.len() != 1 {
                    return Err(Reject::new(
                        "",
                        RejectReason::InvalidRequest,
                        "a cancel message must have exactly one field: {\"cancel\":\"<id>\"}",
                    ));
                }
                let target = doc
                    .get("cancel")
                    .and_then(Json::as_str)
                    .ok_or_else(|| {
                        Reject::new(
                            "",
                            RejectReason::InvalidRequest,
                            "\"cancel\" must be a request-id string",
                        )
                    })?
                    .to_string();
                return Ok(WireMessage::Cancel { target });
            }
        }
    }
    parse_request(line).map(WireMessage::Solve)
}

/// Render the acknowledgement line for a cancel message.  `found` reports
/// whether a live (queued or in-flight) request with that id existed.
pub fn render_cancel_ack(target: &str, found: bool) -> String {
    Json::object(vec![
        ("id", Json::from(target)),
        ("status", Json::from("cancel-ack")),
        ("found", Json::from(found)),
    ])
    .render()
}

/// Render the typed failure line for a request whose execution panicked.
/// The service answers it — the worker is respawned, the connection lives.
pub fn render_worker_panicked(id: &str, detail: &str) -> String {
    Json::object(vec![
        ("id", Json::from(id)),
        ("status", Json::from("failed")),
        ("reason", Json::from("worker-panicked")),
        ("detail", Json::from(detail)),
    ])
    .render()
}

/// Fields a request line may carry; anything else is an invalid request.
const KNOWN_FIELDS: &[&str] = &[
    "id",
    "problem",
    "n",
    "budget",
    "seed",
    "warm_start",
    "deadline_ms",
    "walks",
];

/// Decode one request line.  All failures are structured [`Reject`]s so the
/// service can answer them without tearing the connection down.
pub fn parse_request(line: &str) -> Result<WireRequest, Reject> {
    let doc = Json::parse(line).map_err(|e| {
        Reject::new(
            "",
            RejectReason::Parse,
            format!("offset {}: {}", e.offset, e.message),
        )
    })?;
    let Json::Object(fields) = &doc else {
        return Err(Reject::new(
            "",
            RejectReason::Parse,
            "request must be a JSON object",
        ));
    };

    // Recover the id first so every later reject can echo it.
    let id = match doc.get("id") {
        None => String::new(),
        Some(v) => v
            .as_str()
            .ok_or_else(|| {
                Reject::new("", RejectReason::InvalidRequest, "\"id\" must be a string")
            })?
            .to_string(),
    };
    let invalid = |detail: String| Reject::new(id.clone(), RejectReason::InvalidRequest, detail);

    if let Some(unknown) = fields.keys().find(|k| !KNOWN_FIELDS.contains(&k.as_str())) {
        return Err(invalid(format!(
            "unknown field {unknown:?} (known: {})",
            KNOWN_FIELDS.join(", ")
        )));
    }

    let problem = doc
        .get("problem")
        .and_then(Json::as_str)
        .ok_or_else(|| invalid("\"problem\" (string) is required".into()))?
        .to_string();
    let n = doc
        .get("n")
        .and_then(Json::as_u64)
        .ok_or_else(|| invalid("\"n\" (non-negative integer) is required".into()))?
        as usize;
    let u64_field = |key: &str, default: u64| -> Result<u64, Reject> {
        match doc.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_u64()
                .ok_or_else(|| invalid(format!("{key:?} must be a non-negative integer"))),
        }
    };
    let budget = u64_field("budget", DEFAULT_BUDGET)?;
    let seed = u64_field("seed", 0)?;
    let deadline = match doc.get("deadline_ms") {
        None => None,
        Some(v) => Some(Duration::from_millis(v.as_u64().ok_or_else(|| {
            invalid("\"deadline_ms\" must be a non-negative integer".into())
        })?)),
    };
    let warm_start = match doc.get("warm_start") {
        None => None,
        Some(v) => {
            let items = v
                .as_array()
                .ok_or_else(|| invalid("\"warm_start\" must be an array".into()))?;
            let mut values = Vec::with_capacity(items.len());
            for item in items {
                values.push(item.as_u64().ok_or_else(|| {
                    invalid("\"warm_start\" entries must be non-negative integers".into())
                })? as usize);
            }
            Some(values)
        }
    };
    let walks = match doc.get("walks") {
        None => None,
        Some(v) => {
            let w = v
                .as_u64()
                .ok_or_else(|| invalid("\"walks\" must be a positive integer".into()))?
                as usize;
            if w == 0 || w > MAX_WALKS {
                return Err(invalid(format!("\"walks\" must be in 1..={MAX_WALKS}")));
            }
            Some(w)
        }
    };

    Ok(WireRequest {
        id,
        request: SolveRequest {
            problem,
            n,
            budget,
            seed,
            warm_start,
            deadline,
        },
        walks,
    })
}

/// Everything an `"ok"` response line carries beyond the outcome itself.
#[derive(Debug, Clone)]
pub struct OkMeta {
    /// Correlation id.
    pub id: String,
    /// Time the request spent queued before a worker picked it up.
    pub queue: Duration,
    /// Fan-out width that actually ran (1 = single engine).
    pub walks: usize,
    /// Winning rank for fan-outs that solved (`None` otherwise / single-engine).
    pub winner: Option<usize>,
}

/// Render the `"ok"` response line for a completed solve.
pub fn render_ok(meta: &OkMeta, outcome: &adaptive_search::request::SolveOutcome) -> String {
    let solution = match &outcome.solution {
        Some(s) => Json::from(s.iter().map(|&v| v as u64).collect::<Vec<u64>>()),
        None => Json::Null,
    };
    let winner = match meta.winner {
        Some(rank) => Json::from(rank),
        None => Json::Null,
    };
    let stats = &outcome.stats;
    Json::object(vec![
        ("id", Json::from(meta.id.as_str())),
        ("status", Json::from("ok")),
        ("termination", Json::from(outcome.termination.as_str())),
        ("problem", Json::from(outcome.problem)),
        ("n", Json::from(outcome.n)),
        ("solution", solution),
        ("final_cost", Json::from(outcome.final_cost)),
        ("best_cost", Json::from(outcome.best_cost)),
        ("iterations", Json::from(stats.iterations)),
        ("restarts", Json::from(stats.restarts + stats.resets)),
        ("walks", Json::from(meta.walks)),
        ("winner", winner),
        ("elapsed_ms", Json::from(outcome.elapsed.as_millis() as u64)),
        ("queue_ms", Json::from(meta.queue.as_millis() as u64)),
        (
            "stats",
            Json::object(vec![
                ("local_minima", Json::from(stats.local_minima)),
                ("plateau_moves", Json::from(stats.plateau_moves)),
                ("resets", Json::from(stats.resets)),
                ("restarts", Json::from(stats.restarts)),
                ("injections_adopted", Json::from(stats.injections_adopted)),
            ]),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_gets_defaults() {
        let wire = parse_request(r#"{"problem":"costas","n":10}"#).expect("parses");
        assert_eq!(wire.id, "");
        assert_eq!(wire.request.problem, "costas");
        assert_eq!(wire.request.n, 10);
        assert_eq!(wire.request.budget, DEFAULT_BUDGET);
        assert_eq!(wire.request.seed, 0);
        assert_eq!(wire.request.warm_start, None);
        assert_eq!(wire.request.deadline, None);
        assert_eq!(wire.walks, None);
    }

    #[test]
    fn full_request_round_trips_every_field() {
        let wire = parse_request(
            r#"{"id":"r9","problem":"langford","n":4,"budget":500,"seed":7,
               "warm_start":[1,2,3,4,5,6,7,8],"deadline_ms":250,"walks":2}"#,
        )
        .expect("parses");
        assert_eq!(wire.id, "r9");
        assert_eq!(wire.request.budget, 500);
        assert_eq!(wire.request.seed, 7);
        assert_eq!(
            wire.request.warm_start.as_deref(),
            Some(&(1..=8).collect::<Vec<_>>()[..])
        );
        assert_eq!(wire.request.deadline, Some(Duration::from_millis(250)));
        assert_eq!(wire.walks, Some(2));
    }

    #[test]
    fn malformed_json_is_a_parse_error_with_no_id() {
        let err = parse_request("{not json").expect_err("rejects");
        assert_eq!(err.reason, RejectReason::Parse);
        assert_eq!(err.id, "");
        assert!(err.render().contains("\"status\":\"error\""));
        let err = parse_request("[1,2]").expect_err("non-object");
        assert_eq!(err.reason, RejectReason::Parse);
    }

    #[test]
    fn semantic_failures_echo_the_id() {
        let err = parse_request(r#"{"id":"x","problem":"costas"}"#).expect_err("missing n");
        assert_eq!(err.reason, RejectReason::InvalidRequest);
        assert_eq!(err.id, "x");
        assert!(err.render().contains("\"status\":\"rejected\""));
        let err = parse_request(r#"{"id":"x","n":5}"#).expect_err("missing problem");
        assert_eq!(err.id, "x");
    }

    #[test]
    fn unknown_fields_are_rejected_not_ignored() {
        // The classic typo this guards: "deadline" instead of "deadline_ms"
        // must not silently mean "no deadline".
        let err = parse_request(r#"{"id":"t","problem":"costas","n":8,"deadline":100}"#)
            .expect_err("unknown field");
        assert_eq!(err.reason, RejectReason::InvalidRequest);
        assert!(err.detail.contains("deadline"));
    }

    #[test]
    fn walks_bounds_are_enforced() {
        let err = parse_request(r#"{"problem":"costas","n":8,"walks":0}"#).expect_err("zero");
        assert_eq!(err.reason, RejectReason::InvalidRequest);
        let err = parse_request(r#"{"problem":"costas","n":8,"walks":1000}"#).expect_err("huge");
        assert!(err.detail.contains("1..="));
        assert!(parse_request(r#"{"problem":"costas","n":8,"walks":4}"#).is_ok());
    }

    #[test]
    fn request_errors_map_to_reject_classes() {
        let r: Reject = (
            "a".to_string(),
            RequestError::UnknownProblem { key: "zzz".into() },
        )
            .into();
        assert_eq!(r.reason, RejectReason::UnknownProblem);
        let r: Reject = (
            "b".to_string(),
            RequestError::InvalidWarmStart {
                reason: "nope".into(),
            },
        )
            .into();
        assert_eq!(r.reason, RejectReason::InvalidRequest);
        let r: Reject = (
            "c".to_string(),
            RequestError::SizeOutOfRange {
                key: "costas",
                n: 0,
                max_n: 9,
            },
        )
            .into();
        assert_eq!(r.reason, RejectReason::InvalidRequest);
        let r: Reject = (
            "d".to_string(),
            RequestError::SizeNotMultiple {
                key: "number-partitioning",
                n: 7,
                step: 2,
            },
        )
            .into();
        assert_eq!(r.reason, RejectReason::InvalidRequest);
        assert!(r.detail.contains("not a multiple of 2"), "{}", r.detail);
        let r: Reject = (
            "e".to_string(),
            RequestError::WalksOverBudget {
                key: "costas",
                n: 7_712,
                walks: 2,
                max_walks: 1,
            },
        )
            .into();
        assert_eq!(r.reason, RejectReason::InvalidRequest);
        assert!(r.detail.contains("at most 1 fit"), "{}", r.detail);
    }

    #[test]
    fn cancel_messages_parse_and_solve_requests_pass_through() {
        assert_eq!(
            parse_message(r#"{"cancel":"r7"}"#).expect("cancel parses"),
            WireMessage::Cancel {
                target: "r7".into()
            }
        );
        // A solve request flows through parse_message unchanged.
        let msg = parse_message(r#"{"id":"a","problem":"costas","n":10}"#).expect("parses");
        assert!(matches!(msg, WireMessage::Solve(ref w) if w.id == "a"));
        // Mixing cancel into a request is ambiguous → invalid.
        let err = parse_message(r#"{"cancel":"r7","problem":"costas","n":8}"#)
            .expect_err("mixed message");
        assert_eq!(err.reason, RejectReason::InvalidRequest);
        // A non-string target is invalid, not a panic.
        let err = parse_message(r#"{"cancel":12}"#).expect_err("non-string id");
        assert_eq!(err.reason, RejectReason::InvalidRequest);
        // A request whose *value* merely contains the word "cancel" is fine.
        let msg = parse_message(r#"{"id":"cancel","problem":"costas","n":10}"#);
        assert!(matches!(msg, Ok(WireMessage::Solve(_))));
    }

    #[test]
    fn cancel_ack_and_failure_lines_are_typed_and_parse_back() {
        let ack = Json::parse(&render_cancel_ack("r7", true)).expect("valid JSON");
        assert_eq!(ack.get("id").and_then(Json::as_str), Some("r7"));
        assert_eq!(ack.get("status").and_then(Json::as_str), Some("cancel-ack"));
        assert_eq!(ack.get("found").and_then(Json::as_bool), Some(true));

        let failed = Json::parse(&render_worker_panicked("r8", "boom")).expect("valid JSON");
        assert_eq!(failed.get("status").and_then(Json::as_str), Some("failed"));
        assert_eq!(
            failed.get("reason").and_then(Json::as_str),
            Some("worker-panicked")
        );
        assert_eq!(failed.get("id").and_then(Json::as_str), Some("r8"));

        let oversized = Json::parse(&Reject::oversized(1024).render()).expect("valid JSON");
        assert_eq!(
            oversized.get("status").and_then(Json::as_str),
            Some("rejected")
        );
        assert_eq!(
            oversized.get("reason").and_then(Json::as_str),
            Some("oversized")
        );
        assert!(oversized
            .get("detail")
            .and_then(Json::as_str)
            .is_some_and(|d| d.contains("1024")));
    }

    #[test]
    fn ok_lines_parse_back_and_carry_the_contract_fields() {
        let outcome = SolveRequest::new("costas", 10, 42).run().expect("solves");
        let line = render_ok(
            &OkMeta {
                id: "q1".into(),
                queue: Duration::from_millis(3),
                walks: 1,
                winner: None,
            },
            &outcome,
        );
        let doc = Json::parse(&line).expect("response is valid JSON");
        assert_eq!(doc.get("id").and_then(Json::as_str), Some("q1"));
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(
            doc.get("termination").and_then(Json::as_str),
            Some("solved")
        );
        assert_eq!(doc.get("final_cost").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("walks").and_then(Json::as_u64), Some(1));
        assert_eq!(
            doc.get("solution")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(10)
        );
        assert!(doc.get("stats").is_some());
    }
}
