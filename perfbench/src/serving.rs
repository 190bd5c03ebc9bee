//! The small-request stream and the closed-loop client that drives an
//! in-process `solverd` service with it.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use adaptive_search::problems;
use adaptive_search::CancelToken;
use runtime_stats::json::Json;
use solverd::proto::{self, OkMeta, WireMessage};
use solverd::{Service, ServiceConfig};
use xrand::{RandExt, Rng64, SplitMix64};

use crate::work::{Expect, Unit};

/// Small, always-solvable instances of the six registry models, each below
/// its model's bench size so the service runs it on one engine.
pub const SHAPES: [(&str, usize); 6] = [
    ("costas", 10),
    ("n-queens", 30),
    ("all-interval", 10),
    ("langford", 8),
    ("magic-square", 4),
    ("number-partitioning", 12),
];

/// Requests outstanding at once: one generator thread, closed loop.
pub const WINDOW: usize = 2;

/// Service configuration of every serving leg.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }
}

/// One request of the stream.
#[derive(Debug, Clone)]
pub struct Request {
    pub shape: usize,
    pub seed: u64,
}

impl Request {
    /// The wire line for request number `k` (its id is `r<k>`); `walks` is
    /// explicit so the fan-out policy never changes what is measured.
    pub fn line(&self, k: usize) -> String {
        let (problem, n) = SHAPES[self.shape];
        format!(
            r#"{{"id":"r{k}","problem":"{problem}","n":{n},"seed":{},"walks":1}}"#,
            self.seed
        )
    }

    /// The same request as a unit of work off the service.
    pub fn unit(&self) -> Unit {
        let wire = match proto::parse_message(&self.line(0)) {
            Ok(WireMessage::Solve(wire)) => wire,
            other => panic!("stream line does not parse as a solve request: {other:?}"),
        };
        Unit {
            request: wire.request,
            walks: 1,
            expect: Expect::Solved,
        }
    }
}

/// The request stream of a seed: shapes drawn uniformly, one solve seed each.
pub fn stream(seed: u64) -> impl Iterator<Item = Request> {
    let mut rng = SplitMix64::new(seed ^ 0x5e7d_5a11);
    std::iter::from_fn(move || {
        let shape = rng.index(SHAPES.len());
        // Below 2^53, so the seed survives any JSON reader.
        let seed = rng.next_u64() >> 11;
        Some(Request { shape, seed })
    })
}

/// When a closed loop stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Count(usize),
    After(Duration),
}

/// What a closed loop saw.
#[derive(Debug, Default)]
pub struct Served {
    /// Client latency per request number; NaN when no matching answer came.
    pub latency_us: Vec<f64>,
    /// Requests whose answer passed [`verify`], by request number.
    pub verified: Vec<bool>,
    pub elapsed: Duration,
}

impl Served {
    pub fn ok_count(&self) -> usize {
        self.verified.iter().filter(|&&ok| ok).count()
    }
}

/// The request number in a response line's `"id":"r<k>"`.
fn response_index(line: &str) -> Option<usize> {
    let rest = &line[line.find(r#""id":"r"#)? + 7..];
    rest[..rest.find('"')?].parse().ok()
}

/// Drive `service` with `requests`, keeping [`WINDOW`] requests outstanding
/// until `stop`.  Latency runs from just before `submit` to the arrival of
/// the answer; the answers are verified once the loop has ended, so checking
/// takes no processor time from the service while it is timed.
pub fn closed_loop(
    service: &Service,
    requests: &mut dyn Iterator<Item = Request>,
    stop: Stop,
) -> Served {
    let (tx, rx) = mpsc::channel();
    let mut sent: Vec<(Request, Instant)> = Vec::new();
    let mut served = Served::default();
    let start = Instant::now();
    let more = |count: usize| match stop {
        Stop::Count(n) => count < n,
        Stop::After(d) => start.elapsed() < d,
    };
    let mut send = |sent: &mut Vec<(Request, Instant)>| {
        let request = requests.next().expect("the stream is endless");
        let line = request.line(sent.len());
        sent.push((request, Instant::now()));
        service.submit(&line, &tx);
    };
    while sent.len() < WINDOW && more(sent.len()) {
        send(&mut sent);
    }
    let mut answers = Vec::new();
    let mut outstanding = sent.len();
    while outstanding > 0 {
        let line = rx.recv().expect("the service answers every request");
        answers.push((line, Instant::now()));
        outstanding -= 1;
        if more(sent.len()) {
            send(&mut sent);
            outstanding += 1;
        }
    }
    served.elapsed = start.elapsed();
    served.latency_us = vec![f64::NAN; sent.len()];
    served.verified = vec![false; sent.len()];
    for (line, at) in answers {
        if let Some(k) = response_index(&line).filter(|&k| k < sent.len()) {
            served.latency_us[k] = (at - sent[k].1).as_secs_f64() * 1e6;
            served.verified[k] = verify(k, &sent[k].0, &line);
        }
    }
    served
}

/// Is `line` an `ok` response that solved `request` (number `k`) with a
/// solution the registry's `is_optimum` accepts?
pub fn verify(k: usize, request: &Request, line: &str) -> bool {
    let Ok(doc) = Json::parse(line) else {
        return false;
    };
    let (problem, n) = SHAPES[request.shape];
    let info = problems::find(problem).expect("shapes name registry problems");
    let field = |key: &str| doc.get(key).and_then(Json::as_str);
    let solution: Option<Vec<usize>> =
        doc.get("solution")
            .and_then(Json::as_array)
            .and_then(|items| {
                items
                    .iter()
                    .map(|v| v.as_u64().map(|v| v as usize))
                    .collect()
            });
    field("id") == Some(format!("r{k}").as_str())
        && field("status") == Some("ok")
        && field("termination") == Some("solved")
        && field("problem") == Some(problem)
        && doc.get("n").and_then(Json::as_u64) == Some(n as u64)
        && solution.is_some_and(|s| s.len() == (info.build)(n).size() && (info.is_optimum)(&s))
}

/// Per-request times of the serving layers, measured off the service on
/// the same lines the service then answers.
#[derive(Debug, Default)]
pub struct Split {
    pub parse_us: Vec<f64>,
    pub solve_us: Vec<f64>,
    pub render_us: Vec<f64>,
    /// Client latency minus parse, solve and render, per request.
    pub handoff_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Time `proto::parse_message`, the request solve (as the service runs it,
/// with a cancel token) and `proto::render_ok` for `count` requests of the
/// stream, then serve the same requests and subtract.
pub fn split(seed: u64, count: usize) -> Split {
    let requests: Vec<Request> = stream(seed).take(count).collect();
    let mut out = Split::default();
    for (k, request) in requests.iter().enumerate() {
        let line = request.line(k);
        let t = Instant::now();
        let parsed = proto::parse_message(&line);
        out.parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        let Ok(WireMessage::Solve(wire)) = parsed else {
            panic!("stream line does not parse as a solve request");
        };
        let t = Instant::now();
        let outcome = wire
            .request
            .run_with_cancel(Some(&CancelToken::new()))
            .expect("stream requests are valid");
        out.solve_us.push(t.elapsed().as_secs_f64() * 1e6);
        let meta = OkMeta {
            id: wire.id.clone(),
            queue: Duration::ZERO,
            walks: 1,
            winner: None,
        };
        let t = Instant::now();
        let rendered = proto::render_ok(&meta, &outcome);
        out.render_us.push(t.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
        if !verify(k, request, &rendered) {
            out.failed += 1;
        }
    }
    let service = Service::start(service_config());
    let served = closed_loop(&service, &mut requests.into_iter(), Stop::Count(count));
    drop(service);
    for (k, &ok) in served.verified.iter().enumerate() {
        out.attempted += 1;
        if !ok {
            out.failed += 1;
            continue;
        }
        out.handoff_us
            .push(served.latency_us[k] - out.parse_us[k] - out.solve_us[k] - out.render_us[k]);
    }
    out
}
